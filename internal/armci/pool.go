package armci

import "repro/internal/sim"

// Pool recycles host-side backing storage across simulation runs: the
// kernel's event heap/ring arrays. Repeated sweep points stop
// re-allocating them — the next run adopts the previous run's warmed
// capacity.
//
// A Pool is purely a host-memory optimization; a run with a Pool is
// simulated identically, event for event, to a run without one. It is
// not safe for concurrent use: give each sweep worker its own Pool (the
// sweep engine does exactly that). The nil *Pool is a valid no-op.
type Pool struct {
	sim sim.Spares
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// kernel builds a simulation kernel, reusing spare queue arrays if any.
func (p *Pool) kernel() *sim.Kernel {
	if p == nil {
		return sim.NewKernel()
	}
	return sim.NewKernelWith(&p.sim)
}

// putKernel harvests a finished kernel's backing arrays.
func (p *Pool) putKernel(k *sim.Kernel) {
	if p != nil {
		k.Recycle(&p.sim)
	}
}
