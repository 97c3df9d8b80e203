package sim

// RNG is a splitmix64 generator: tiny, fast, and fully deterministic. Every
// stochastic choice in the simulator draws from a seeded RNG so runs replay
// exactly. An RNG embedded in its owner is started with Seed.
type RNG struct{ s uint64 }

// NewRNG returns a generator with the given seed.
func NewRNG(seed uint64) *RNG {
	r := new(RNG)
	r.Seed(seed)
	return r
}

// Seed restarts the generator from seed. Seed zero is remapped so the
// generator never degenerates.
func (r *RNG) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r.s = seed
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1). The outer conversion, like
// Jitter's, rounds the result where it is written, so an inlining caller's
// arithmetic cannot fuse with it: the same draw on any CPU.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform value in [0,n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Jitter returns base scaled by a uniform factor in [1-frac, 1+frac]. It is
// the standard way the network model perturbs software overheads so that
// latency curves show realistic texture without losing determinism.
func (r *RNG) Jitter(base Time, frac float64) Time {
	if frac <= 0 {
		return base
	}
	f := 1 + float64(frac*(float64(2*r.Float64())-1))
	return Time(float64(base) * f)
}
