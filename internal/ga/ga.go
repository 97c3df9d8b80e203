// Package ga is a minimal Global Arrays layer over ARMCI: 2-D
// block-distributed float64 arrays with one-sided patch get/put/
// accumulate, a shared read-increment counter, and synchronization. It is
// the programming model NWChem uses (§II.B), and the SCF proxy drives
// ARMCI exclusively through it.
//
// Buffer ownership: the slices Array.Get and Array.OwnData return are
// backed by buffers the Array owns, one per method, so a rank in steady
// state allocates none. A result stays valid, and the caller may modify
// it, until the next call of the same method on the same array; Get's
// result and OwnData's never share memory. A caller that needs two Get
// results of one array at once copies the first. Slices passed in (Put,
// Acc, AccAsync, SetOwnData) are read during the call and not kept.
package ga

import (
	"fmt"

	"repro/internal/armci"
	"repro/internal/mem"
	"repro/internal/sim"
)

// gridShape factors p into pr x pc with pr <= pc, pr the largest divisor
// not exceeding sqrt(p) — the standard GA regular 2-D process grid.
func gridShape(p int) (pr, pc int) {
	pr = 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	return pr, p / pr
}

// Array is one rank's view of a block-distributed rows x cols float64
// matrix. All ranks hold structurally identical views created
// collectively.
type Array struct {
	rt         *armci.Runtime
	Name       string
	Rows, Cols int
	pr, pc     int // process grid
	br, bc     int // block dims (edge blocks are logically smaller but
	// stored padded to br x bc so the leading dimension is uniform)
	alloc *armci.Allocation

	scratch     mem.Addr
	scratchSize int
	// stage holds AccAsync's values while it issues them, kept between
	// calls and grown to the largest patch, as got and own are: the AM
	// layer captures each piece's payload at issue, so the next call may
	// overwrite it.
	stage     mem.Addr
	stageSize int
	// handles is Get's, Put's and Acc's list of the pieces' handles,
	// filled and emptied by each call, so a call in steady state
	// allocates none. It starts on handleArr, which holds a patch that
	// spans up to four owners in each dimension.
	handles   []armci.Handle
	handleArr [16]armci.Handle
	// got and own back the slices Get and OwnData return (package
	// comment); each grows to the largest result asked of it.
	got, own []float64
}

// Create collectively builds a rows x cols distributed array. Every rank
// must call it in the same order with the same arguments.
func Create(th *sim.Thread, rt *armci.Runtime, name string, rows, cols int) *Array {
	if rows <= 0 || cols <= 0 {
		panic("ga: non-positive dimensions")
	}
	p := rt.Procs()
	pr, pc := gridShape(p)
	br := (rows + pr - 1) / pr
	bc := (cols + pc - 1) / pc
	a := &Array{
		rt:   rt,
		Name: name,
		Rows: rows, Cols: cols,
		pr: pr, pc: pc,
		br: br, bc: bc,
	}
	a.handles = a.handleArr[:0]
	a.alloc = rt.Malloc(th, br*bc*mem.Float64Size)
	return a
}

// Destroy collectively releases the array.
func (a *Array) Destroy(th *sim.Thread) {
	a.rt.Free(th, a.alloc)
	a.alloc = nil
}

// owner returns the rank holding block (bi, bj).
func (a *Array) owner(bi, bj int) int { return bi*a.pc + bj }

// OwnBlock returns this rank's block bounds [r0,r1) x [c0,c1); ok is
// false when the rank owns no block (p larger than the grid, or an edge
// block that is empty).
func (a *Array) OwnBlock() (r0, c0, r1, c1 int, ok bool) {
	rank := a.rt.Rank
	if rank >= a.pr*a.pc {
		return 0, 0, 0, 0, false
	}
	bi, bj := rank/a.pc, rank%a.pc
	r0, c0 = bi*a.br, bj*a.bc
	r1, c1 = min(r0+a.br, a.Rows), min(c0+a.bc, a.Cols)
	if r0 >= r1 || c0 >= c1 {
		return 0, 0, 0, 0, false
	}
	return r0, c0, r1, c1, true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// checkPatch validates [r0,r1) x [c0,c1).
func (a *Array) checkPatch(r0, c0, r1, c1 int) {
	if r0 < 0 || c0 < 0 || r1 > a.Rows || c1 > a.Cols || r0 >= r1 || c0 >= c1 {
		panic(fmt.Sprintf("ga: %s: bad patch [%d,%d)x[%d,%d) of %dx%d",
			a.Name, r0, r1, c0, c1, a.Rows, a.Cols))
	}
}

// ensureScratch grows the rank-local registered staging buffer.
func (a *Array) ensureScratch(th *sim.Thread, n int) mem.Addr {
	if a.scratchSize < n {
		if a.scratch != mem.Nil {
			a.rt.Space().Free(a.scratch)
		}
		sz := max(n, 4096)
		a.scratch = a.rt.LocalAlloc(th, sz)
		a.scratchSize = sz
	}
	return a.scratch
}

// forEachOwnedPiece decomposes a patch into per-owner pieces, invoking fn
// with the owner rank, the piece bounds, and the owner-local element
// offset of the piece's first element.
func (a *Array) forEachOwnedPiece(r0, c0, r1, c1 int,
	fn func(rank, pr0, pc0, pr1, pc1, remoteElemOff int)) {

	for bi := r0 / a.br; bi*a.br < r1; bi++ {
		for bj := c0 / a.bc; bj*a.bc < c1; bj++ {
			pr0, pc0 := max(r0, bi*a.br), max(c0, bj*a.bc)
			pr1, pc1 := min(r1, (bi+1)*a.br), min(c1, (bj+1)*a.bc)
			if pr0 >= pr1 || pc0 >= pc1 {
				continue
			}
			off := (pr0-bi*a.br)*a.bc + (pc0 - bj*a.bc)
			fn(a.owner(bi, bj), pr0, pc0, pr1, pc1, off)
		}
	}
}

// stridedArgs builds the ARMCI strided descriptor for one piece: the
// remote side walks the owner's padded block, the local side walks the
// row-major patch buffer.
func (a *Array) stridedArgs(r0, c0, pr0, pc0, pr1, pc1, patchCols int) (
	localOff int, localStrides []int, remoteStrides []int, counts []int) {

	rows, cols := pr1-pr0, pc1-pc0
	counts = []int{cols * mem.Float64Size, rows}
	localStrides = []int{patchCols * mem.Float64Size}
	remoteStrides = []int{a.bc * mem.Float64Size}
	localOff = ((pr0-r0)*patchCols + (pc0 - c0)) * mem.Float64Size
	return
}

// grow returns buf resliced to n elements, reallocated only when its
// capacity is short, and then to at least twice it, so that patches of
// mixed sizes settle after one or two calls.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// Get fetches the patch [r0,r1) x [c0,c1) into a row-major slice, valid
// until the next Get on this array (package comment). The transfer is
// one-sided: one strided ARMCI get per owning rank.
func (a *Array) Get(th *sim.Thread, r0, c0, r1, c1 int) []float64 {
	a.checkPatch(r0, c0, r1, c1)
	rows, cols := r1-r0, c1-c0
	buf := a.ensureScratch(th, rows*cols*mem.Float64Size)

	a.forEachOwnedPiece(r0, c0, r1, c1, func(rank, pr0, pc0, pr1, pc1, rOff int) {
		lOff, lStr, rStr, counts := a.stridedArgs(r0, c0, pr0, pc0, pr1, pc1, cols)
		src := a.alloc.At(rank).Add(rOff * mem.Float64Size)
		a.handles = append(a.handles,
			a.rt.NbGetS(th, src, rStr, buf+mem.Addr(lOff), lStr, counts))
	})
	a.waitHandles(th)
	a.got = grow(a.got, rows*cols)
	a.rt.Space().ReadFloat64s(buf, a.got)
	return a.got
}

// Put stores a row-major slice into the patch.
func (a *Array) Put(th *sim.Thread, r0, c0, r1, c1 int, vals []float64) {
	a.checkPatch(r0, c0, r1, c1)
	rows, cols := r1-r0, c1-c0
	if len(vals) != rows*cols {
		panic(fmt.Sprintf("ga: %s: Put of %d values into %dx%d patch", a.Name, len(vals), rows, cols))
	}
	buf := a.ensureScratch(th, rows*cols*mem.Float64Size)
	a.rt.Space().WriteFloat64s(buf, vals)

	a.forEachOwnedPiece(r0, c0, r1, c1, func(rank, pr0, pc0, pr1, pc1, rOff int) {
		lOff, lStr, rStr, counts := a.stridedArgs(r0, c0, pr0, pc0, pr1, pc1, cols)
		dst := a.alloc.At(rank).Add(rOff * mem.Float64Size)
		a.handles = append(a.handles,
			a.rt.NbPutS(th, buf+mem.Addr(lOff), lStr, dst, rStr, counts))
	})
	a.waitHandles(th)
}

// Acc accumulates scale*vals into the patch (atomic per element at each
// owner, like GA_Acc).
func (a *Array) Acc(th *sim.Thread, r0, c0, r1, c1 int, vals []float64, scale float64) {
	a.checkPatch(r0, c0, r1, c1)
	rows, cols := r1-r0, c1-c0
	if len(vals) != rows*cols {
		panic(fmt.Sprintf("ga: %s: Acc of %d values into %dx%d patch", a.Name, len(vals), rows, cols))
	}
	buf := a.ensureScratch(th, rows*cols*mem.Float64Size)
	a.rt.Space().WriteFloat64s(buf, vals)

	a.forEachOwnedPiece(r0, c0, r1, c1, func(rank, pr0, pc0, pr1, pc1, rOff int) {
		lOff, lStr, rStr, counts := a.stridedArgs(r0, c0, pr0, pc0, pr1, pc1, cols)
		dst := a.alloc.At(rank).Add(rOff * mem.Float64Size)
		a.handles = append(a.handles,
			a.rt.NbAccS(th, buf+mem.Addr(lOff), lStr, dst, rStr, counts, scale))
	})
	a.waitHandles(th)
}

// waitHandles waits for every handle Get, Put or Acc collected and
// empties the list for the next call.
func (a *Array) waitHandles(th *sim.Thread) {
	for _, h := range a.handles {
		h.Wait(th)
	}
	a.handles = a.handles[:0]
}

// Fill sets every element this rank owns to v (collective; callers should
// Sync afterwards).
func (a *Array) Fill(th *sim.Thread, v float64) {
	r0, c0, r1, c1, ok := a.OwnBlock()
	if !ok {
		return
	}
	base := a.alloc.At(a.rt.Rank).Addr
	sp := a.rt.Space()
	for r := r0; r < r1; r++ {
		row := base + mem.Addr((r-r0)*a.bc*mem.Float64Size)
		for c := 0; c < c1-c0; c++ {
			sp.SetFloat64(row+mem.Addr(c*mem.Float64Size), v)
		}
	}
}

// AccAsync is Acc without waiting for remote application: the operation
// is tracked by the runtime and completes by the next Sync (or WaitAll +
// fence). This is how NWChem's Fock build issues its accumulates — the
// task loop must not stall on an owner that is busy computing.
func (a *Array) AccAsync(th *sim.Thread, r0, c0, r1, c1 int, vals []float64, scale float64) {
	a.checkPatch(r0, c0, r1, c1)
	rows, cols := r1-r0, c1-c0
	if len(vals) != rows*cols {
		panic(fmt.Sprintf("ga: %s: Acc of %d values into %dx%d patch", a.Name, len(vals), rows, cols))
	}
	// Not the scratch buffer: the caller may reuse that before the acc is
	// acknowledged.
	if n := rows * cols * mem.Float64Size; a.stageSize < n {
		if a.stage != mem.Nil {
			a.rt.Space().Free(a.stage)
		}
		a.stage, a.stageSize = a.rt.Space().Alloc(n), n
	}
	a.rt.Space().WriteFloat64s(a.stage, vals)
	a.forEachOwnedPiece(r0, c0, r1, c1, func(rank, pr0, pc0, pr1, pc1, rOff int) {
		lOff, lStr, rStr, counts := a.stridedArgs(r0, c0, pr0, pc0, pr1, pc1, cols)
		dst := a.alloc.At(rank).Add(rOff * mem.Float64Size)
		h := a.rt.NbAccS(th, a.stage+mem.Addr(lOff), lStr, dst, rStr, counts, scale)
		a.rt.Track(h)
	})
}

// OwnData returns a copy of this rank's owned block in row-major logical
// order, read directly from local memory with no communication, valid
// until the next OwnData on this array (package comment). The second
// return is false when the rank owns nothing.
func (a *Array) OwnData() ([]float64, bool) {
	r0, c0, r1, c1, ok := a.OwnBlock()
	if !ok {
		return nil, false
	}
	rows, cols := r1-r0, c1-c0
	a.own = grow(a.own, rows*cols)
	base := a.alloc.At(a.rt.Rank).Addr
	for r := 0; r < rows; r++ {
		a.rt.Space().ReadFloat64s(base+mem.Addr(r*a.bc*mem.Float64Size),
			a.own[r*cols:(r+1)*cols])
	}
	return a.own, true
}

// SetOwnData overwrites this rank's owned block from a row-major slice,
// with no communication.
func (a *Array) SetOwnData(vals []float64) {
	r0, c0, r1, c1, ok := a.OwnBlock()
	if !ok {
		if len(vals) != 0 {
			panic("ga: SetOwnData on rank owning nothing")
		}
		return
	}
	rows, cols := r1-r0, c1-c0
	if len(vals) != rows*cols {
		panic(fmt.Sprintf("ga: %s: SetOwnData of %d values into %dx%d block",
			a.Name, len(vals), rows, cols))
	}
	base := a.alloc.At(a.rt.Rank).Addr
	for r := 0; r < rows; r++ {
		a.rt.Space().WriteFloat64s(base+mem.Addr(r*a.bc*mem.Float64Size),
			vals[r*cols:(r+1)*cols])
	}
}

// Sync completes all outstanding operations and synchronizes all ranks
// (GA_Sync = fence everything + barrier).
func (a *Array) Sync(th *sim.Thread) {
	a.rt.WaitAll(th)
	a.rt.AllFence(th)
	a.rt.Barrier(th)
}

// Counter is a shared load-balance counter (the NXTVAL/SharedCounter
// primitive of Fig 10), hosted in rank 0's memory and advanced with
// ARMCI fetch-and-add.
type Counter struct {
	rt  *armci.Runtime
	ptr armci.GlobalPtr
}

// NewCounter collectively creates a counter on rank 0, initialized to 0.
func NewCounter(th *sim.Thread, rt *armci.Runtime) *Counter {
	alloc := rt.Malloc(th, 8)
	return &Counter{rt: rt, ptr: alloc.At(0)}
}

// Next atomically claims the next value (ReadInc by 1).
func (c *Counter) Next(th *sim.Thread) int64 {
	return c.rt.FetchAdd(th, c.ptr, 1)
}

// Reset collectively zeroes the counter.
func (c *Counter) Reset(th *sim.Thread) {
	c.rt.Barrier(th)
	if c.rt.Rank == 0 {
		c.rt.Space().SetInt64(c.ptr.Addr, 0)
	}
	c.rt.Barrier(th)
}
