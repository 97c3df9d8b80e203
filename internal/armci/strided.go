package armci

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/pami"
	"repro/internal/sim"
)

// Strided (uniformly non-contiguous) transfers use ARMCI's descriptor:
// counts[0] is the contiguous chunk size in bytes (l0 in Eq. 9) and
// counts[1..] are block repetition counts per level; strides give the
// byte distance between consecutive blocks at each level (one entry per
// level above the first). A 2-D patch of R rows of C bytes in a matrix
// with leading dimension L is {counts: [C, R], strides: [L]}.

// maxStrideLevels bounds a descriptor's stride levels, as
// ARMCI_MAX_STRIDE_LEVEL does. A descriptor then fits fixed arrays: the
// chunk index, the wire header and a pending get's reply layout are
// values on a stack or inside their owner, never slices of their own.
const maxStrideLevels = 8

// stridedHdrMax is the longest typed strided header: id, address, extra
// word and count length, then up to maxStrideLevels+1 counts and
// maxStrideLevels strides.
const stridedHdrMax = 4 + 2*maxStrideLevels + 1

// patchLayout is one side of a strided descriptor by value.
type patchLayout struct {
	levels  int // stride levels: len(strides), len(counts)-1
	strides [maxStrideLevels]int
	counts  [maxStrideLevels + 1]int
}

// layoutOf copies a validated descriptor into a layout.
func layoutOf(strides, counts []int) patchLayout {
	l := patchLayout{levels: len(strides)}
	copy(l.strides[:], strides)
	copy(l.counts[:], counts)
	return l
}

// slices returns the layout in the form the patch helpers take.
func (l *patchLayout) slices() (strides, counts []int) {
	return l.strides[:l.levels], l.counts[:l.levels+1]
}

// validateStrided panics on malformed descriptors: a malformed patch is
// always a caller bug.
func validateStrided(name string, strides []int, counts []int) {
	if len(counts) == 0 {
		panic("armci: " + name + ": empty counts")
	}
	if len(strides) != len(counts)-1 {
		panic(fmt.Sprintf("armci: %s: %d strides for %d counts", name, len(strides), len(counts)))
	}
	if len(strides) > maxStrideLevels {
		panic(fmt.Sprintf("armci: %s: %d stride levels, more than ARMCI_MAX_STRIDE_LEVEL (%d)",
			name, len(strides), maxStrideLevels))
	}
	for _, c := range counts {
		if c <= 0 {
			panic("armci: " + name + ": non-positive count")
		}
	}
	for i, s := range strides {
		if s < counts[0] {
			panic(fmt.Sprintf("armci: %s: stride %d (%d) below chunk size %d",
				name, i, s, counts[0]))
		}
	}
}

// numChunks returns the number of contiguous pieces the patch splits into.
func numChunks(counts []int) int {
	n := 1
	for _, c := range counts[1:] {
		n *= c
	}
	return n
}

// patchBytes is the total payload of the patch.
func patchBytes(counts []int) int { return counts[0] * numChunks(counts) }

// patchExtent is the distance from the patch base to one past its last
// byte — the window a covering memory region must span.
func patchExtent(strides []int, counts []int) int {
	ext := counts[0]
	for i, s := range strides {
		ext += (counts[i+1] - 1) * s
	}
	return ext
}

// forEachChunk visits every chunk's (a-side, b-side) byte offsets, with
// the first stride level varying fastest.
func forEachChunk(counts []int, aStr, bStr []int, fn func(aOff, bOff int)) {
	n := len(counts) - 1
	if n == 0 {
		fn(0, 0)
		return
	}
	var idx [maxStrideLevels]int
	for {
		aOff, bOff := 0, 0
		for j := 0; j < n; j++ {
			aOff += idx[j] * aStr[j]
			bOff += idx[j] * bStr[j]
		}
		fn(aOff, bOff)
		j := 0
		for j < n {
			idx[j]++
			if idx[j] < counts[j+1] {
				break
			}
			idx[j] = 0
			j++
		}
		if j == n {
			return
		}
	}
}

// packPatch serializes a strided patch of s into a contiguous buffer from
// bufs: an AM payload, which pami hands back once its handler has run.
func packPatch(bufs *mem.Classes, s *mem.Space, base mem.Addr, strides []int, counts []int) []byte {
	out := bufs.Buf(patchBytes(counts))
	pos := 0
	forEachChunk(counts, strides, strides, func(off, _ int) {
		pos += copy(out[pos:], s.Bytes(base+mem.Addr(off), counts[0]))
	})
	return out
}

// unpackPatch scatters a contiguous buffer into a strided patch.
func unpackPatch(s *mem.Space, base mem.Addr, strides []int, counts []int, data []byte) {
	pos := 0
	forEachChunk(counts, strides, strides, func(off, _ int) {
		s.CopyIn(base+mem.Addr(off), data[pos:pos+counts[0]])
		pos += counts[0]
	})
}

// stridedHdr encodes the wire metadata of a typed strided operation into
// buf, the caller's array, and returns the part it filled: SendAM copies
// the header into the flight, so buf can live on the caller's stack.
func stridedHdr(buf *[stridedHdrMax]int64, id int64, addr mem.Addr, extra int64, strides []int, counts []int) []int64 {
	hdr := append(buf[:0], id, int64(addr), extra, int64(len(counts)))
	for _, c := range counts {
		hdr = append(hdr, int64(c))
	}
	for _, s := range strides {
		hdr = append(hdr, int64(s))
	}
	return hdr
}

// decodeStridedHdr is the inverse of stridedHdr.
func decodeStridedHdr(hdr []int64) (id int64, addr mem.Addr, extra int64, l patchLayout) {
	id, addr, extra = hdr[0], mem.Addr(hdr[1]), hdr[2]
	n := int(hdr[3])
	l.levels = n - 1
	for i := 0; i < n; i++ {
		l.counts[i] = int(hdr[4+i])
	}
	for i := 0; i < n-1; i++ {
		l.strides[i] = int(hdr[4+n+i])
	}
	return
}

// NbPutS starts a non-blocking strided put. Chunks at least
// TypedThreshold bytes long go as a list of non-blocking RDMA transfers —
// no pack/unpack, no flow control, no remote progress (§III.C.2). Smaller
// (tall-skinny) chunks use the typed/packed path, as does any patch whose
// memory regions are unavailable.
func (rt *Runtime) NbPutS(th *sim.Thread, local mem.Addr, localStrides []int,
	dst GlobalPtr, dstStrides []int, counts []int) Handle {

	validateStrided("PutS", localStrides, counts)
	validateStrided("PutS", dstStrides, counts)
	if numChunks(counts) == 1 {
		return rt.NbPut(th, local, dst, counts[0])
	}
	pos := rt.peers.record(dst.Rank)
	rt.markWrite(pos, rt.allocKey(dst))
	h := rt.newHandle()

	if counts[0] >= rt.W.Cfg.TypedThreshold && rt.rdmaReady(th, local, patchExtent(localStrides, counts),
		pos, dst.Addr, patchExtent(dstStrides, counts)) {
		set := &h.s.set
		rt.mainCtx.InitOpSet(set, &h.s.comp)
		ep := rt.endpoint(th, pos, false)
		forEachChunk(counts, localStrides, dstStrides, func(lOff, rOff int) {
			set.RdmaPut(th, ep, local+mem.Addr(lOff),
				dst.Addr+mem.Addr(rOff), counts[0])
		})
		set.Arm()
		rt.peers.addWrites(pos, 1, 0)
		rt.Stats[statStridedChunks] += int64(numChunks(counts))
		return h
	}

	// Typed/packed path.
	m := patchBytes(counts)
	th.Sleep(rt.copyCost(m))
	data := packPatch(rt.C.Bufs(), rt.C.Space, local, localStrides, counts)
	id, p := rt.newPend()
	p.counted = true
	rt.peers.addWrites(pos, 0, 1)
	var hdr [stridedHdrMax]int64
	rt.mainCtx.SendAM(th, rt.endpoint(th, pos, true), dPutSReq,
		stridedHdr(&hdr, id, dst.Addr, 0, dstStrides, counts), data)
	rt.Stats[statStridedTyped]++
	h.s.comp.Finish() // locally complete at issue: the AM owns the packed copy
	return h
}

// PutS is the blocking strided put.
func (rt *Runtime) PutS(th *sim.Thread, local mem.Addr, localStrides []int,
	dst GlobalPtr, dstStrides []int, counts []int) {
	t0 := th.Now()
	rt.NbPutS(th, local, localStrides, dst, dstStrides, counts).Wait(th)
	rt.obsOp(opPutS, patchBytes(counts), th.Now()-t0)
}

// NbGetS starts a non-blocking strided get (protocol selection as NbPutS).
func (rt *Runtime) NbGetS(th *sim.Thread, src GlobalPtr, srcStrides []int,
	local mem.Addr, localStrides []int, counts []int) Handle {

	validateStrided("GetS", srcStrides, counts)
	validateStrided("GetS", localStrides, counts)
	if numChunks(counts) == 1 {
		return rt.NbGet(th, src, local, counts[0])
	}
	pos := rt.admitRead(th, src.Rank, rt.allocKey(src))
	h := rt.newHandle()

	if counts[0] >= rt.W.Cfg.TypedThreshold && rt.rdmaReady(th, local, patchExtent(localStrides, counts),
		pos, src.Addr, patchExtent(srcStrides, counts)) {
		set := &h.s.set
		rt.mainCtx.InitOpSet(set, &h.s.comp)
		ep := rt.endpoint(th, pos, false)
		forEachChunk(counts, localStrides, srcStrides, func(lOff, rOff int) {
			set.RdmaGet(th, ep, local+mem.Addr(lOff),
				src.Addr+mem.Addr(rOff), counts[0])
		})
		set.Arm()
		rt.Stats[statStridedChunks] += int64(numChunks(counts))
		return h
	}

	// Typed path: the target packs and replies; we unpack on receipt, by
	// a copy of the local layout (the caller's slices are not kept).
	id, p := rt.newPend()
	p.comp = &h.s.comp
	p.localAddr = local
	p.layout = layoutOf(localStrides, counts)
	var hdr [stridedHdrMax]int64
	rt.mainCtx.SendAM(th, rt.endpoint(th, pos, true), dGetSReq,
		stridedHdr(&hdr, id, src.Addr, 0, srcStrides, counts), nil)
	rt.Stats[statStridedTyped]++
	return h
}

// GetS is the blocking strided get.
func (rt *Runtime) GetS(th *sim.Thread, src GlobalPtr, srcStrides []int,
	local mem.Addr, localStrides []int, counts []int) {
	t0 := th.Now()
	rt.NbGetS(th, src, srcStrides, local, localStrides, counts).Wait(th)
	rt.obsOp(opGetS, patchBytes(counts), th.Now()-t0)
}

// NbAccS starts a non-blocking strided accumulate: a single packed active
// message whose handler applies dst += scale*src chunk by chunk at the
// target. Completion means remotely applied (acknowledged).
func (rt *Runtime) NbAccS(th *sim.Thread, local mem.Addr, localStrides []int,
	dst GlobalPtr, dstStrides []int, counts []int, scale float64) Handle {

	validateStrided("AccS", localStrides, counts)
	validateStrided("AccS", dstStrides, counts)
	if counts[0]%mem.Float64Size != 0 {
		panic("armci: AccS chunk size must be a multiple of 8")
	}
	pos := rt.peers.record(dst.Rank)
	rt.markWrite(pos, rt.allocKey(dst))
	m := patchBytes(counts)
	th.Sleep(rt.copyCost(m))
	data := packPatch(rt.C.Bufs(), rt.C.Space, local, localStrides, counts)
	id, p := rt.newPend()
	h := rt.newHandle()
	p.comp = &h.s.comp
	p.counted = true
	rt.peers.addWrites(pos, 0, 1)
	var hdr [stridedHdrMax]int64
	rt.mainCtx.SendAM(th, rt.endpoint(th, pos, true), dAccSReq,
		stridedHdr(&hdr, id, dst.Addr, int64(math.Float64bits(scale)), dstStrides, counts), data)
	rt.Stats[statAccStrided]++
	return h
}

// AccS is the blocking strided accumulate.
func (rt *Runtime) AccS(th *sim.Thread, local mem.Addr, localStrides []int,
	dst GlobalPtr, dstStrides []int, counts []int, scale float64) {
	t0 := th.Now()
	rt.NbAccS(th, local, localStrides, dst, dstStrides, counts, scale).Wait(th)
	rt.obsOp(opAccS, patchBytes(counts), th.Now()-t0)
}

// --- strided protocol handlers ---

func (rt *Runtime) dispatchPutSReq(_ *sim.Thread, x *pami.Context, msg *pami.AMessage) (sim.Time, bool) {
	if rt.amSeen(msg.Src.Rank, msg.Hdr[0], 0) {
		x.Reply(msg.Src, dAck, msg.Hdr[:1], nil)
		return 0, false
	}
	return rt.copyCost(len(msg.Data)), true
}

func (rt *Runtime) completePutSReq(_ *sim.Thread, x *pami.Context, msg *pami.AMessage) {
	_, addr, _, l := decodeStridedHdr(msg.Hdr)
	strides, counts := l.slices()
	unpackPatch(rt.C.Space, addr, strides, counts, msg.Data)
	x.Reply(msg.Src, dAck, msg.Hdr[:1], nil)
}

func (rt *Runtime) dispatchGetSReq(_ *sim.Thread, _ *pami.Context, msg *pami.AMessage) (sim.Time, bool) {
	_, _, _, l := decodeStridedHdr(msg.Hdr)
	_, counts := l.slices()
	return rt.copyCost(patchBytes(counts)), true
}

func (rt *Runtime) completeGetSReq(_ *sim.Thread, x *pami.Context, msg *pami.AMessage) {
	_, addr, _, l := decodeStridedHdr(msg.Hdr)
	strides, counts := l.slices()
	data := packPatch(rt.C.Bufs(), rt.C.Space, addr, strides, counts)
	x.Reply(msg.Src, dGetSRep, msg.Hdr[:1], data)
}

// dispatchGetSRep takes the get off the pending table at dispatch, as
// every reply does, and carries it to the unpack after the copy's charge.
func (rt *Runtime) dispatchGetSRep(_ *sim.Thread, x *pami.Context, msg *pami.AMessage) (sim.Time, bool) {
	p := rt.unlinkPend(msg.Hdr[0])
	if p == nil {
		return 0, false // duplicate reply (fault mode only)
	}
	x.Carry(p)
	return rt.copyCost(len(msg.Data)), true
}

func (rt *Runtime) completeGetSRep(_ *sim.Thread, x *pami.Context, msg *pami.AMessage) {
	p := x.Carried().(*pendReq)
	strides, counts := p.layout.slices()
	unpackPatch(rt.C.Space, p.localAddr, strides, counts, msg.Data)
	p.comp.FinishOnce()
	rt.freePend(p)
}

func (rt *Runtime) dispatchAccSReq(_ *sim.Thread, x *pami.Context, msg *pami.AMessage) (sim.Time, bool) {
	if rt.amSeen(msg.Src.Rank, msg.Hdr[0], 0) {
		x.Reply(msg.Src, dAck, msg.Hdr[:1], nil)
		return 0, false
	}
	return rt.accCost(len(msg.Data)), true
}

func (rt *Runtime) completeAccSReq(_ *sim.Thread, x *pami.Context, msg *pami.AMessage) {
	_, addr, scaleBits, l := decodeStridedHdr(msg.Hdr)
	strides, counts := l.slices()
	scale := math.Float64frombits(uint64(scaleBits))
	pos := 0
	forEachChunk(counts, strides, strides, func(off, _ int) {
		mem.AddFloat64s(rt.C.Space.Bytes(addr+mem.Addr(off), counts[0]),
			msg.Data[pos:pos+counts[0]], scale)
		pos += counts[0]
	})
	x.Reply(msg.Src, dAck, msg.Hdr[:1], nil)
}

// --- generalized I/O vector interface ---

// VecSeg is one segment of a generalized I/O vector operation.
type VecSeg struct {
	Local  mem.Addr
	Remote mem.Addr
	N      int
}

// NbPutV puts every segment to rank; segments are issued as independent
// non-blocking contiguous transfers (ARMCI's vector interface trades the
// strided descriptor's compactness for full generality).
func (rt *Runtime) NbPutV(th *sim.Thread, rank int, segs []VecSeg) Handle {
	comps := make([]*sim.Completion, 0, len(segs))
	for _, s := range segs {
		h := rt.NbPut(th, s.Local, GlobalPtr{Rank: rank, Addr: s.Remote}, s.N)
		comps = append(comps, &h.s.comp)
	}
	return rt.vectorHandle(comps)
}

// NbGetV gets every segment from rank.
func (rt *Runtime) NbGetV(th *sim.Thread, rank int, segs []VecSeg) Handle {
	comps := make([]*sim.Completion, 0, len(segs))
	for _, s := range segs {
		h := rt.NbGet(th, GlobalPtr{Rank: rank, Addr: s.Remote}, s.Local, s.N)
		comps = append(comps, &h.s.comp)
	}
	return rt.vectorHandle(comps)
}

// vectorHandle is the Handle of a vector operation whose segments ended
// in comps. Neither its slot nor the segments' are ever released: the
// segments were never Waited on their own, and the list points into them.
func (rt *Runtime) vectorHandle(comps []*sim.Completion) Handle {
	rt.Stats[statVector]++
	return Handle{s: &opSlot{rt: rt, comps: comps}}
}
