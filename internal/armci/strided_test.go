package armci

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestChunkIteratorCoversExactly checks the core strided invariant: the
// chunk iterator visits every byte of the patch exactly once, within the
// declared extent.
func TestChunkIteratorCoversExactly(t *testing.T) {
	f := func(c0u, c1u, c2u, s1u, s2u uint8) bool {
		c0 := int(c0u%64) + 1
		c1 := int(c1u%5) + 1
		c2 := int(c2u%4) + 1
		s1 := c0 + int(s1u%32)
		s2 := s1*c1 + int(s2u%32)
		counts := []int{c0, c1, c2}
		strides := []int{s1, s2}

		extent := patchExtent(strides, counts)
		seen := make([]int, extent)
		chunks := 0
		forEachChunk(counts, strides, strides, func(off, off2 int) {
			if off != off2 {
				t.Fatalf("mismatched offsets for identical strides")
			}
			chunks++
			for b := off; b < off+c0; b++ {
				seen[b]++
			}
		})
		if chunks != numChunks(counts) {
			return false
		}
		covered := 0
		for _, v := range seen {
			if v > 1 {
				return false // overlap
			}
			covered += v
		}
		return covered == patchBytes(counts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackRoundTripProperty(t *testing.T) {
	_, err := Run(Config{Procs: 1, ProcsPerNode: 1}, func(th *sim.Thread, rt *Runtime) {
		f := func(c0u, c1u, s1u, seed uint8) bool {
			c0 := int(c0u%48) + 1
			c1 := int(c1u%6) + 1
			s1 := c0 + int(s1u%16)
			counts := []int{c0, c1}
			strides := []int{s1}
			extent := patchExtent(strides, counts)

			src := rt.Space().Alloc(extent)
			dst := rt.Space().Alloc(extent)
			rt.Space().CopyIn(src, pattern(extent, seed))

			data := packPatch(rt.C.Bufs(), rt.Space(), src, strides, counts)
			if len(data) != patchBytes(counts) {
				return false
			}
			unpackPatch(rt.Space(), dst, strides, counts, data)
			// Compare only patch bytes; gap bytes must stay zero in dst.
			ok := true
			forEachChunk(counts, strides, strides, func(off, _ int) {
				a := rt.Space().Bytes(src+mem.Addr(off), c0)
				b := rt.Space().Bytes(dst+mem.Addr(off), c0)
				for i := range a {
					if a[i] != b[i] {
						ok = false
					}
				}
			})
			rt.Space().Free(src)
			rt.Space().Free(dst)
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStridedRandomRoundTripsThroughNetwork(t *testing.T) {
	// Randomized patches pushed through the real protocols (both RDMA and
	// typed paths, selected by chunk size) and read back.
	_, err := Run(atCfg(2), func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 1<<16)
		if rt.Rank != 0 {
			return
		}
		rng := sim.NewRNG(77)
		for trial := 0; trial < 12; trial++ {
			c0 := rng.Intn(300) + 8
			c1 := rng.Intn(6) + 1
			localStride := c0 + rng.Intn(64)
			remoteStride := c0 + rng.Intn(64)
			counts := []int{c0, c1}
			extL := patchExtent([]int{localStride}, counts)
			extR := patchExtent([]int{remoteStride}, counts)
			if extR > 1<<16 {
				continue
			}
			local := rt.LocalAlloc(th, extL)
			back := rt.LocalAlloc(th, extL)
			want := pattern(extL, byte(trial))
			rt.Space().CopyIn(local, want)

			rt.PutS(th, local, []int{localStride}, a.At(1), []int{remoteStride}, counts)
			rt.Fence(th, 1)
			rt.GetS(th, a.At(1), []int{remoteStride}, back, []int{localStride}, counts)

			forEachChunk(counts, []int{localStride}, []int{localStride}, func(off, _ int) {
				g := rt.Space().Bytes(back+mem.Addr(off), c0)
				w := want[off : off+c0]
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("trial %d (c0=%d c1=%d): byte %d mismatch", trial, c0, c1, i)
					}
				}
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStridedOpAllocBudget pins the heap objects one strided operation
// costs the host in steady state, set up like TestBlockingOpAllocBudget:
// none. A 3 × 3 float64 patch has 24-byte chunks, under TypedThreshold, so
// it takes the typed/packed path: descriptor, header and chunk index are
// on the stack; the Handle is a value whose slot, holding the completion,
// goes back at Wait; the pending request, the packed payload and both
// flights are recycled. The put fences so that its ack lands inside the
// operation. A patch of 64-byte chunks is a list of RDMA puts: the OpSet
// lives in the slot and every put flight goes back to its pool. Skipped
// under the race detector, which retires slots instead of reusing them.
func TestStridedOpAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("operation slots are retired, not reused, under the race detector")
	}
	const ld = 8 * mem.Float64Size // the remote block's leading dimension
	_, err := Run(Config{Procs: 2, ProcsPerNode: 1, AsyncThread: true}, func(th *sim.Thread, rt *Runtime) {
		a := rt.Malloc(th, 8*ld)
		if rt.Rank != 0 {
			return
		}
		local := rt.LocalAlloc(th, 8*ld)
		str := []int{ld}
		tile := []int{3 * mem.Float64Size, 3}
		rows := []int{8 * mem.Float64Size, 3}
		for _, tc := range []struct {
			name string
			want float64
			op   func()
		}{
			{"GetS", 0, func() { rt.NbGetS(th, a.At(1), str, local, str, tile).Wait(th) }},
			{"AccS", 0, func() { rt.NbAccS(th, local, str, a.At(1), str, tile, 1).Wait(th) }},
			{"PutS", 0, func() { rt.NbPutS(th, local, str, a.At(1), str, tile).Wait(th); rt.Fence(th, 1) }},
			{"PutS/rdma", 0, func() { rt.NbPutS(th, local, str, a.At(1), str, rows).Wait(th) }},
		} {
			tc.op() // warm-up: endpoints, region descriptors, pend table and free lists
			got := testing.AllocsPerRun(100, tc.op)
			t.Logf("%s: %v heap objects per strided call", tc.name, got)
			if got != tc.want {
				t.Errorf("%s: %v heap objects per strided call, want %v", tc.name, got, tc.want)
			}
		}
		if rt.Stats.Get("strided.typed") == 0 || rt.Stats.Get("strided.chunks") == 0 {
			t.Errorf("typed %d, chunk-listed %d: both paths must have run",
				rt.Stats.Get("strided.typed"), rt.Stats.Get("strided.chunks"))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzStridedPatch generates descriptors of 0–maxStrideLevels levels
// whose strides are no shorter than the chunk. The wire header must
// decode to the same descriptor, packing then unpacking into a second
// Space must equal a naive byte-by-byte copy of every chunk, and the same
// descriptor padded to one level past the limit must be refused by name.
func FuzzStridedPatch(f *testing.F) {
	f.Add(uint8(1), uint8(23), uint64(0x2), int64(7), uint64(4096), int64(0)) // a 3 × 3 float64 tile
	f.Add(uint8(0), uint8(5), uint64(0), int64(1), uint64(64), int64(-1))
	f.Add(uint8(3), uint8(7), uint64(7<<26|3<<21|5<<16|0b01_10_01), int64(3), uint64(8), int64(2)) // counts 2, 3, 2
	f.Add(uint8(8), uint8(3), uint64(0x5555), int64(1<<40), uint64(1<<32), int64(1<<62))           // 8 levels of 2, overlapping
	var stocks mem.Stocks
	stocks.Init()
	var bufs mem.Classes
	bufs.Link(&stocks)
	f.Fuzz(func(t *testing.T, levels, chunk uint8, shape uint64, id int64, addr uint64, extra int64) {
		n := int(levels) % (maxStrideLevels + 1)
		counts := []int{int(chunk)%16 + 1}
		var strides []int
		for i := 0; i < n; i++ {
			counts = append(counts, int(shape>>(2*i)&3)%3+1)
			strides = append(strides, counts[0]+int(shape>>(16+5*i)&31))
		}
		validateStrided("fuzz", strides, counts)

		var buf [stridedHdrMax]int64
		gotID, gotAddr, gotExtra, l := decodeStridedHdr(stridedHdr(&buf, id, mem.Addr(addr), extra, strides, counts))
		gotStrides, gotCounts := l.slices()
		if gotID != id || gotAddr != mem.Addr(addr) || gotExtra != extra ||
			!slices.Equal(gotStrides, strides) || !slices.Equal(gotCounts, counts) {
			t.Fatalf("header round trip: (%d %d %d %v %v), want (%d %d %d %v %v)",
				gotID, gotAddr, gotExtra, gotStrides, gotCounts, id, addr, extra, strides, counts)
		}

		ext := patchExtent(strides, counts)
		src, dst := mem.NewSpace(), mem.NewSpace()
		a, b := src.Alloc(ext), dst.Alloc(ext)
		src.CopyIn(a, pattern(ext, chunk))
		data := packPatch(&bufs, src, a, strides, counts)
		if len(data) != patchBytes(counts) {
			t.Fatalf("packed %d bytes, want %d", len(data), patchBytes(counts))
		}
		unpackPatch(dst, b, strides, counts, data)
		want, from := make([]byte, ext), src.Bytes(a, ext)
		for k := 0; k < numChunks(counts); k++ {
			off, r := 0, k
			for i, s := range strides { // first level fastest, as forEachChunk
				off += r % counts[i+1] * s
				r /= counts[i+1]
			}
			for j := off; j < off+counts[0]; j++ {
				want[j] = from[j]
			}
		}
		if got := dst.Bytes(b, ext); !bytes.Equal(got, want) {
			t.Fatalf("counts %v strides %v: unpacked patch differs from a per-element copy", counts, strides)
		}

		for len(strides) <= maxStrideLevels {
			counts = append(counts, 1)
			strides = append(strides, counts[0])
		}
		msg := func() (msg any) {
			defer func() { msg = recover() }()
			validateStrided("fuzz", strides, counts)
			return nil
		}()
		if s, _ := msg.(string); !strings.Contains(s, "ARMCI_MAX_STRIDE_LEVEL (8)") {
			t.Fatalf("%d stride levels: panic %v, want one naming the limit", len(strides), msg)
		}
	})
}

func TestStridedValidation(t *testing.T) {
	cases := []func(rt *Runtime, th *sim.Thread){
		func(rt *Runtime, th *sim.Thread) { // stride below chunk
			rt.PutS(th, 64, []int{8}, GlobalPtr{0, 64}, []int{8}, []int{16, 2})
		},
		func(rt *Runtime, th *sim.Thread) { // bad stride count
			rt.GetS(th, GlobalPtr{0, 64}, []int{32, 32}, 64, []int{32, 32}, []int{16, 2})
		},
		func(rt *Runtime, th *sim.Thread) { // empty counts
			rt.PutS(th, 64, nil, GlobalPtr{0, 64}, nil, nil)
		},
		func(rt *Runtime, th *sim.Thread) { // unaligned acc
			rt.AccS(th, 64, []int{16}, GlobalPtr{0, 64}, []int{16}, []int{12, 2}, 1)
		},
	}
	for i, bad := range cases {
		i, bad := i, bad
		_, err := Run(Config{Procs: 1, ProcsPerNode: 1}, func(th *sim.Thread, rt *Runtime) {
			rt.Space().Alloc(4096)
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			bad(rt, th)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
