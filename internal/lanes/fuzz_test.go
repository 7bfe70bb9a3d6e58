package lanes

import "testing"

// FuzzLaneBlock fuzzes FillGray over random (n, lo, count) windows:
//   - transpose → untranspose is the identity (slot j yields gray(lo+j)),
//   - the incremental Gray-step lane update equals a rebuild from scratch,
//   - FillMasks over the same Gray-consecutive masks equals FillGray (the
//     gather transpose is a generalization, not a different layout),
//   - ragged tail masks leak no bits from dead lanes, in the edge words or
//     in any kernel output,
//   - the kernel constructors' per-lane view reports the live mask, an
//     accept word inside it, n·width(n) bits per graph and the decide flag.
func FuzzLaneBlock(f *testing.F) {
	f.Add(uint8(5), uint64(0), uint8(64))
	f.Add(uint8(9), uint64(1<<32-13), uint8(64))
	f.Add(uint8(9), uint64(1<<36-17), uint8(17))
	f.Add(uint8(1), uint64(0), uint8(1))
	f.Add(uint8(6), uint64(31337), uint8(7))
	f.Fuzz(func(t *testing.T, rawN uint8, rawLo uint64, rawCount uint8) {
		n := 1 + int(rawN)%9
		total := uint64(1) << uint(n*(n-1)/2)
		count := 1 + int(rawCount)%Lanes
		if uint64(count) > total {
			count = int(total)
		}
		lo := rawLo % (total - uint64(count) + 1)

		var b Block
		b.FillGray(n, lo, count)

		want := naiveLanes(n, lo, count)
		live := b.LiveMask()
		for e := 0; e < b.Edges(); e++ {
			if b.EdgeLane(e) != want[e] {
				t.Fatalf("n=%d lo=%d count=%d: incremental lane %d = %#x, scratch rebuild %#x",
					n, lo, count, e, b.EdgeLane(e), want[e])
			}
			if b.EdgeLane(e)&^live != 0 {
				t.Fatalf("n=%d lo=%d count=%d: lane %d leaks dead-slot bits %#x",
					n, lo, count, e, b.EdgeLane(e)&^live)
			}
		}
		for j := 0; j < count; j++ {
			r := lo + uint64(j)
			if got, want := b.UntransposeMask(j), r^(r>>1); got != want {
				t.Fatalf("n=%d lo=%d count=%d: slot %d round-trips to %#x, want gray(%d)=%#x",
					n, lo, count, j, got, r, want)
			}
		}
		for _, k := range []struct {
			name string
			bits uint64
		}{
			{"triangles", b.Triangles()},
			{"squares", b.Squares()},
			{"connected", b.Connected()},
			{"forests", b.Forests()},
			{"parity", b.DegreeParity(1)},
		} {
			if k.bits&^live != 0 {
				t.Fatalf("n=%d lo=%d count=%d: %s kernel sets dead-lane bits %#x",
					n, lo, count, k.name, k.bits&^live)
			}
		}

		// The gather fill over the same Gray-consecutive masks must rebuild
		// the identical block.
		masks := make([]uint64, count)
		for j := range masks {
			r := lo + uint64(j)
			masks[j] = r ^ (r >> 1)
		}
		var bm Block
		bm.FillMasks(n, masks)
		if bm.LiveMask() != live {
			t.Fatalf("n=%d lo=%d count=%d: gather live %#x, gray live %#x",
				n, lo, count, bm.LiveMask(), live)
		}
		for e := 0; e < b.Edges(); e++ {
			if bm.EdgeLane(e) != b.EdgeLane(e) {
				t.Fatalf("n=%d lo=%d count=%d: lane %d: gather %#x, gray %#x",
					n, lo, count, e, bm.EdgeLane(e), b.EdgeLane(e))
			}
		}

		// The kernel constructors' per-lane view: Live is the live mask,
		// Accept stays inside it, GraphBits is n·width(n), and Decided
		// follows the decide flag.
		for _, decide := range []bool{false, true} {
			var st BlockStats
			DecideKernel(func(n int) int { return n }, (*Block).Forests, decide)(&b, &st)
			if st.Live != live || st.Accept&^live != 0 ||
				st.GraphBits != uint64(n*n) || st.Decided != decide {
				t.Fatalf("n=%d lo=%d count=%d decide=%v: per-lane view %+v, live %#x",
					n, lo, count, decide, st, live)
			}
		}
	})
}
