package bits

import (
	"errors"
	"math/rand"
	"testing"
)

// refWriteUint is the bit-at-a-time WriteUint the byte-chunk version
// replaced: the same validation, then one WriteBit per bit, MSB first.
func refWriteUint(w *Writer, v uint64, width int) {
	if width < 0 || width > 64 {
		panic("bits: invalid width")
	}
	if width < 64 && v>>uint(width) != 0 {
		panic("bits: value does not fit")
	}
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(int(v >> uint(i) & 1))
	}
}

// refReadUint is the bit-at-a-time ReadUint: the same up-front checks (a
// failed read consumes nothing), then one ReadBit per bit.
func refReadUint(r *Reader, width int) (uint64, error) {
	if width < 0 || width > 64 || r.Remaining() < width {
		return 0, errors.New("bits: bad width or short read")
	}
	var v uint64
	for i := 0; i < width; i++ {
		b, _ := r.ReadBit()
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestUintCodecMatchesBitLoop checks the byte-chunk WriteUint and ReadUint
// against the bit loops at every start offset 0..7 within a byte and every
// width -1..65: the same bits written (and the same bits after them), the
// same value and cursor on read, and the same panics and errors.
func TestUintCodecMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for off := 0; off < 8; off++ {
		for width := -1; width <= 65; width++ {
			vals := []uint64{0, ^uint64(0), 0xAAAAAAAAAAAAAAAA, rng.Uint64(), rng.Uint64()}
			if width >= 0 && width < 64 {
				vals = append(vals, 1<<uint(width)) // one bit too wide
				for i := range vals[:4] {
					vals[i] &= 1<<uint(width) - 1 // fits
				}
			}
			for _, v := range vals {
				var got, want Writer
				for i := 0; i < off; i++ {
					got.WriteBit(i & 1)
					want.WriteBit(i & 1)
				}
				gotPanic := panics(func() { got.WriteUint(v, width) })
				wantPanic := panics(func() { refWriteUint(&want, v, width) })
				if gotPanic != wantPanic {
					t.Fatalf("off=%d width=%d v=%#x: WriteUint panics=%v, bit loop panics=%v", off, width, v, gotPanic, wantPanic)
				}
				if gotPanic {
					continue
				}
				got.WriteUint(5, 3)
				want.WriteUint(5, 3)
				gs, ws := got.String(), want.String()
				if !gs.Equal(ws) {
					t.Fatalf("off=%d width=%d v=%#x: wrote %s, bit loop wrote %s", off, width, v, gs, ws)
				}
				r1, r2 := NewReader(gs), NewReader(ws)
				for i := 0; i < off; i++ {
					r1.ReadBit()
					r2.ReadBit()
				}
				g, err := r1.ReadUint(width)
				if err != nil || g != v {
					t.Fatalf("off=%d width=%d: read %#x, %v; wrote %#x", off, width, g, err, v)
				}
				if x, _ := refReadUint(r2, width); x != g || r1.Remaining() != r2.Remaining() {
					t.Fatalf("off=%d width=%d: read %#x leaving %d, bit loop %#x leaving %d", off, width, g, r1.Remaining(), x, r2.Remaining())
				}
			}

			// Reads that must fail: a bad width, or one bit more than is
			// left. Neither may move the cursor.
			var w Writer
			for i := 0; i < off+max(width, 0)-1; i++ {
				w.WriteBit(1)
			}
			s := w.String()
			r1, r2 := NewReader(s), NewReader(s)
			for i := 0; i < off && i < s.Len(); i++ {
				r1.ReadBit()
				r2.ReadBit()
			}
			_, err := r1.ReadUint(width)
			_, refErr := refReadUint(r2, width)
			if (err == nil) != (refErr == nil) || r1.Remaining() != r2.Remaining() {
				t.Fatalf("off=%d width=%d short read: err=%v leaving %d, bit loop err=%v leaving %d", off, width, err, r1.Remaining(), refErr, r2.Remaining())
			}
		}
	}
}
