// Package bits implements bit-exact message encoding for the referee model.
//
// The paper's frugality condition bounds the number of *bits* each node may
// send, so messages in this repository are genuine bitstrings rather than Go
// values. A String is an immutable sequence of bits; Writer and Reader
// convert between structured data and bitstrings using fixed-width words,
// self-delimiting Elias codes and length-prefixed big integers.
package bits

import (
	"fmt"
	"math/big"
	"strings"
)

// String is an immutable bit string. The zero value is the empty string.
type String struct {
	data []byte // bit i lives in data[i/8], MSB first
	n    int    // length in bits
}

// Len returns the length of the string in bits.
func (s String) Len() int { return s.n }

// Bit returns bit i (0 or 1). It panics if i is out of range.
func (s String) Bit(i int) int {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bits: index %d out of range [0,%d)", i, s.n))
	}
	return int(s.data[i>>3]>>(7-uint(i&7))) & 1
}

// Equal reports whether two bit strings are identical (same length, same bits).
func (s String) Equal(t String) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.data {
		if s.data[i] != t.data[i] {
			return false
		}
	}
	return true
}

// Bytes returns a copy of the underlying bytes, zero-padded to a byte
// boundary. Useful for hashing.
func (s String) Bytes() []byte {
	out := make([]byte, len(s.data))
	copy(out, s.data)
	return out
}

// String renders the bits as '0'/'1' characters, for debugging.
func (s String) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		b.WriteByte('0' + byte(s.Bit(i)))
	}
	return b.String()
}

// Concat returns the concatenation of the given bit strings.
func Concat(parts ...String) String {
	var w Writer
	for _, p := range parts {
		for i := 0; i < p.n; i++ {
			w.WriteBit(p.Bit(i))
		}
	}
	return w.String()
}

// FromBits builds a String from a sequence of 0/1 ints (test helper).
func FromBits(vals ...int) String {
	var w Writer
	for _, v := range vals {
		w.WriteBit(v)
	}
	return w.String()
}

// Writer appends bits to a growing string. The zero value is ready to use.
type Writer struct {
	data []byte
	n    int
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.n }

// WriteBit appends a single bit (any nonzero v counts as 1).
func (w *Writer) WriteBit(v int) {
	if w.n&7 == 0 {
		w.data = append(w.data, 0)
	}
	if v != 0 {
		w.data[w.n>>3] |= 1 << (7 - uint(w.n&7))
	}
	w.n++
}

// WriteUint appends v as exactly width bits, most significant bit first.
// It panics if v does not fit in width bits or width is out of [0,64].
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bits: invalid width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bits: value %d does not fit in %d bits", v, width))
	}
	if width == 0 {
		return
	}
	// Left-align v, OR its head into the partial last byte, then append the
	// rest a byte at a time: at most 9 steps for a 64-bit value.
	x := v << uint(64-width)
	if off := uint(w.n & 7); off != 0 {
		w.data[len(w.data)-1] |= byte(x >> (56 + off))
		x <<= 8 - off
	}
	w.n += width
	for len(w.data) < (w.n+7)>>3 {
		w.data = append(w.data, byte(x>>56))
		x <<= 8
	}
}

// WriteEliasGamma appends the Elias gamma code of v ≥ 1: the bit length of v
// minus one in unary (zeros), then v in binary. Self-delimiting.
func (w *Writer) WriteEliasGamma(v uint64) {
	if v == 0 {
		panic("bits: Elias gamma requires v >= 1")
	}
	nbits := bitLen(v)
	for i := 0; i < nbits-1; i++ {
		w.WriteBit(0)
	}
	w.WriteUint(v, nbits)
}

// WriteEliasDelta appends the Elias delta code of v ≥ 1: gamma code of the
// bit length, then the value without its leading 1. Shorter than gamma for
// large values; self-delimiting.
func (w *Writer) WriteEliasDelta(v uint64) {
	if v == 0 {
		panic("bits: Elias delta requires v >= 1")
	}
	nbits := bitLen(v)
	w.WriteEliasGamma(uint64(nbits))
	if nbits > 1 {
		w.WriteUint(v&((1<<uint(nbits-1))-1), nbits-1)
	}
}

// WriteBigInt appends a non-negative big integer, self-delimited: Elias gamma
// of (bit length + 1), then the raw magnitude bits. Zero is encoded as
// length marker 1 with no payload.
func (w *Writer) WriteBigInt(v *big.Int) {
	if v.Sign() < 0 {
		panic("bits: WriteBigInt requires v >= 0")
	}
	nbits := v.BitLen()
	w.WriteEliasGamma(uint64(nbits) + 1)
	for i := nbits - 1; i >= 0; i-- {
		w.WriteBit(int(v.Bit(i)))
	}
}

// WriteBigIntWidth appends a non-negative big integer as exactly width bits.
// It panics if the value does not fit.
func (w *Writer) WriteBigIntWidth(v *big.Int, width int) {
	if v.Sign() < 0 {
		panic("bits: WriteBigIntWidth requires v >= 0")
	}
	if v.BitLen() > width {
		panic(fmt.Sprintf("bits: value of %d bits does not fit in %d", v.BitLen(), width))
	}
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(int(v.Bit(i)))
	}
}

// WriteLimbsWidth appends a non-negative integer, given as little-endian
// 64-bit limbs (limbs[0] holds bits 0..63), as exactly width bits, most
// significant bit first. It is the fixed-width big-integer encoding of
// WriteBigIntWidth for callers that keep their values in machine words (the
// allocation-free power-sum accumulator in internal/numeric); the two write
// identical bit strings for identical values. It panics if the value does
// not fit in width bits.
func (w *Writer) WriteLimbsWidth(limbs []uint64, width int) {
	if width < 0 {
		panic(fmt.Sprintf("bits: invalid width %d", width))
	}
	for i, l := range limbs {
		excess := 64*i - width // bits of limb i at or above width
		switch {
		case excess >= 0:
			if l != 0 {
				panic(fmt.Sprintf("bits: limb value does not fit in %d bits", width))
			}
		case excess > -64:
			if l>>uint(width-64*i) != 0 {
				panic(fmt.Sprintf("bits: limb value does not fit in %d bits", width))
			}
		}
	}
	for i := width - 1; i >= 0; i-- {
		bit := 0
		if i>>6 < len(limbs) {
			bit = int(limbs[i>>6] >> (uint(i) & 63) & 1)
		}
		w.WriteBit(bit)
	}
}

// String returns the bits written so far as an immutable String.
func (w *Writer) String() String {
	data := make([]byte, len(w.data))
	copy(data, w.data)
	return String{data: data, n: w.n}
}

// Reset clears the writer for reuse, keeping its buffer capacity. Together
// with AppendTo it lets a hot loop (the batch engine's local phase) emit one
// String per node with zero steady-state allocations.
func (w *Writer) Reset() {
	w.data = w.data[:0]
	w.n = 0
}

// AppendTo appends the written bytes to arena and returns the bits as a
// String aliasing the appended region, plus the extended arena. The returned
// String stays valid as long as its region of the arena is not overwritten —
// callers reusing an arena (arena = arena[:0]) invalidate every String
// produced from it, which is the batch engine's per-graph transcript
// contract. The writer itself may be Reset and reused immediately.
func (w *Writer) AppendTo(arena []byte) (String, []byte) {
	start := len(arena)
	arena = append(arena, w.data...)
	return String{data: arena[start:len(arena):len(arena)], n: w.n}, arena
}

// Reader consumes a String from the front. Reads past the end return an
// error rather than panicking: a referee must be able to reject malformed
// messages gracefully.
type Reader struct {
	s   String
	pos int
}

// NewReader returns a Reader over s starting at bit 0.
func NewReader(s String) *Reader { return &Reader{s: s} }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.s.n - r.pos }

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (int, error) {
	if r.pos >= r.s.n {
		return 0, fmt.Errorf("bits: read past end (len %d)", r.s.n)
	}
	b := r.s.Bit(r.pos)
	r.pos++
	return b, nil
}

// ReadUint reads exactly width bits as an unsigned integer, MSB first.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bits: invalid width %d", width)
	}
	if r.Remaining() < width {
		return 0, fmt.Errorf("bits: need %d bits, have %d", width, r.Remaining())
	}
	if width == 0 {
		return 0, nil
	}
	// Gather the (at most 9) bytes the field spans into one left-aligned
	// word, mirroring WriteUint.
	first, off := r.pos>>3, uint(r.pos&7)
	r.pos += width
	last := (r.pos - 1) >> 3
	var x uint64
	for j := first; j <= last && j < first+8; j++ {
		x |= uint64(r.s.data[j]) << uint(56-8*(j-first))
	}
	x <<= off
	if last == first+8 {
		x |= uint64(r.s.data[last]) >> (8 - off)
	}
	return x >> uint(64-width), nil
}

// ReadEliasGamma reads an Elias gamma encoded value ≥ 1.
func (r *Reader) ReadEliasGamma() (uint64, error) {
	zeros := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 64 {
			return 0, fmt.Errorf("bits: Elias gamma prefix too long")
		}
	}
	rest, err := r.ReadUint(zeros)
	if err != nil {
		return 0, err
	}
	return 1<<uint(zeros) | rest, nil
}

// ReadEliasDelta reads an Elias delta encoded value ≥ 1.
func (r *Reader) ReadEliasDelta() (uint64, error) {
	nbits, err := r.ReadEliasGamma()
	if err != nil {
		return 0, err
	}
	if nbits == 0 || nbits > 64 {
		return 0, fmt.Errorf("bits: Elias delta length %d out of range", nbits)
	}
	rest, err := r.ReadUint(int(nbits) - 1)
	if err != nil {
		return 0, err
	}
	return 1<<(nbits-1) | rest, nil
}

// ReadBigInt reads a big integer written by WriteBigInt.
func (r *Reader) ReadBigInt() (*big.Int, error) {
	lp, err := r.ReadEliasGamma()
	if err != nil {
		return nil, err
	}
	nbits := int(lp) - 1
	if nbits < 0 || nbits > r.Remaining() {
		return nil, fmt.Errorf("bits: big int length %d invalid", nbits)
	}
	v := new(big.Int)
	for i := 0; i < nbits; i++ {
		b, _ := r.ReadBit()
		v.Lsh(v, 1)
		if b == 1 {
			v.SetBit(v, 0, 1)
		}
	}
	return v, nil
}

// ReadBigIntWidth reads exactly width bits as a non-negative big integer.
func (r *Reader) ReadBigIntWidth(width int) (*big.Int, error) {
	if width < 0 || r.Remaining() < width {
		return nil, fmt.Errorf("bits: need %d bits, have %d", width, r.Remaining())
	}
	v := new(big.Int)
	for i := 0; i < width; i++ {
		b, _ := r.ReadBit()
		v.Lsh(v, 1)
		if b == 1 {
			v.SetBit(v, 0, 1)
		}
	}
	return v, nil
}

// bitLen returns the number of bits needed to represent v ≥ 1.
func bitLen(v uint64) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

// Width returns the number of bits needed to encode values in [0, max],
// i.e. the width both sides of a protocol agree on when max is public.
func Width(max int) int {
	if max < 0 {
		panic("bits: negative max")
	}
	if max == 0 {
		return 0
	}
	return bitLen(uint64(max))
}
