package core

import (
	"bytes"
	"fmt"
	"testing"

	"refereenet/internal/bits"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
	"refereenet/internal/sim"
)

// Native fuzz targets: the referee parses attacker-controlled bitstrings,
// so Reconstruct must never panic, whatever arrives. Run with
// `go test -fuzz=FuzzDegeneracyReconstruct ./internal/core` for a real
// campaign; the seed corpus below runs on every `go test`.

func bytesToMessages(data []byte, n, msgBits int) []bits.String {
	msgs := make([]bits.String, n)
	var w bits.Writer
	bit := 0
	for i := 0; i < n; i++ {
		w = bits.Writer{}
		for j := 0; j < msgBits; j++ {
			idx := bit / 8
			var b int
			if idx < len(data) {
				b = int(data[idx]>>(uint(bit)&7)) & 1
			}
			w.WriteBit(b)
			bit++
		}
		msgs[i] = w.String()
	}
	return msgs
}

func FuzzDegeneracyReconstruct(f *testing.F) {
	const n, k = 6, 2
	p := &DegeneracyProtocol{K: k}
	// Seed with a genuine transcript and a few mutations.
	g := gen.KTree(gen.NewRand(1), n, k)
	tr := sim.LocalPhase(g, p, sim.Sequential)
	var seed []byte
	for _, m := range tr.Messages {
		seed = append(seed, m.Bytes()...)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0xde, 0xad, 0xbe, 0xef})
	msgBits := p.MessageBits(n)
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := bytesToMessages(data, n, msgBits)
		h, err := p.Reconstruct(n, msgs) // must not panic
		if err == nil {
			// Acceptance implies exact codeword (the integrity check).
			reenc := sim.LocalPhase(h, p, sim.Sequential)
			for i := range msgs {
				if !msgs[i].Equal(reenc.Messages[i]) {
					t.Fatal("accepted a non-codeword")
				}
			}
		}
	})
}

func FuzzForestReconstruct(f *testing.F) {
	const n = 7
	p := ForestProtocol{}
	g := gen.RandomTree(gen.NewRand(2), n)
	tr := sim.LocalPhase(g, p, sim.Sequential)
	var seed []byte
	for _, m := range tr.Messages {
		seed = append(seed, m.Bytes()...)
	}
	f.Add(seed)
	f.Add([]byte{0x01, 0x02, 0x03})
	msgBits := p.MessageBits(n)
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := bytesToMessages(data, n, msgBits)
		h, err := p.Reconstruct(n, msgs)
		if err == nil {
			reenc := sim.LocalPhase(h, p, sim.Sequential)
			for i := range msgs {
				if !msgs[i].Equal(reenc.Messages[i]) {
					t.Fatal("accepted a non-codeword")
				}
			}
		}
	})
}

func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{0x80, 0x01}, 2)
	f.Add([]byte{}, 1)
	f.Add([]byte{0xff, 0xff, 0xff}, 3)
	f.Fuzz(func(t *testing.T, data []byte, count int) {
		if count < 0 || count > 8 {
			return
		}
		var w bits.Writer
		for _, b := range data {
			w.WriteUint(uint64(b), 8)
		}
		// Must not panic, error is fine.
		_, _ = bits.DecodeParts(w.String(), count)
	})
}

// refDecodeRows is the bit-at-a-time row decoder the word-wise decodeRows
// replaced, kept here only as the differential oracle of FuzzOracleDecide:
// one Bit call per matrix entry, one AddEdge/HasEdge per edge.
func refDecodeRows(n int, msgs []bits.String) (*graph.Graph, error) {
	if len(msgs) != n {
		return nil, fmt.Errorf("core: %d messages for n=%d", len(msgs), n)
	}
	g := graph.New(n)
	for i, m := range msgs {
		if m.Len() != n {
			return nil, fmt.Errorf("core: row %d has %d bits, want %d", i+1, m.Len(), n)
		}
		for j := 1; j <= n; j++ {
			if m.Bit(j-1) == 1 {
				if j == i+1 {
					return nil, fmt.Errorf("core: row %d has a self-loop", i+1)
				}
				if j > i+1 {
					g.AddEdge(i+1, j)
				} else if !g.HasEdge(j, i+1) {
					return nil, fmt.Errorf("core: rows %d and %d disagree on edge", i+1, j)
				}
			} else if j < i+1 && g.HasEdge(j, i+1) {
				return nil, fmt.Errorf("core: rows %d and %d disagree on edge", i+1, j)
			}
		}
	}
	return g, nil
}

// oracleRows builds the fuzz input's n rows: a symmetric graph whose upper
// triangle is read from data, with matrix entry flip-1 (row-major, n×n)
// inverted when flip > 0 — a self-loop on the diagonal, an asymmetric pair
// off it. It also returns the graph the unflipped rows encode.
func oracleRows(n int, flip uint16, data []byte) ([]bits.String, *graph.Graph) {
	g := graph.New(n)
	bit := 0
	for u := 1; u <= n; u++ {
		for v := u + 1; v <= n; v++ {
			if bit/8 < len(data) && data[bit/8]>>(bit%8)&1 == 1 {
				g.AddEdge(u, v)
			}
			bit++
		}
	}
	fu, fv := -1, -1
	if flip > 0 {
		idx := int(flip-1) % (n * n)
		fu, fv = idx/n+1, idx%n+1
	}
	msgs := make([]bits.String, n)
	for u := 1; u <= n; u++ {
		var w bits.Writer
		for v := 1; v <= n; v++ {
			b := u != v && g.HasEdge(u, v)
			if u == fu && v == fv {
				b = !b
			}
			if b {
				w.WriteBit(1)
			} else {
				w.WriteBit(0)
			}
		}
		msgs[u-1] = w.String()
	}
	return msgs, g
}

// FuzzOracleDecide checks the word-wise oracle referee against
// refDecodeRows on arbitrary rows for n in [1, 70] — across the one-word
// and two-word row layouts: it never panics, accepts exactly when the
// reference decodes and the predicate holds, and returns the reference's
// error, message for message. Malformed transcripts come from a flipped
// matrix entry (self-loop or asymmetric pair), a row one bit short or long,
// and a message count off by extra. One decider serves every input, so the
// recycled decode graph also crosses changes of n.
func FuzzOracleDecide(f *testing.F) {
	f.Add(uint8(8), int8(0), uint8(0), uint16(0), []byte{0xb5, 0x3c, 0x91, 0x4e, 0x07})       // n=9, clean
	f.Add(uint8(8), int8(0), uint8(0), uint16(1+4*9+4), []byte{0xff, 0xff, 0xff, 0xff, 0xff}) // self-loop at 5
	f.Add(uint8(8), int8(0), uint8(0), uint16(1+6*9+2), []byte{0x00, 0x00, 0x00, 0x00})       // row 7 claims 3 alone
	f.Add(uint8(8), int8(0), uint8(0), uint16(1+2*9+6), []byte{0x00, 0x00, 0x00, 0x00})       // row 3 claims 7 alone
	f.Add(uint8(8), int8(0), uint8(5), uint16(0), []byte{0x5a, 0x5a, 0x5a, 0x5a, 0x5a})       // row 3 a bit short
	f.Add(uint8(8), int8(-1), uint8(0), uint16(0), []byte{0x12, 0x34})                        // 8 messages for n=9
	f.Add(uint8(69), int8(0), uint8(0), uint16(0), bytes.Repeat([]byte{0xf7}, 300))           // n=70, dense
	f.Add(uint8(64), int8(0), uint8(0), uint16(1+64*65+9), bytes.Repeat([]byte{0x21}, 300))   // n=65, row 65 asymmetric in word 0
	f.Add(uint8(0), int8(0), uint8(0), uint16(1), []byte{})                                   // n=1, self-loop
	o := NewDiameterOracle(3)
	f.Fuzz(func(t *testing.T, nb uint8, extra int8, short uint8, flip uint16, data []byte) {
		n := 1 + int(nb)%70
		msgs, g := oracleRows(n, flip, data)
		if flip == 0 {
			for v := 1; v <= n; v++ {
				if m := o.LocalMessage(n, v, g.Neighbors(v)); !m.Equal(msgs[v-1]) {
					t.Fatalf("n=%d: LocalMessage(%d) = %s, bit loop %s", n, v, m, msgs[v-1])
				}
			}
		}
		if short > 0 {
			i := int(short>>1) % n
			var w bits.Writer
			for j := 0; j < n-1; j++ {
				w.WriteBit(msgs[i].Bit(j))
			}
			if short&1 == 0 { // one bit long instead
				w.WriteBit(msgs[i].Bit(n - 1))
				w.WriteBit(0)
			}
			msgs[i] = w.String()
		}
		switch c := n + int(extra)%4; {
		case c < n:
			msgs = msgs[:max(c, 0)]
		case c > n:
			for len(msgs) < c {
				msgs = append(msgs, msgs[0])
			}
		}

		ref, refErr := refDecodeRows(n, msgs)
		got, err := o.Decide(n, msgs)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("n=%d: Decide error %v, reference %v", n, err, refErr)
		}
		if refErr == nil && got != ref.DiameterAtMost(3) {
			t.Fatalf("n=%d: Decide = %v, reference graph %v", n, got, ref)
		}
		h, err := OracleReconstructor{}.Reconstruct(n, msgs)
		if (err == nil) != (refErr == nil) || refErr == nil && !h.Equal(ref) {
			t.Fatalf("n=%d: Reconstruct = %v, %v; reference %v, %v", n, h, err, ref, refErr)
		}
	})
}
