package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"
)

// classTableDigests pins every class-table byte: the SHA-256 over
// (Mask, Weight) as little-endian uint64 pairs in table order. The canon
// source's class indices, and with them every canon plan fingerprint and
// manifest, hang on these exact tables.
var classTableDigests = []string{
	1: "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
	2: "97e2b8b640d13af1681608bb897c3ada8d220e80e2e023623f1021f958c6345b",
	3: "b37e31fc6d4e509e5f99e4789804ec8bd20641c1c4d6edbdd2cc69a44a41a61c",
	4: "ba49ec298753aa1c09a2f222e5811fef850bf18d8235fc8f002b9477626f9b4b",
	5: "9a6dc228dc0b4304c95b0a2e22cc32e88b6c803f31902d008f69e6e43701c3c0",
	6: "1cab7d42935cecb7ec5a5e6b36d6417f22706b3a811d61febe2e5c62297898a4",
	7: "1597719f61c72cc49bb8310ef64c1c0f373ed67ffaa31264b938875635e1c725",
	8: "c4acbab9d40a33c52723f5f43e4bd0edfdad55281593b77a8b9e2d6bddae5703",
	9: "360140ce94c9426959cc5e0025dbf11322c06f4b043dfa2932853ce59a54ad45",
}

func TestClassTableDigest(t *testing.T) {
	for n := 1; n <= 9; n++ {
		if n == 9 && testing.Short() {
			t.Skip("n = 9 builds a 274,668-class table; skipped under -short")
		}
		classes, err := Classes(n)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [16]byte
		for _, c := range classes {
			binary.LittleEndian.PutUint64(buf[:8], c.Mask)
			binary.LittleEndian.PutUint64(buf[8:], c.Weight)
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != classTableDigests[n] {
			t.Errorf("n=%d: class table digest %s, want %s", n, got, classTableDigests[n])
		}
	}
}

// extendLevelUnfiltered is the oracle for extendLevel's invariant
// prefilter: it canonizes every one of the |prev|·2^(m-1) extension
// candidates, serially.
func extendLevelUnfiltered(m int, prev []Class) []Class {
	seen := map[uint64]uint64{}
	for _, c := range prev {
		adj := adjacency(m-1, c.Mask)
		for sub := uint16(0); sub < 1<<uint(m-1); sub++ {
			ext := adj
			ext[m-1] = sub
			for v := 0; v < m-1; v++ {
				ext[v] |= (sub >> uint(v) & 1) << uint(m-1)
			}
			r := MustCanonical(m, pack(m, &ext))
			seen[r.Canon] = r.AutOrder
		}
	}
	lvl := make([]Class, 0, len(seen))
	for c, aut := range seen {
		lvl = append(lvl, Class{Mask: c, Weight: Factorial(m) / aut})
	}
	sort.Slice(lvl, func(i, j int) bool { return lvl[i].Mask < lvl[j].Mask })
	return lvl
}

// TestExtendLevelMatchesUnfiltered checks that the prefilter loses no
// class: each level m ≤ 8, extended from the cached level m-1, equals the
// unfiltered extension of the same level.
func TestExtendLevelMatchesUnfiltered(t *testing.T) {
	for m := 2; m <= 8; m++ {
		prev, err := classesLevel(m - 1)
		if err != nil {
			t.Fatal(err)
		}
		got, want := extendLevel(m, prev), extendLevelUnfiltered(m, prev)
		if len(got) != len(want) {
			t.Fatalf("m=%d: filtered extension has %d classes, unfiltered %d", m, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("m=%d class %d: filtered %+v, unfiltered %+v", m, i, got[i], want[i])
			}
		}
	}
}
