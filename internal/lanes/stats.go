package lanes

// BlockStats is what a kernel reports for one block: which lanes are live,
// which of them the referee accepts, and the message-bit facts every live
// graph shares. Each field is a per-lane view or a per-graph quantity, never
// a total, so the engine folds a block the same way for every source: each
// live lane j counts weight[j] graphs of GraphBits bits (weight 1 for
// unweighted sources, the orbit size for isomorphism-class blocks).
type BlockStats struct {
	Live      uint64 // the block's LiveMask
	Accept    uint64 // accepted lanes, a subset of Live; valid only when Decided
	Decided   bool   // the kernel evaluated the referee's verdict
	GraphBits uint64 // message bits per graph, summed over its n nodes
	MaxBits   int    // largest single message of any live graph
	MaxN      int    // graph size
}

// Kernel evaluates one transposed block and overwrites st with its facts.
// The contract mirrors the scalar batch loop exactly: a live lane stands for
// one graph whose n messages total GraphBits bits, the largest of them
// MaxBits, and when the kernel decides, Accept holds the lanes the referee
// accepts. A kernel must never report dead lanes — AND accept words with
// the block's LiveMask.
type Kernel func(b *Block, st *BlockStats)

// ConstWidthKernel is the kernel of any protocol whose per-node message
// width on n-vertex graphs is data-independent (the fixed-width strawmen:
// degree, mod-k, hash sketches). Message *content* varies per graph, but
// batch statistics only see bit counts, so the whole block is described in
// O(1): every live graph ships n × width(n) bits.
func ConstWidthKernel(width func(n int) int) Kernel {
	return func(b *Block, st *BlockStats) {
		n := b.N()
		w := width(n)
		*st = BlockStats{Live: b.LiveMask(), GraphBits: uint64(n) * uint64(w), MaxBits: w, MaxN: n}
	}
}

// DecideKernel wraps a constant-width row protocol (width bits per node)
// with a per-lane accept predicate: the oracle-decider shape, where every
// node ships width(n) bits and the referee's verdict is the accept bit.
// When decide is false the batch is not tallying verdicts and the predicate
// is skipped entirely.
func DecideKernel(width func(n int) int, accept func(b *Block) uint64, decide bool) Kernel {
	base := ConstWidthKernel(width)
	if !decide {
		return base
	}
	return func(b *Block, st *BlockStats) {
		base(b, st)
		st.Accept = accept(b) & st.Live
		st.Decided = true
	}
}
