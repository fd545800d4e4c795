// The pattern bank: counterexample-guided refinement storage for the
// bit-parallel simulation prefilter (DESIGN.md §10). Every SAT model
// found anywhere in a run — an equivalence witness, a BMC
// counterexample, a refuted induction step — is folded back into one
// shared bank as a concrete signal-level trace, and later queries
// replay the banked traces (alongside fresh random patterns) before
// opening a solver: assertion pairs in one benchmark run are highly
// correlated, so the pattern separating one pair very often separates
// the next.
package formal

import (
	"slices"
	"sync"
)

// Pattern is one concrete trace at the signal level: per-signal values
// indexed by trace position. Signal-level storage is what makes
// patterns portable across queries — each query maps its own input
// bits onto the named values and treats missing signals or positions
// as zero. Patterns stored in a Bank are read-only; callers must not
// mutate a Pattern after Add or after receiving it from Patterns.
type Pattern struct {
	// Len is the number of positions the trace covers.
	Len int
	// Vals maps a signal name to its value at each position.
	Vals map[string][]uint64
}

// Bank is a concurrency-safe, bounded ring of learned patterns shared
// across an engine's whole run (it lives in the engine's shareable
// memo pool next to the equivalence cache and survives Reconfigure).
// When full, new patterns overwrite the oldest. A nil *Bank is valid
// and drops every Add.
type Bank struct {
	mu   sync.Mutex
	pats []Pattern
	next int // ring write cursor once len(pats) == cap
	cap  int
	adds int64
}

// DefaultBankCap bounds the bank when NewBank is given no capacity.
const DefaultBankCap = 128

// NewBank returns an empty bank holding at most cap patterns
// (DefaultBankCap when cap <= 0).
func NewBank(cap int) *Bank {
	if cap <= 0 {
		cap = DefaultBankCap
	}
	return &Bank{cap: cap}
}

// Add stores a pattern, evicting the oldest when the bank is full.
func (b *Bank) Add(p Pattern) {
	if b == nil || p.Len == 0 || len(p.Vals) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.adds++
	if len(b.pats) < b.cap {
		b.pats = append(b.pats, p)
		return
	}
	b.pats[b.next] = p
	b.next = (b.next + 1) % b.cap
}

// Patterns returns up to max patterns, most recently added first. The
// returned slice is a fresh copy but the Pattern contents are shared —
// read-only by contract. A nil *Bank returns nil.
func (b *Bank) Patterns(max int) []Pattern { return b.AppendPatterns(nil, max) }

// AppendPatterns appends up to max patterns, most recently added
// first, to dst and returns the extended slice — Patterns into storage
// the caller reuses across snapshots. A nil *Bank appends nothing.
func (b *Bank) AppendPatterns(dst []Pattern, max int) []Pattern {
	if b == nil || max <= 0 {
		return dst
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.pats)
	if max > n {
		max = n
	}
	dst = slices.Grow(dst, max)
	// Newest-first: walk backwards from the write cursor.
	start := b.next - 1
	if len(b.pats) < b.cap {
		start = len(b.pats) - 1
	}
	for i := 0; i < max; i++ {
		idx := (start - i + n) % n
		dst = append(dst, b.pats[idx])
	}
	return dst
}

// Len reports the number of patterns currently held.
func (b *Bank) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pats)
}

// Adds reports the lifetime number of patterns folded in (including
// ones since evicted).
func (b *Bank) Adds() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.adds
}

// LaneWords packs the first n patterns' value of (name, pos) into dst:
// dst[i] receives bit i of each pattern's value in that pattern's
// lane. One map lookup per pattern covers a whole signal, where a
// per-bit helper would pay the lookup width × n times. Signals or
// positions a pattern does not cover stay zero.
func LaneWords(pats []Pattern, n int, name string, pos int, dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	for j := 0; j < n; j++ {
		vals := pats[j].Vals[name]
		if pos >= len(vals) {
			continue
		}
		v := vals[pos]
		lane := uint64(1) << uint(j)
		for i := range dst {
			if i < 64 && v>>uint(i)&1 == 1 {
				dst[i] |= lane
			}
		}
	}
}

// SplitMix64 steps a deterministic 64-bit generator — the random
// pattern source of the simulation prefilter. Determinism matters only
// for reproducible stats and witness traces; verdicts are
// pattern-independent because the prefilter is refute-only with a SAT
// fallback.
func SplitMix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
