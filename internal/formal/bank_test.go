package formal

import (
	"sync"
	"testing"
)

func pat(len int, name string, vals ...uint64) Pattern {
	return Pattern{Len: len, Vals: map[string][]uint64{name: vals}}
}

func TestBankRingAndOrder(t *testing.T) {
	b := NewBank(3)
	if b.Len() != 0 || b.Patterns(4) != nil {
		t.Fatal("fresh bank not empty")
	}
	for i := uint64(1); i <= 5; i++ {
		b.Add(pat(1, "s", i))
	}
	if b.Len() != 3 || b.Adds() != 5 {
		t.Fatalf("len=%d adds=%d", b.Len(), b.Adds())
	}
	got := b.Patterns(8)
	if len(got) != 3 {
		t.Fatalf("patterns returned %d", len(got))
	}
	// Most recent first: 5, 4, 3.
	for i, want := range []uint64{5, 4, 3} {
		if got[i].Vals["s"][0] != want {
			t.Fatalf("pattern %d = %d, want %d", i, got[i].Vals["s"][0], want)
		}
	}
	if n := len(b.Patterns(2)); n != 2 {
		t.Fatalf("capped request returned %d", n)
	}
}

func TestBankNilAndEmptyAdds(t *testing.T) {
	var nilBank *Bank
	nilBank.Add(pat(1, "s", 1)) // must not panic
	if nilBank.Len() != 0 || nilBank.Patterns(4) != nil || nilBank.Adds() != 0 {
		t.Fatal("nil bank should be inert")
	}
	b := NewBank(0)
	b.Add(Pattern{})                                    // empty pattern dropped
	b.Add(Pattern{Len: 3})                              // no signals dropped
	b.Add(Pattern{Vals: map[string][]uint64{"s": {1}}}) // zero length dropped
	if b.Len() != 0 {
		t.Fatalf("degenerate patterns were stored: %d", b.Len())
	}
}

func TestBankConcurrent(t *testing.T) {
	b := NewBank(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Add(pat(2, "s", uint64(w), uint64(i)))
				b.Patterns(8)
			}
		}(w)
	}
	wg.Wait()
	if b.Len() != 16 || b.Adds() != 800 {
		t.Fatalf("len=%d adds=%d", b.Len(), b.Adds())
	}
}

func TestLaneWords(t *testing.T) {
	pats := []Pattern{
		pat(2, "s", 0b01, 0b11), // lane 0
		pat(1, "s", 0b10),       // lane 1 (no position 1)
		pat(2, "t", 5, 6),       // lane 2 (no signal s)
	}
	dst := make([]uint64, 2)
	LaneWords(pats, 3, "s", 0, dst)
	if dst[0] != 0b001 || dst[1] != 0b010 {
		t.Fatalf("pos 0: dst=%b,%b", dst[0], dst[1])
	}
	LaneWords(pats, 3, "s", 1, dst)
	if dst[0] != 0b001 || dst[1] != 0b001 {
		t.Fatalf("pos 1: dst=%b,%b", dst[0], dst[1])
	}
	LaneWords(pats, 3, "missing", 0, dst)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatal("missing signal should zero the words")
	}
}

func TestSimStatsCounters(t *testing.T) {
	var s Stats
	s.SimPatterns(64)
	s.SimPatterns(0) // dropped
	s.SimRefuted(true, 1)
	s.SimRefuted(false, 2)
	snap := s.Snapshot().Sim
	want := SimStats{Patterns: 64, Refutations: 2, SATAvoided: 3, BankHits: 1}
	if snap != want {
		t.Fatalf("sim stats = %+v, want %+v", snap, want)
	}
	sum := s.Snapshot().Add(s.Snapshot())
	if sum.Sim.Patterns != 128 || sum.Sim.SATAvoided != 6 {
		t.Fatalf("Add broken: %+v", sum.Sim)
	}
	if d := sum.Sub(s.Snapshot()); d.Sim != want {
		t.Fatalf("Sub broken: %+v", d.Sim)
	}
	var nilStats *Stats
	nilStats.SimPatterns(1)
	nilStats.SimRefuted(true, 1) // must not panic
}

// TestAppendPatternsMatchesPatterns checks that refreshing one reused
// snapshot slice yields exactly what a fresh Patterns copy does, at
// every fill level of the ring and every request size, and that the
// refresh stops allocating once the slice has grown.
func TestAppendPatternsMatchesPatterns(t *testing.T) {
	b := NewBank(5)
	var snap []Pattern
	check := func(stage string) {
		t.Helper()
		for _, max := range []int{-1, 0, 1, 3, 5, 8} {
			want := b.Patterns(max)
			snap = b.AppendPatterns(snap[:0], max)
			if len(snap) != len(want) {
				t.Fatalf("%s max %d: %d patterns, want %d", stage, max, len(snap), len(want))
			}
			for i := range want {
				if snap[i].Len != want[i].Len || snap[i].Vals["s"][0] != want[i].Vals["s"][0] {
					t.Fatalf("%s max %d: pattern %d = %v, want %v", stage, max, i, snap[i], want[i])
				}
			}
		}
	}
	check("empty")
	for i := uint64(1); i <= 12; i++ {
		b.Add(pat(int(i), "s", i))
		check("after add")
	}
	prefix := []Pattern{pat(1, "p", 9)}
	if got := b.AppendPatterns(prefix, 2); len(got) != 3 || got[0].Vals["p"][0] != 9 || got[1].Vals["s"][0] != 12 {
		t.Fatalf("append after a prefix: %v", got)
	}
	var nilBank *Bank
	if got := nilBank.AppendPatterns(snap[:0], 4); len(got) != 0 {
		t.Fatalf("nil bank appended %d patterns", len(got))
	}
	if allocs := testing.AllocsPerRun(100, func() { snap = b.AppendPatterns(snap[:0], 5) }); allocs != 0 {
		t.Fatalf("a grown snapshot refresh allocated %.0f times", allocs)
	}
}
