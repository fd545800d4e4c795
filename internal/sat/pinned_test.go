package sat

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// pinnedStep is the search state after one Solve call of a pinned
// sequence: the verdict and the cumulative counters.
type pinnedStep struct {
	Sat                                bool
	Conflicts, Decisions, Propagations int64
	Learnt                             int
}

func (p pinnedStep) String() string {
	return fmt.Sprintf("{%v, %d, %d, %d, %d}", p.Sat, p.Conflicts, p.Decisions, p.Propagations, p.Learnt)
}

func record(t *testing.T, s *Solver, assumptions ...Lit) pinnedStep {
	t.Helper()
	ok, err := s.Solve(assumptions...)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	return pinnedStep{ok, st.Conflicts, st.Decisions, st.Propagations, st.Learnt}
}

// pigeonholeSequence refutes two gated pigeonhole instances on one
// solver, then both together, then solves with no assumptions (the
// gates switch off, so the database is satisfiable).
func pigeonholeSequence(t *testing.T, s *Solver) []pinnedStep {
	a := NewLit(s.NewVar(), false)
	addPigeonhole(s, a, 7, 6)
	b := NewLit(s.NewVar(), false)
	addPigeonhole(s, b, 8, 7)
	return []pinnedStep{
		record(t, s, a),
		record(t, s, b),
		record(t, s, a, b),
		record(t, s),
	}
}

// random3SATSequence grows a seeded random 3-SAT instance near the
// satisfiability threshold across solves under random assumptions,
// adding clauses between calls.
func random3SATSequence(t *testing.T, s *Solver) []pinnedStep {
	rng := rand.New(rand.NewPCG(13, 7))
	const nVars = 150
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	randLit := func() Lit { return NewLit(1+rng.IntN(nVars), rng.IntN(2) == 0) }
	addClauses := func(n int) {
		for i := 0; i < n; i++ {
			s.AddClause(randLit(), randLit(), randLit())
		}
	}
	var steps []pinnedStep
	addClauses(560)
	for round := 0; round < 8; round++ {
		assumptions := make([]Lit, 2+rng.IntN(4))
		for i := range assumptions {
			assumptions[i] = randLit()
		}
		steps = append(steps, record(t, s, assumptions...))
		steps = append(steps, record(t, s))
		addClauses(10)
	}
	return steps
}

// pinnedCases are the pinned sequences with their recorded steps.
var pinnedCases = []struct {
	name string
	run  func(*testing.T, *Solver) []pinnedStep
	want []pinnedStep
}{
	{"pigeonhole", pigeonholeSequence, []pinnedStep{
		{false, 782, 1009, 9692, 305}, {false, 7973, 9671, 111554, 971},
		{false, 7973, 9671, 111554, 496}, {true, 7973, 9769, 111652, 141},
	}},
	{"random3sat", random3SATSequence, []pinnedStep{
		{false, 162, 209, 4956, 162}, {true, 188, 268, 5955, 188},
		{false, 283, 375, 9128, 283}, {true, 367, 491, 12194, 225},
		{true, 367, 518, 12344, 225}, {true, 367, 545, 12494, 225},
		{true, 407, 604, 13888, 265}, {true, 407, 631, 14038, 265},
		{true, 455, 716, 15868, 169}, {true, 455, 743, 16018, 169},
		{false, 508, 805, 17672, 222}, {true, 575, 916, 19871, 289},
		{false, 806, 1188, 27925, 208}, {true, 1345, 1901, 45585, 255},
		{false, 1386, 1947, 46978, 296}, {false, 2436, 3209, 81477, 423},
	}},
}

// TestPinnedSearchStats pins the solver's search trajectory: verdicts
// and the Conflicts/Decisions/Propagations/Learnt counters after fixed
// incremental solve sequences, sized so that learnt-clause reduction
// runs. The values were recorded before clauses moved to the arena: a
// change to how clauses are stored must reproduce them exactly. Only a
// change that means to alter the search (a new restart or retention
// policy) may record new values.
func TestPinnedSearchStats(t *testing.T) {
	for _, c := range pinnedCases {
		t.Run(c.name, func(t *testing.T) {
			got := c.run(t, New())
			if !slices.Equal(got, c.want) {
				t.Errorf("search drifted:\n got %v\nwant %v", got, c.want)
			}
		})
	}
}

// TestPinnedSearchStatsAfterReset runs every pinned sequence on a
// solver that another sequence dirtied — learnt clauses, bumped
// activities, saved phases, a spent budget, a derived empty clause —
// and that was then Reset. The trajectory must match a fresh solver's
// step for step.
func TestPinnedSearchStatsAfterReset(t *testing.T) {
	for i, c := range pinnedCases {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			pinnedCases[(i+1)%len(pinnedCases)].run(t, s)
			s.SetBudget(3)
			x := NewLit(s.NewVar(), false)
			s.AddClause(x)
			s.AddClause(x.Not())
			if ok, _ := s.Solve(); ok {
				t.Fatal("contradictory units solved")
			}
			s.Reset()
			if st := s.Stats(); st != (Stats{}) || s.NumVars() != 0 || len(s.Core()) != 0 {
				t.Fatalf("Reset left state behind: %+v, %d vars, core %v", st, s.NumVars(), s.Core())
			}
			got := c.run(t, s)
			if !slices.Equal(got, c.want) {
				t.Errorf("search drifted after Reset:\n got %v\nwant %v", got, c.want)
			}
		})
	}
}
