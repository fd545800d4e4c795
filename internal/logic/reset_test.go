package logic

import (
	"math/rand"
	"slices"
	"testing"

	"fveval/internal/sat"
)

// construction records what a fixed construction sequence observes:
// node ids, the literals the CNF hands out, and the counters of the
// builder, emitter and solver after it.
type construction struct {
	nodes                       []Node
	lits                        []sat.Lit
	numNodes, encoded, numVars  int
	hashHits                    int64
	highWater                   int32
	inputs                      []Node
	satisfiable, satUnderAssume bool
}

func construct(t *testing.T, seed int64, nGates int, b *Builder, s *sat.Solver, c *CNF) construction {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inputs, pool := randomCircuit(rng, b, 8, nGates)
	var out construction
	out.nodes = pool
	for i := len(pool) - 1; i >= 0; i -= 7 {
		out.lits = append(out.lits, c.Lit(pool[i]))
	}
	act := b.Input()
	c.AssertIf(act, b.And(pool[len(pool)-1], pool[len(pool)-2].Not()))
	c.Assert(b.Or(inputs[0], inputs[1]))
	ok, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	okAct, err := s.Solve(c.Lit(act))
	if err != nil {
		t.Fatal(err)
	}
	out.satisfiable, out.satUnderAssume = ok, okAct
	out.numNodes, out.encoded, out.numVars = b.NumNodes(), c.Encoded(), s.NumVars()
	out.hashHits, out.highWater = b.HashHits(), c.HighWater()
	out.inputs = slices.Clone(b.Inputs())
	return out
}

func sameConstruction(a, b construction) bool {
	return slices.Equal(a.nodes, b.nodes) && slices.Equal(a.lits, b.lits) &&
		slices.Equal(a.inputs, b.inputs) &&
		a.numNodes == b.numNodes && a.encoded == b.encoded && a.numVars == b.numVars &&
		a.hashHits == b.hashHits && a.highWater == b.highWater &&
		a.satisfiable == b.satisfiable && a.satUnderAssume == b.satUnderAssume
}

// TestResetReplaysConstruction checks that a Builder, CNF and solver
// Reset after an unrelated construction hand out exactly the node ids,
// literals and counters that fresh ones do for the same sequence —
// whether the earlier construction was smaller (the tables grow past
// their kept capacity) or larger (the hash table stays bigger than a
// fresh one's).
func TestResetReplaysConstruction(t *testing.T) {
	fresh := func() (*Builder, *sat.Solver, *CNF) {
		b, s := NewBuilder(), sat.New()
		return b, s, NewCNF(b, s)
	}
	b, s, c := fresh()
	want := construct(t, 1, 600, b, s, c)
	for _, dirtyGates := range []int{50, 5000} {
		b, s, c := fresh()
		construct(t, 2, dirtyGates, b, s, c)
		b.Reset()
		s.Reset()
		c.Reset()
		if b.NumNodes() != 0 || b.HashHits() != 0 || len(b.Inputs()) != 0 || c.Encoded() != 0 || c.HighWater() != 0 {
			t.Fatalf("dirty %d: Reset left state behind", dirtyGates)
		}
		if got := construct(t, 1, 600, b, s, c); !sameConstruction(got, want) {
			t.Errorf("dirty %d: construction after Reset differs from a fresh one", dirtyGates)
		}
	}
}

// TestSimResetZeroesLanes checks that a Sim Reset after a run with
// every input set reads zero in every lane of every input, so it
// evaluates each node exactly as a fresh Sim does.
func TestSimResetZeroesLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder()
	inputs, pool := randomCircuit(rng, b, 6, 200)
	sim := NewSim(b)
	for _, in := range inputs {
		sim.SetInput(in, ^uint64(0))
	}
	sim.Run()
	sim.Reset()
	extra := b.Input() // grown after the Reset: must read zero too
	sim.Run()
	ref := NewSim(b)
	ref.Run()
	for _, in := range append(inputs, extra) {
		if w := sim.Val(in); w != 0 {
			t.Fatalf("input %d reads %#x after Reset", in, w)
		}
	}
	for _, n := range pool {
		if got, want := sim.Val(n), ref.Val(n); got != want {
			t.Fatalf("node %d: %#x after Reset, fresh Sim %#x", n, got, want)
		}
	}
}
