package mc

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fveval/internal/bitvec"
	"fveval/internal/formal"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/logic"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// drainStores empties the free list, so the next checks build fresh
// stores.
func drainStores() {
	freeStores.Lock()
	freeStores.list = nil
	freeStores.Unlock()
}

// storeCheck is one model-checking call of the recycling corpus.
type storeCheck struct {
	name string
	run  func(Options) (Result, []Lemma, error)
}

// checkOutcome is everything a check reports: its result, its lemmas,
// its error and the counters it streamed, less the wall-clock ones.
type checkOutcome struct {
	Res    Result
	Lemmas []Lemma
	Err    string
	Stats  formal.Snapshot
}

// storeCorpus mixes proofs, falsifications, lemma pipelines, liveness
// and a conflict budget over hand-written and generated designs, so
// consecutive checks leave stores of different sizes behind.
func storeCorpus(t *testing.T) []storeCheck {
	t.Helper()
	assertion := func(sys *rtl.System, src string) storeCheck {
		a := parseA(t, src)
		return storeCheck{src, func(opt Options) (Result, []Lemma, error) {
			res, err := CheckAssertion(sys, a, opt)
			return res, nil, err
		}}
	}
	fsm := fsmSystem(t)
	stride := strideSystem(t)
	target, align := parseA(t, strideTarget), parseA(t, strideAlign)
	decoy := parseA(t, `h2: assert property (@(posedge clk) (cnt == 'd0));`)
	checks := []storeCheck{
		assertion(fsm, `assert property (@(posedge clk) disable iff (!reset_)
			state == 2'b10 |-> (next_state == 2'b00 || next_state == 2'b01));`),
		assertion(fsm, `assert property (@(posedge clk) disable iff (!reset_) state != 2'b11);`),
		assertion(fsm, `assert property (@(posedge clk) disable iff (!reset_)
			state == 2'b10 |-> in_A == in_B);`),
		{"lemmas", func(opt Options) (Result, []Lemma, error) {
			return CheckWithLemmas(stride, target, []*sva.Assertion{align, decoy}, opt)
		}},
		assertion(stride, strideTarget),
		assertion(fsm, `assert property (@(posedge clk) disable iff (!reset_) s_eventually (state == 2'b11));`),
	}
	for seed := int64(1); seed <= 2; seed++ {
		inst := rtlgen.GenerateFSM(rtlgen.FSMParams{States: 6, Edges: 10, Width: 16, Complexity: 3, Seed: seed})
		f, err := rtl.Parse(inst.Design + "\n" + inst.Bench)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := rtl.ElaborateBound(f, inst.DUTTop, inst.BenchTop, nil)
		if err != nil {
			t.Fatal(err)
		}
		head := "assert property (@(posedge clk) disable iff (tb_reset) "
		body := "fsm_out == S0 |=> ("
		for i, s := range inst.FSM.Succ[0] {
			if i > 0 {
				body += " || "
			}
			body += fmt.Sprintf("fsm_out == S%d", s)
		}
		checks = append(checks,
			assertion(sys, head+body+"));"),
			assertion(sys, head+"fsm_out != S0);"),
			assertion(sys, head+"fsm_out == S0 |=> fsm_out == S0);"))
	}
	return checks
}

// runCheck runs one check with its own bank and stats sink, so no
// state but the free list is shared between checks.
func runCheck(c storeCheck, budget int64) checkOutcome {
	var st formal.Stats
	res, lemmas, err := c.run(Options{SimPatterns: 128, Bank: formal.NewBank(0), Stats: &st, Budget: budget})
	out := checkOutcome{Res: res, Lemmas: lemmas, Stats: st.Snapshot()}
	if err != nil {
		out.Err = err.Error()
	}
	out.Stats.SolveWallNS, out.Stats.SolveWallHist = 0, [formal.SolveWallBucketCount]int64{}
	return out
}

// freshOutcomes runs every check on freshly built stores.
func freshOutcomes(checks []storeCheck, budget int64) []checkOutcome {
	out := make([]checkOutcome, len(checks))
	for i, c := range checks {
		drainStores()
		out[i] = runCheck(c, budget)
	}
	drainStores()
	return out
}

// TestRecycledStoresMatchFresh runs the corpus back to back on
// recycled stores, after a reversed pass has left stores of every size
// on the free list, and requires each check's result, lemmas and
// solver counters to equal those of a run on fresh stores.
func TestRecycledStoresMatchFresh(t *testing.T) {
	checks := storeCorpus(t)
	for _, budget := range []int64{0, 40} {
		want := freshOutcomes(checks, budget)
		for i := len(checks) - 1; i >= 0; i-- {
			runCheck(checks[i], budget)
		}
		freeStores.Lock()
		kept := len(freeStores.list)
		freeStores.Unlock()
		if kept == 0 {
			t.Fatal("no store was returned to the free list")
		}
		for i, c := range checks {
			if got := runCheck(c, budget); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("budget %d, %s:\nrecycled %+v\n   fresh %+v", budget, c.name, got, want[i])
			}
		}
	}
}

// TestFreeListSharedAcrossGoroutines runs the corpus from eight
// goroutines at once over one free list; every outcome must equal the
// sequential fresh-store outcome. Run it under -race.
func TestFreeListSharedAcrossGoroutines(t *testing.T) {
	checks := storeCorpus(t)
	want := freshOutcomes(checks, 0)
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(checks))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range checks {
				i := (j + g) % len(checks) // stagger, so goroutines trade stores
				if got := runCheck(checks[i], 0); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Sprintf("goroutine %d, %s: got %+v, want %+v", g, checks[i].name, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestFreeListBounds checks the retention bound: a returned store comes
// back reset, the list holds at most 2×GOMAXPROCS stores, and a store
// grown past maxStoreNodes is dropped.
func TestFreeListBounds(t *testing.T) {
	drainStores()
	defer drainStores()
	st := getStore()
	x := st.b.Input()
	st.cnf.Assert(st.b.And(x, st.b.Input()))
	st.sim.SetInput(x, ^uint64(0))
	putStore(st)
	if got := getStore(); got != st {
		t.Fatal("a returned store was not reused")
	}
	if st.b.NumNodes() != 0 || st.s.NumVars() != 0 || st.cnf.Encoded() != 0 {
		t.Fatalf("reused store not reset: %d nodes, %d vars, %d encoded", st.b.NumNodes(), st.s.NumVars(), st.cnf.Encoded())
	}
	if y := st.b.Input(); y != x {
		t.Fatalf("first input after reset is node %d, want %d", y, x)
	}
	st.sim.Run()
	if st.sim.Val(x) != 0 {
		t.Fatal("reused store's simulator kept an input lane")
	}

	limit := 2 * runtime.GOMAXPROCS(0)
	for i := 0; i < limit+3; i++ {
		putStore(newStore())
	}
	freeStores.Lock()
	n := len(freeStores.list)
	freeStores.Unlock()
	if n != limit {
		t.Fatalf("free list holds %d stores, want the cap %d", n, limit)
	}

	drainStores()
	big := getStore()
	for i := 0; i <= maxStoreNodes; i++ {
		big.b.Input()
	}
	putStore(big)
	freeStores.Lock()
	n = len(freeStores.list)
	freeStores.Unlock()
	if n != 0 {
		t.Fatalf("a store of %d nodes was kept", big.b.NumNodes())
	}
}

// TestSignalLookupRepeatsEvaluationError looks up a net whose
// expression fails to evaluate twice: the second lookup must report
// the original error, not a combinational loop through the net.
func TestSignalLookupRepeatsEvaluationError(t *testing.T) {
	sys := fsmSystem(t)
	if _, ok := sys.NetByName("next_state"); !ok {
		t.Fatal("next_state is not a net")
	}
	fe := newFrameEnv(logic.NewBuilder(), sys)
	fe.initFrame0(false) // state exists at frame 0 only
	_, first := fe.Signal("next_state", 3)
	if first == nil || !strings.Contains(first.Error(), "not unrolled") {
		t.Fatalf("first lookup: %v, want a not-unrolled register error", first)
	}
	_, second := fe.Signal("next_state", 3)
	if second == nil || second.Error() != first.Error() {
		t.Fatalf("second lookup: %v, want %v", second, first)
	}
}

// TestLivenessLoopDeterministic repeats a liveness falsification whose
// lasso closes at every loop start (the register follows a free input,
// and an all-zero trace never raises it): every run must report the
// smallest loop start, 0, and the same counterexample.
func TestLivenessLoopDeterministic(t *testing.T) {
	f, err := rtl.Parse(`
module hold(clk, in, r);
input clk;
input in;
output reg r;
always @(posedge clk) r <= in;
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rtl.Elaborate(f, "hold", nil)
	if err != nil {
		t.Fatal(err)
	}
	a := parseA(t, `assert property (@(posedge clk) s_eventually r);`)
	var first Result
	for i := 0; i < 20; i++ {
		res, err := CheckAssertion(sys, a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Falsified || res.Cex == nil || res.Cex.Loop != 0 {
			t.Fatalf("run %d: want a lasso counterexample looping to 0, got %+v", i, res)
		}
		if i == 0 {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Fatalf("run %d reported %+v, run 0 %+v", i, res.Cex, first.Cex)
		}
	}
}

// TestDecodeSimResetsBetweenModels decodes two models on one store's
// recycled decoder: an all-ones model, then an all-zeros one. The
// second decode must read zero everywhere, as a decode on a fresh
// simulator does; a decoder keeping the first model's lanes would not.
func TestDecodeSimResetsBetweenModels(t *testing.T) {
	sys := fsmSystem(t)
	st := newStore()
	fe := st.env(sys)
	fe.initFrame0(true)
	const frames = 3
	if err := fe.unroll(frames); err != nil {
		t.Fatal(err)
	}
	for i := range sys.Inputs {
		for p := 0; p < frames; p++ {
			if _, err := fe.Signal(sys.Inputs[i].Name, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, bvs := range [][]bitvec.BV{fe.inputs, fe.states} {
		for _, bv := range bvs {
			for _, bit := range bv.Bits {
				st.cnf.Lit(bit)
			}
		}
	}
	ones := make([]bool, st.s.NumVars())
	for i := range ones {
		ones[i] = true
	}
	zeros := make([]bool, st.s.NumVars())
	first := decodeCex(sys, fe, st.cnf, ones, frames, -1)
	if first.Frames[1][sys.Inputs[0].Name] == 0 {
		t.Fatalf("all-ones model decoded input %s as zero", sys.Inputs[0].Name)
	}
	got := decodeCex(sys, fe, st.cnf, zeros, frames, -1)
	fe.dsim = nil // decode on a fresh simulator
	want := decodeCex(sys, fe, st.cnf, zeros, frames, -1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recycled decoder: %+v, fresh: %+v", got.Frames, want.Frames)
	}
	for p, frame := range got.Frames {
		for name, v := range frame {
			if v != 0 {
				t.Fatalf("frame %d: %s = %d after an all-zeros model", p, name, v)
			}
		}
	}
}
