package fveval

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper (DESIGN.md §5), plus ablation benches for the design
// choices called out in DESIGN.md §6. Each benchmark regenerates its
// artifact at full size; run with
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for paper-vs-measured values.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"fveval/internal/core"
	"fveval/internal/dist"
	"fveval/internal/engine"
	"fveval/internal/equiv"
	"fveval/internal/formal"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/gen/svagen"
	"fveval/internal/llm"
	"fveval/internal/ltl"
	"fveval/internal/mc"
	"fveval/internal/rtl"
	"fveval/internal/sva"
	"fveval/internal/task"
)

// isolate shields a benchmark from its predecessors' process state:
// the full suite runs dozens of table regenerations in one process,
// and without a boundary a benchmark's measured time varies with the
// previous one's leftovers — retained memo ASTs inflating every GC
// mark phase, warm caches turning later benchmarks into partial
// reruns. Each benchmark measures a cold, collected process.
func isolate(b *testing.B) {
	core.ResetMemos()
	svagen.ResetCache()
	runtime.GC()
	b.ResetTimer()
}

// reportPrefilter attaches the simulation-prefilter hit rate (share of
// formal decision points discharged without a SAT call) as a benchmark
// metric, so BENCH_tables.json (schema v4) tracks it next to ns/op.
func reportPrefilter(b *testing.B, snaps ...formal.Snapshot) {
	var refuted, solves int64
	for _, s := range snaps {
		refuted += s.Sim.Refutations
		solves += s.Solves
	}
	if refuted+solves > 0 {
		b.ReportMetric(float64(refuted)/float64(refuted+solves), "prefilter-hit-rate")
	}
}

// runTask executes one registry request on a fresh task engine under
// cfg, returning the run and the engine's formal counters.
func runTask(b *testing.B, cfg engine.Config, req task.Request) (*task.Run, formal.Snapshot) {
	b.Helper()
	e := task.NewEngine(cfg)
	run, err := e.Run(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	return run, e.FormalStats()
}

func BenchmarkTable1NL2SVAHuman(b *testing.B) {
	isolate(b)
	for i := 0; i < b.N; i++ {
		run, _ := runTask(b, engine.Config{}, task.Request{Task: "nl2sva-human"})
		if i == 0 {
			b.Log("\n" + run.Report.Render())
		}
	}
}

func BenchmarkTable2HumanPassK(b *testing.B) {
	isolate(b)
	for i := 0; i < b.N; i++ {
		run, _ := runTask(b, engine.Config{Samples: 5, Workers: 8}, task.Request{Task: "nl2sva-human-passk"})
		if i == 0 {
			b.Log("\n" + run.Report.Render())
		}
	}
}

// BenchmarkTable3NL2SVAMachine evaluates each shot setting on its own
// fresh engine, so neither column is served from the other's memo.
func BenchmarkTable3NL2SVAMachine(b *testing.B) {
	var snaps []formal.Snapshot
	isolate(b)
	for i := 0; i < b.N; i++ {
		zero, s0 := runTask(b, engine.Config{}, task.Request{Task: "nl2sva-machine", Params: task.Params{Shots: []int{0}}})
		three, s3 := runTask(b, engine.Config{}, task.Request{Task: "nl2sva-machine", Params: task.Params{Shots: []int{3}}})
		snaps = append(snaps, s0, s3)
		if i == 0 {
			b.Log("\n" + core.FormatTable3(zero.Report.Groups[0].ModelReports(), three.Report.Groups[0].ModelReports()))
		}
	}
	reportPrefilter(b, snaps...)
}

func BenchmarkTable4MachinePassK(b *testing.B) {
	var snaps []formal.Snapshot
	isolate(b)
	for i := 0; i < b.N; i++ {
		run, snap := runTask(b, engine.Config{Samples: 5, Workers: 8}, task.Request{Task: "nl2sva-machine-passk"})
		snaps = append(snaps, snap)
		if i == 0 {
			b.Log("\n" + run.Report.Render())
		}
	}
	reportPrefilter(b, snaps...)
}

// BenchmarkTable5Design2SVA evaluates each design category on its own
// fresh engine.
func BenchmarkTable5Design2SVA(b *testing.B) {
	var snaps []formal.Snapshot
	isolate(b)
	for i := 0; i < b.N; i++ {
		pipe, sp := runTask(b, engine.Config{Samples: 5}, task.Request{Task: "design2sva", Params: task.Params{Kinds: []string{"pipeline"}}})
		fsm, sf := runTask(b, engine.Config{Samples: 5}, task.Request{Task: "design2sva", Params: task.Params{Kinds: []string{"fsm"}}})
		snaps = append(snaps, sp, sf)
		if i == 0 {
			b.Log("\n" + core.FormatTable5(pipe.Report.Groups[0].DesignReports(), fsm.Report.Groups[0].DesignReports()))
		}
	}
	reportPrefilter(b, snaps...)
}

func BenchmarkTable6DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := core.FormatTable6()
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

func BenchmarkFigure2HumanLengths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := core.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

func BenchmarkFigure3MachineLengths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := core.Figure3(300)
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

func BenchmarkFigure4RTLLengths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := core.Figure4()
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

func BenchmarkFigure6BLEUCorrelation(b *testing.B) {
	isolate(b)
	for i := 0; i < b.N; i++ {
		run, _ := runTask(b, engine.Config{}, task.Request{Task: "bleu-correlation"})
		if i == 0 {
			b.Log("\n" + run.Report.Render())
		}
	}
}

// BenchmarkTableAGR regenerates the AGR helper-generation table at
// full size: the whole helpergen sweep, sampled decoding, pass@k
// fleet (DESIGN.md §12).
func BenchmarkTableAGR(b *testing.B) {
	var snaps []formal.Snapshot
	isolate(b)
	for i := 0; i < b.N; i++ {
		run, snap := runTask(b, engine.Config{Samples: 5, Workers: 8}, task.Request{Task: "agr"})
		snaps = append(snaps, snap)
		if i == 0 {
			b.Log("\n" + run.Report.Render())
		}
	}
	reportPrefilter(b, snaps...)
}

// BenchmarkFigureR regenerates the CEX-guided refinement figure at
// its default retry budgets and reports the refinement rounds spent
// per regeneration as a custom metric, so BENCH_tables.json tracks
// feedback-loop traffic next to ns/op.
func BenchmarkFigureR(b *testing.B) {
	var rounds int64
	isolate(b)
	for i := 0; i < b.N; i++ {
		run, _ := runTask(b, engine.Config{Samples: 5, Workers: 8}, task.Request{Task: "refinement"})
		rounds += run.Stats.RefineRounds
		if i == 0 {
			b.Log("\n" + run.Report.Render())
		}
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "refine-rounds")
}

// ---- Distributed layer (DESIGN.md §9) ----------------------------------

// benchDist runs one registry task through the coordinator over a
// loopback fleet; sub-benchmark names carry the fleet shape
// ("shards=N/workers=N"), which benchjson records next to ns/op so
// BENCH_tables.json tracks distributed speedups.
func benchDist(b *testing.B, req task.Request, fleets []int) {
	b.Helper()
	for _, n := range fleets {
		b.Run(fmt.Sprintf("shards=%d/workers=%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := dist.New(dist.Loopback(n, engine.Config{}), dist.Options{Shards: n})
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.Run(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log("\n" + res.Run.Report.Render())
				}
			}
		})
	}
}

// BenchmarkDistTable1 fans the Table 1 grid across loopback fleets.
func BenchmarkDistTable1(b *testing.B) {
	benchDist(b, task.Request{Task: "nl2sva-human"}, []int{2, 4})
}

// BenchmarkDistTable4 fans the heaviest pass@k grid (Table 4) across
// loopback fleets.
func BenchmarkDistTable4(b *testing.B) {
	benchDist(b, task.Request{
		Task:    "nl2sva-machine-passk",
		Options: engine.Config{Samples: 5, Workers: 8},
	}, []int{2, 4})
}

// ---- Ablations (DESIGN.md §6) ------------------------------------------

// BenchmarkAblationEquivBound sweeps the lasso bound K on a liveness
// equivalence pair: larger bounds increase confidence and cost.
func BenchmarkAblationEquivBound(b *testing.B) {
	a1, _ := sva.ParseAssertion(`assert property (@(posedge clk) disable iff (tb_reset) wr_push |-> strong(##[0:$] rd_pop));`)
	a2, _ := sva.ParseAssertion(`assert property (@(posedge clk) disable iff (tb_reset) wr_push |-> strong(##[1:$] rd_pop));`)
	sigs := &equiv.Sigs{Widths: map[string]int{"clk": 1, "tb_reset": 1, "wr_push": 1, "rd_pop": 1}}
	for _, bound := range []int{8, 12, 16, 20} {
		b.Run("K="+itoa(bound), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := equiv.Check(a1, a2, sigs, equiv.Options{Bound: bound})
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != equiv.BImpliesA {
					b.Fatalf("verdict drifted at K=%d: %v", bound, res.Verdict)
				}
			}
		})
	}
}

// BenchmarkAblationInduction compares k-induction proofs against pure
// BMC falsification effort on Design2SVA ground-truth assertions.
func BenchmarkAblationInduction(b *testing.B) {
	inst := rtlgen.GenerateFSM(rtlgen.FSMParams{States: 6, Edges: 10, Width: 16, Complexity: 3, Seed: 77})
	f, err := rtl.Parse(inst.Design + "\n" + inst.Bench)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := rtl.ElaborateBound(f, inst.DUTTop, inst.BenchTop, nil)
	if err != nil {
		b.Fatal(err)
	}
	succ := inst.FSM.Succ[0]
	body := "fsm_out == S0 |=> ("
	for i, t := range succ {
		if i > 0 {
			body += " || "
		}
		body += "fsm_out == S" + itoa(t)
	}
	body += ")"
	a, err := sva.ParseAssertion("assert property (@(posedge clk) disable iff (tb_reset) " + body + ");")
	if err != nil {
		b.Fatal(err)
	}
	for _, maxInd := range []int{2, 5, 10} {
		b.Run("k="+itoa(maxInd), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := mc.CheckAssertion(sys, a, mc.Options{MaxInduction: maxInd})
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != mc.Proven {
					b.Fatalf("expected proven, got %v", res.Status)
				}
			}
		})
	}
}

// BenchmarkAblationCritic measures the naturalizer critic retry loop:
// dataset generation with the critic enabled (shipping quality) versus
// raw single-shot rendering.
func BenchmarkAblationCritic(b *testing.B) {
	b.Run("with-critic", func(b *testing.B) {
		isolate(b)
		for i := 0; i < b.N; i++ {
			// Measure real generation: the process-wide dataset cache
			// would otherwise turn every iteration into a map walk.
			svagen.ResetCache()
			retries := 0
			for _, inst := range svagen.Dataset(100) {
				retries += inst.Retries
			}
			if i == 0 {
				b.Logf("total retries across 100 instances: %d", retries)
			}
		}
	})
}

// BenchmarkAblationFeedback measures the §6 future-work extension: a
// tool-feedback refinement loop around a weak model, comparing syntax
// pass rates with and without retries. The wrapped model is not in the
// registry's fleet, so it runs the NL2SVA-Human family directly.
func BenchmarkAblationFeedback(b *testing.B) {
	base := llm.ModelByName("llama-3-8b")
	wrapped := &llm.FeedbackModel{
		Base: base,
		Check: func(_ *llm.Prompt, resp string) error {
			return sva.CheckSyntax(llm.ExtractCode(resp))
		},
		MaxRetries: 2,
	}
	for _, cfg := range []struct {
		name  string
		model llm.Model
	}{{"base", base}, {"with-feedback", wrapped}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := engine.New(engine.Config{}).Run(context.Background(), engine.Human(false), []llm.Model{cfg.model}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					reports := g.ModelReports()
					b.Logf("%s: syntax=%.3f func=%.3f", cfg.model.Name(),
						reports[0].Syntax, reports[0].Func)
				}
			}
		})
	}
}

// BenchmarkAblationLoweringDepth measures SVA lowering and formula
// depth computation across the machine dataset (parser+lowering
// throughput).
func BenchmarkAblationLoweringDepth(b *testing.B) {
	insts := svagen.Dataset(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, inst := range insts {
			f, err := ltl.LowerAssertion(inst.Reference)
			if err != nil {
				b.Fatal(err)
			}
			_ = ltl.Depth(f)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}
