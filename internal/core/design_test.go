package core

import (
	"fmt"
	"sync"
	"testing"

	"fveval/internal/gen/rtlgen"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
	"fveval/internal/mc"
	"fveval/internal/rtl"
	"fveval/internal/sva"
)

// oracleJudgeDesign is the Design2SVA judge with no instance cache:
// parse the design and the bench with the snippet inserted as one
// text, then elaborate and check exactly as JudgeDesign does.
func oracleJudgeDesign(inst *rtlgen.Instance, snippet string) (syntaxOK, proven bool) {
	f, err := rtl.Parse(inst.Design + "\n" + insertBeforeEndmodule(inst.Bench, snippet))
	if err != nil {
		return false, false
	}
	sys, err := rtl.ElaborateBound(f, inst.DUTTop, inst.BenchTop, nil)
	if err != nil || len(sys.Asserts) == 0 {
		return false, false
	}
	for _, a := range sys.Asserts {
		if sva.Validate(a) != nil {
			return false, false
		}
	}
	proven = true
	for _, a := range sys.Asserts {
		res, err := mc.CheckAssertion(sys, a, mc.Options{})
		if err != nil {
			return false, false
		}
		if res.Status != mc.Proven {
			proven = false
		}
	}
	return true, proven
}

// edgeSnippets probe the boundary between the spliced parse and the
// merged-text parse.
var edgeSnippets = []string{
	"`define WIDTH 3",
	"`define WIDTH 3\nassert property (@(posedge clk) disable iff (tb_reset) WIDTH != 3);",
	"assert property (@(posedge clk) disable iff (tb_reset) (WIDTH == `WIDTH));",
	"endmodule module x;",
	"assert property (@(posedge clk) disable iff (tb_reset) 1'b1); endmodule module x;",
	"/* unterminated",
	"assert property (@(posedge clk) 1'b1); /* unterminated",
	"assert property (",
	"assert property (@(posedge clk) disable iff (tb_reset) 1'b1",
	"",
	"// a comment, and no assertion",
	"/* a block comment */",
	"; assert property (@(posedge clk) disable iff (tb_reset) 1'b1);",
	"else",
	"p_label: assert property (@(posedge clk) disable iff (tb_reset) tb_reset |-> tb_reset);",
	"logic seen;\nassign seen = !tb_reset;\nassert property (@(posedge clk) seen |-> !tb_reset);",
	"logic [3:0] cnt;\nassign cnt = 4'd2;\nassert property (@(posedge clk) disable iff (tb_reset) cnt == 4'd3);",
	"assert property (@(posedge clk) disable iff (tb_reset) ghost);",
}

// fleetSnippets returns the distinct code every Design2SVA proxy model
// emits for inst over the paper's five samples.
func fleetSnippets(inst *rtlgen.Instance) []string {
	p := llm.BuildDesignPrompt(inst)
	seen := map[string]bool{}
	var out []string
	for _, m := range llm.DesignModels() {
		for s := 0; s < 5; s++ {
			code := llm.ExtractCode(m.Generate(p, s))
			if !seen[code] {
				seen[code] = true
				out = append(out, code)
			}
		}
	}
	return out
}

// TestJudgeDesignMatchesMergedParse checks the cached-instance judge
// against the merged-text oracle on every Sweep96 instance, for every
// snippet the proxy fleet emits and every edge snippet.
func TestJudgeDesignMatchesMergedParse(t *testing.T) {
	ResetMemos()
	for _, kind := range []string{"pipeline", "fsm"} {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			var judged, proved int
			for _, inst := range rtlgen.Sweep96(kind) {
				for _, code := range append(fleetSnippets(inst), edgeSnippets...) {
					syn, prov := JudgeDesign(inst, code, mc.Options{})
					wantSyn, wantProv := oracleJudgeDesign(inst, code)
					if syn != wantSyn || prov != wantProv {
						t.Errorf("%s: snippet %q: got (%v, %v), oracle (%v, %v)", inst.ID, code, syn, prov, wantSyn, wantProv)
					}
					judged++
					if prov {
						proved++
					}
				}
			}
			if proved == 0 || proved == judged {
				t.Fatalf("degenerate corpus: %d of %d snippets proved", proved, judged)
			}
		})
	}
}

// TestInstanceCachesSharedAcrossGoroutines judges one design instance
// and one AGR instance from eight goroutines at once, each with its own
// snippet, starting from cold caches, and compares every verdict with a
// sequential run. Run under -race: the cached AST and elaborated system
// are shared read-only between workers.
func TestInstanceCachesSharedAcrossGoroutines(t *testing.T) {
	design := rtlgen.Sweep96("fsm")[5]
	designSnips := append(fleetSnippets(design), edgeSnippets...)
	agr := helpergen.Sweep()[0]
	agrSnips := []string{
		"",
		"assert property (@(posedge clk) 1'b1);",
		"h1: assert property (@(posedge clk) disable iff (tb_reset) 1'b1);",
		"h2: assert property (@(posedge clk) disable iff (tb_reset) ghost);",
		agr.Target,
	}
	type verdict [3]bool
	judge := func(i int) (verdict, verdict) {
		s, p := JudgeDesign(design, designSnips[i%len(designSnips)], mc.Options{})
		hs, hv, hu := JudgeHelper(agr, agrSnips[i%len(agrSnips)], mc.Options{})
		return verdict{s, p}, verdict{hs, hv, hu}
	}
	const workers = 8
	var wantD, wantH [workers]verdict
	for i := 0; i < workers; i++ {
		wantD[i], wantH[i] = judge(i)
	}
	ResetMemos()
	var wg sync.WaitGroup
	errs := make([]string, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if d, h := judge(i); d != wantD[i] || h != wantH[i] {
				errs[i] = fmt.Sprintf("worker %d: design %v want %v, agr %v want %v", i, d, wantD[i], h, wantH[i])
			}
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
}
