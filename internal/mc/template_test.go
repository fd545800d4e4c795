package mc

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"fveval/internal/bitvec"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/helpergen"
	"fveval/internal/logic"
	"fveval/internal/rtl"
)

// templateFrames is how many frames the differential test unrolls.
const templateFrames = 10

// unrolled is everything an unroll leaves observable: the builder and
// the environment's signal values, plus the errors it reported.
type unrolled struct {
	b    *logic.Builder
	fe   *frameEnv
	errs []string
}

// unrollFrames unrolls sys frame by frame, either replaying its frame
// template or (walk) bit-blasting every Next expression the way the
// template records it. With force, every input and net is read at the
// frontier before the next frame is built — what a property evaluated
// between two unroll steps of an incremental session does — so the
// template must find those values already built and reuse them.
func unrollFrames(sys *rtl.System, free, walk, force bool) unrolled {
	u := unrolled{b: logic.NewBuilder()}
	u.fe = newFrameEnv(u.b, sys)
	u.fe.initFrame0(free)
	for p := 1; p < templateFrames; p++ {
		if force {
			for _, in := range sys.Inputs {
				if _, err := u.fe.Signal(in.Name, p-1); err != nil {
					u.errs = append(u.errs, err.Error())
				}
			}
			for i := len(sys.Nets) - 1; i >= 0; i-- {
				if _, err := u.fe.Signal(sys.Nets[i].Name, p-1); err != nil {
					u.errs = append(u.errs, err.Error())
				}
			}
		}
		var err error
		if walk {
			err = u.fe.walkFrame(p)
		} else {
			err = u.fe.unroll(p + 1)
		}
		if err != nil {
			u.errs = append(u.errs, fmt.Sprintf("frame %d: %v", p, err))
			break
		}
	}
	return u
}

// sameUnroll reports the first difference between two unrolls: node
// by node structure, inputs, hash hits, and every (signal, frame)
// vector.
func sameUnroll(a, b unrolled) error {
	if !slices.Equal(a.errs, b.errs) {
		return fmt.Errorf("errors %q, want %q", b.errs, a.errs)
	}
	if a.b.NumNodes() != b.b.NumNodes() {
		return fmt.Errorf("%d nodes, want %d", b.b.NumNodes(), a.b.NumNodes())
	}
	for i := 1; i <= a.b.NumNodes(); i++ {
		n := logic.Node(i << 1)
		ax, ay := a.b.Fanins(n)
		bx, by := b.b.Fanins(n)
		if a.b.IsInput(n) != b.b.IsInput(n) || ax != bx || ay != by {
			return fmt.Errorf("node %d differs", i)
		}
	}
	if !slices.Equal(a.b.Inputs(), b.b.Inputs()) {
		return fmt.Errorf("inputs differ")
	}
	if a.b.HashHits() != b.b.HashHits() {
		return fmt.Errorf("%d hash hits, want %d", b.b.HashHits(), a.b.HashHits())
	}
	if a.fe.frames != b.fe.frames {
		return fmt.Errorf("%d frames, want %d", b.fe.frames, a.fe.frames)
	}
	for _, c := range []struct {
		kind string
		a, b []bitvec.BV
	}{{"state", a.fe.states, b.fe.states}, {"input", a.fe.inputs, b.fe.inputs}, {"net", a.fe.nets, b.fe.nets}} {
		if len(c.a) != len(c.b) {
			return fmt.Errorf("%d %s slots, want %d", len(c.b), c.kind, len(c.a))
		}
		for k := range c.a {
			if (c.a[k].Bits == nil) != (c.b[k].Bits == nil) || !slices.Equal(c.a[k].Bits, c.b[k].Bits) {
				return fmt.Errorf("%s slot %d: %v, want %v", c.kind, k, c.b[k].Bits, c.a[k].Bits)
			}
		}
	}
	return nil
}

// templateSystems returns the systems the differential test covers:
// the base system of every Design2SVA instance, every AGR helper system
// and synthetic designs aimed at the replay's edge cases.
func templateSystems(t *testing.T) map[string]*rtl.System {
	t.Helper()
	out := map[string]*rtl.System{}
	for _, kind := range []string{"pipeline", "fsm"} {
		for _, inst := range rtlgen.Sweep96(kind) {
			f, err := rtl.Parse(inst.Design + "\n" + inst.Bench)
			if err != nil {
				t.Fatalf("%s: %v", inst.ID, err)
			}
			sys, err := rtl.ElaborateBound(f, inst.DUTTop, inst.BenchTop, nil)
			if err != nil {
				t.Fatalf("%s: %v", inst.ID, err)
			}
			out[inst.ID] = sys
		}
	}
	for _, inst := range helpergen.Sweep() {
		i := strings.LastIndex(inst.Bench, "endmodule")
		bench := inst.Bench[:i] + "\n" + inst.Target + "\n" + inst.Bench[i:]
		f, err := rtl.Parse(inst.Design + "\n" + bench)
		if err != nil {
			t.Fatalf("%s: %v", inst.ID, err)
		}
		sys, err := rtl.ElaborateBound(f, inst.DUTTop, inst.BenchTop, nil)
		if err != nil {
			t.Fatalf("%s: %v", inst.ID, err)
		}
		out["agr/"+inst.ID] = sys
	}
	for name, src := range map[string]string{
		// Two registers with one next-state function: from frame 2 on
		// (frame 1 under free init) the selected values coincide, so
		// the Mux must fold where its recording did not.
		"mux-same": `
module m(clk, s, d, q);
input clk;
input s;
input [3:0] d;
output reg [3:0] q;
reg [3:0] a;
reg [3:0] b;
always @(posedge clk) begin
  a <= d;
  b <= d;
  q <= s ? a : b;
end
endmodule`,
		// A combinational loop between two nets, reached from Next.
		// Elaboration computes reset values with every input low, so
		// it never takes the branch that closes the loop.
		"comb-loop": `
module m(clk, x, y, r);
input clk;
input x;
input y;
output reg r;
wire w1;
wire w2;
assign w1 = x ? w2 : y;
assign w2 = w1 | y;
always @(posedge clk) r <= w1;
endmodule`,
		// A net only a property would read, beside one Next reads, and
		// an input Next never reads.
		"prop-only-net": `
module m(clk, x, y, z, r);
input clk;
input [2:0] x;
input [2:0] y;
input z;
output reg [2:0] r;
wire [2:0] used;
wire [2:0] unused;
assign used = x + r;
assign unused = x ^ y;
always @(posedge clk) r <= (used > y) ? used : y;
endmodule`,
		// An undriven wire is declared but no net: reading it from Next
		// fails as an undeclared identifier at the first frame (and
		// elaboration, on the branch it takes, never reads it).
		"undeclared-next": `
module m(clk, x, r);
input clk;
input x;
output reg r;
wire undriven;
always @(posedge clk) r <= x ? undriven : 1'b0;
endmodule`,
		// Nets from one always_comb block share their branch condition.
		"shared-cond": `
module m(clk, s, x, y, q);
input clk;
input [1:0] s;
input [3:0] x;
input [3:0] y;
output reg [3:0] q;
logic [3:0] a;
logic [3:0] b;
always_comb begin
  if (s == 2'd1) begin a = x; b = y; end
  else begin a = y + x; b = x; end
end
always @(posedge clk) q <= a ^ b;
endmodule`,
	} {
		f, err := rtl.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sys, err := rtl.Elaborate(f, "m", nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out["synthetic/"+name] = sys
	}
	return out
}

// TestFrameTemplateMatchesExprEval unrolls every covered system both
// ways — from reset and from a free initial state, with and without
// frontier reads between frames — and requires the template replay to
// build exactly what the expression walk builds: the same nodes in the
// same order, the same hash hits, the same value for every signal at
// every frame, and the same errors at the same frame.
func TestFrameTemplateMatchesExprEval(t *testing.T) {
	systems := templateSystems(t)
	names := make([]string, 0, len(systems))
	for name := range systems {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		sys := systems[name]
		if sys.FrameTemplate() == nil {
			t.Fatalf("%s: no frame template", name)
		}
		for _, free := range []bool{false, true} {
			for _, force := range []bool{false, true} {
				walked := unrollFrames(sys, free, true, force)
				replayed := unrollFrames(sys, free, false, force)
				if err := sameUnroll(walked, replayed); err != nil {
					t.Errorf("%s free=%v force=%v: template replay: %v", name, free, force, err)
				}
			}
		}
	}
	for name, want := range map[string]string{
		"synthetic/comb-loop":       "combinational loop",
		"synthetic/undeclared-next": "undeclared identifier",
	} {
		u := unrollFrames(systems[name], false, false, false)
		if len(u.errs) != 1 || !strings.HasPrefix(u.errs[0], "frame 1: ") || !strings.Contains(u.errs[0], want) {
			t.Errorf("%s: errors %q, want one %q error at frame 1", name, u.errs, want)
		}
	}
}

// TestFrameTemplateSkipsSampledValues checks that a transition reading
// an earlier frame gets no template and still unrolls by the walk.
func TestFrameTemplateSkipsSampledValues(t *testing.T) {
	f, err := rtl.Parse(`
module m(clk, x, r);
input clk;
input x;
output reg r;
always @(posedge clk) r <= x ? $past(x) : 1'b0;
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rtl.Elaborate(f, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.FrameTemplate() != nil {
		t.Fatal("a transition reading $past got a frame template")
	}
	for _, free := range []bool{false, true} {
		if err := sameUnroll(unrollFrames(sys, free, true, true), unrollFrames(sys, free, false, true)); err != nil {
			t.Errorf("free=%v: %v", free, err)
		}
	}
}
