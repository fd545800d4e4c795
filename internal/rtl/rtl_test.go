package rtl

import (
	"reflect"
	"testing"
)

// fsmSrc is the FSM design from the paper's Design2SVA appendix (C.1).
const fsmSrc = "`define WIDTH 32\n" + `
module fsm(clk, reset_, in_A, in_B, in_C, in_D, fsm_out);
parameter WIDTH = ` + "`WIDTH" + `;
parameter FSM_WIDTH = 2;
parameter S0 = 2'b00;
parameter S1 = 2'b01;
parameter S2 = 2'b10;
parameter S3 = 2'b11;
input clk;
input reset_;
input [WIDTH-1:0] in_A;
input [WIDTH-1:0] in_B;
input [WIDTH-1:0] in_C;
input [WIDTH-1:0] in_D;
output reg [FSM_WIDTH-1:0] fsm_out;
reg [FSM_WIDTH-1:0] state, next_state;
always_ff @(posedge clk or negedge reset_) begin
  if (!reset_) begin
    state <= S0;
  end else begin
    state <= next_state;
  end
end
always_comb begin
  case(state)
    S0: begin next_state = S2; end
    S1: begin next_state = S3; end
    S2: begin
      if (((in_A != in_B) < 'd1)) begin next_state = S0; end
      else begin next_state = S1; end
    end
    S3: begin end
  endcase
end
always_comb begin
  fsm_out = state;
end
endmodule
`

// pipeSrc is a reduced version of the paper's pipeline example.
const pipeSrc = "`define WIDTH 8\n`define DEPTH 3\n" + `
module exec_unit_0 (clk, reset_, in_data, in_vld, out_data, out_vld);
parameter WIDTH = ` + "`WIDTH" + `;
localparam DEPTH = 3;
input clk;
input reset_;
input [WIDTH-1:0] in_data;
input in_vld;
output [WIDTH-1:0] out_data;
output out_vld;
logic [DEPTH:0] ready;
logic [DEPTH:0][WIDTH-1:0] data;
assign ready[0] = in_vld;
assign data[0] = in_data;
assign out_vld = ready[DEPTH];
assign out_data = data[DEPTH];
generate
for (genvar i=0; i < DEPTH; i=i+1) begin : gen
  always @(posedge clk) begin
    if (!reset_) begin
      ready[i+1] <= 'd0;
      data[i+1] <= 'd0;
    end else begin
      ready[i+1] <= ready[i];
      data[i+1] <= ((data[i] ^ 9) + 4);
    end
  end
end
endgenerate
endmodule

module pipeline (clk, reset_, in_vld, in_data, out_vld, out_data);
parameter WIDTH=` + "`WIDTH" + `;
parameter DEPTH=` + "`DEPTH" + `;
input clk;
input reset_;
input in_vld;
input [WIDTH-1:0] in_data;
output out_vld;
output [WIDTH-1:0] out_data;
wire [DEPTH:0] ready;
wire [DEPTH:0][WIDTH-1:0] data;
assign ready[0] = in_vld;
assign data[0] = in_data;
assign out_vld = ready[DEPTH];
assign out_data = data[DEPTH];
exec_unit_0 #(.WIDTH(WIDTH)) unit_0 (
  .clk(clk), .reset_(reset_),
  .in_data(data[0]), .in_vld(ready[0]),
  .out_data(data[3]), .out_vld(ready[3])
);
endmodule
`

// fifoSrc is the paper's 1R1W FIFO testbench (Appendix A.1), lightly
// reduced in depth for test speed.
const fifoSrc = `
module fifo_1r1w_tb (clk, reset_, wr_vld, wr_data, wr_ready, rd_vld, rd_data, rd_ready);
parameter FIFO_DEPTH = 4;
parameter DATA_WIDTH = 1;
localparam FIFO_DEPTH_log2 = $clog2(FIFO_DEPTH);
input clk;
input reset_;
input wr_vld;
input [DATA_WIDTH-1:0] wr_data;
input wr_ready;
input rd_vld;
input [DATA_WIDTH-1:0] rd_data;
input rd_ready;
wire wr_push;
wire rd_pop;
wire tb_reset;
assign tb_reset = (reset_ == 1'b0);
wire fifo_full;
assign wr_push = wr_vld && wr_ready;
assign rd_pop = rd_vld && rd_ready;
reg [DATA_WIDTH-1:0] fifo_array [FIFO_DEPTH-1:0];
reg [FIFO_DEPTH_log2-1:0] fifo_rd_ptr;
reg fifo_empty;
wire [DATA_WIDTH-1:0] fifo_out_data;
always @(posedge clk) begin
  if (!reset_) fifo_array[0] <= 'd0;
  else if (wr_push) begin
    fifo_array[0] <= wr_data;
  end else fifo_array[0] <= fifo_array[0];
end
for (genvar i = 1; i < FIFO_DEPTH; i++ ) begin : loop_id
  always @(posedge clk) begin
    if (!reset_) fifo_array[i] <= 'd0;
    else if (wr_push) begin
      fifo_array[i] <= fifo_array[i-1];
    end else fifo_array[i] <= fifo_array[i];
  end
end
always @(posedge clk) begin
  if (!reset_) begin
    fifo_rd_ptr <= 'd0;
  end else if (wr_push && fifo_empty) begin
    fifo_rd_ptr <= 'd0;
  end else if (rd_pop && !fifo_empty && (fifo_rd_ptr == 'd0)) begin
    fifo_rd_ptr <= 'd0;
  end else begin
    fifo_rd_ptr <= fifo_rd_ptr + wr_push - rd_pop;
  end
  if (!reset_) begin
    fifo_empty <= 'd1;
  end else if (rd_pop && !fifo_empty && (fifo_rd_ptr == 'd0) && !wr_push) begin
    fifo_empty <= 'd1;
  end else if ((fifo_rd_ptr != 'd0) || wr_push && !rd_pop) begin
    fifo_empty <= 'd0;
  end
end
assign fifo_full = (fifo_rd_ptr == (FIFO_DEPTH - 1)) && !fifo_empty;
assign fifo_out_data = fifo_array[fifo_rd_ptr];
endmodule
`

func elaborate(t *testing.T, src, top string) *System {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sys, err := Elaborate(f, top, nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return sys
}

func TestParseModules(t *testing.T) {
	f, err := Parse(fsmSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Modules) != 1 || f.Modules[0].Name != "fsm" {
		t.Fatalf("modules: %v", f.Modules)
	}
	if len(f.Modules[0].Ports) != 7 {
		t.Fatalf("ports: %v", f.Modules[0].Ports)
	}
	f2, err := Parse(pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Modules) != 2 {
		t.Fatalf("pipeline modules: %d", len(f2.Modules))
	}
}

func TestFSMElaborationAndReset(t *testing.T) {
	sys := elaborate(t, fsmSrc, "fsm")
	i, ok := sys.RegIndex("state")
	if !ok {
		t.Fatalf("state register missing; regs: %v", sys.Regs)
	}
	if st := sys.Regs[i]; st.Init != 0 {
		t.Fatalf("state reset value: %d", st.Init)
	}
	if sys.Consts["S2"].Value != 2 || sys.Consts["S2"].Width != 2 {
		t.Fatalf("parameter S2: %+v", sys.Consts["S2"])
	}
	if w := sys.Widths["in_A"]; w != 32 {
		t.Fatalf("in_A width: %d", w)
	}
}

func TestFSMSimulation(t *testing.T) {
	sys := elaborate(t, fsmSrc, "fsm")
	in := NewInterp(sys)
	run := map[string]uint64{"reset_": 1}
	// Reset state S0; next_state = S2.
	vals, err := in.Step(run)
	if err != nil {
		t.Fatal(err)
	}
	if vals["state"] != 0 {
		t.Fatalf("cycle 0 state: %d", vals["state"])
	}
	if vals["fsm_out"] != 0 {
		t.Fatalf("fsm_out must mirror state, got %d", vals["fsm_out"])
	}
	// S0 -> S2.
	vals, err = in.Step(run)
	if err != nil {
		t.Fatal(err)
	}
	if vals["state"] != 2 {
		t.Fatalf("cycle 1 state: %d want 2 (S2)", vals["state"])
	}
	// In S2 with in_A==in_B: (in_A != in_B) = 0 < 1 -> S0.
	vals, err = in.Step(run)
	if err != nil {
		t.Fatal(err)
	}
	if vals["state"] != 0 {
		t.Fatalf("cycle 2 state: %d want 0 (S0)", vals["state"])
	}
	// In S2 with in_A != in_B: condition false -> S1, then S1 -> S3.
	in2 := NewInterp(sys)
	step2 := map[string]uint64{"reset_": 1, "in_A": 5}
	in2.Step(step2)           // state=S0, next=S2
	vals, _ = in2.Step(step2) // state=S2
	if vals["next_state"] != 1 {
		t.Fatalf("S2 with in_A!=in_B: next %d want 1", vals["next_state"])
	}
	vals, _ = in2.Step(step2) // state=S1
	if vals["state"] != 1 {
		t.Fatalf("state: %d want 1", vals["state"])
	}
	vals, _ = in2.Step(step2) // state=S3
	if vals["state"] != 3 {
		t.Fatalf("state: %d want 3", vals["state"])
	}
	// S3 has an incomplete case arm: next_state latches its previous
	// value (3), so the FSM stays in S3.
	vals, _ = in2.Step(step2)
	if vals["state"] != 3 {
		t.Fatalf("S3 must hold (latch), got %d", vals["state"])
	}
}

func TestPipelineSimulation(t *testing.T) {
	sys := elaborate(t, pipeSrc, "pipeline")
	in := NewInterp(sys)
	run := map[string]uint64{"reset_": 1, "in_vld": 1, "in_data": 7}
	idle := map[string]uint64{"reset_": 1}
	// push one word, then idle; valid must appear DEPTH cycles later.
	vals, err := in.Step(run)
	if err != nil {
		t.Fatal(err)
	}
	if vals["out_vld"] != 0 {
		t.Fatalf("out_vld must be low at cycle 0")
	}
	for i := 0; i < 2; i++ {
		vals, err = in.Step(idle)
		if err != nil {
			t.Fatal(err)
		}
		if vals["out_vld"] != 0 {
			t.Fatalf("out_vld early at cycle %d", i+1)
		}
	}
	vals, err = in.Step(idle)
	if err != nil {
		t.Fatal(err)
	}
	if vals["out_vld"] != 1 {
		t.Fatalf("out_vld must be high after DEPTH=3 cycles")
	}
	// data transform: ((7^9)+4) applied per stage... the first stage
	// registers the transformed value, then passes through the chain.
	want := uint64(7)
	for i := 0; i < 3; i++ {
		want = ((want ^ 9) + 4) & 0xFF
	}
	if vals["out_data"] != want {
		t.Fatalf("out_data: %d want %d", vals["out_data"], want)
	}
}

func TestFIFOTestbenchSimulation(t *testing.T) {
	sys := elaborate(t, fifoSrc, "fifo_1r1w_tb")
	in := NewInterp(sys)
	idle := map[string]uint64{"reset_": 1}
	push := map[string]uint64{"reset_": 1, "wr_vld": 1, "wr_ready": 1, "wr_data": 1}
	pop := map[string]uint64{"reset_": 1, "rd_vld": 1, "rd_ready": 1}

	vals, err := in.Step(idle)
	if err != nil {
		t.Fatal(err)
	}
	if vals["fifo_empty"] != 1 {
		t.Fatalf("fifo must reset empty")
	}
	if vals["tb_reset"] != 0 {
		t.Fatalf("tb_reset must be low when reset_ is high")
	}
	// push two entries
	in.Step(push)
	vals, _ = in.Step(push)
	if vals["fifo_empty"] != 0 {
		t.Fatalf("fifo must be non-empty after push")
	}
	// pop both
	vals, _ = in.Step(pop)
	if vals["rd_pop"] != 1 {
		t.Fatalf("rd_pop must assert")
	}
	vals, _ = in.Step(pop)
	vals, _ = in.Step(idle)
	if vals["fifo_empty"] != 1 {
		t.Fatalf("fifo must drain to empty, ptr=%d empty=%d",
			vals["fifo_rd_ptr"], vals["fifo_empty"])
	}
}

func TestElaborationErrors(t *testing.T) {
	cases := []struct{ name, src, top string }{
		{"undeclared", `module m(a); input a; assign b = a; endmodule`, "m"},
		{"missing module", `module m(a); input a; endmodule`, "zzz"},
		{"bad instance", `module m(); foo u0 (.x(1)); endmodule`, "m"},
		{"multiply driven", `module m(a); input a; wire w; assign w = a; assign w = !a; endmodule`, "m"},
		{"undefined macro", "module m(a); input a; wire [`W-1:0] x; endmodule", "m"},
	}
	for _, c := range cases {
		f, err := Parse(c.src)
		if err != nil {
			continue // parse-level failure acceptable
		}
		if _, err := Elaborate(f, c.top, nil); err == nil {
			t.Errorf("%s: expected elaboration error", c.name)
		}
	}
}

func TestAssertionsCollected(t *testing.T) {
	src := `module m(clk, a, b); input clk; input a; input b;
	my_check: assert property (@(posedge clk) a |-> b);
	assert property (@(posedge clk) b |-> a);
	endmodule`
	sys := elaborate(t, src, "m")
	if len(sys.Asserts) != 2 {
		t.Fatalf("asserts: %d", len(sys.Asserts))
	}
	if sys.Asserts[0].Label != "my_check" {
		t.Fatalf("label: %q", sys.Asserts[0].Label)
	}
}

func TestParameterOverride(t *testing.T) {
	src := `module m(clk, x); parameter W = 4; input clk; input [W-1:0] x; endmodule`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Elaborate(f, "m", map[string]uint64{"W": 8})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Widths["x"] != 8 {
		t.Fatalf("width with override: %d", sys.Widths["x"])
	}
}

func TestBoundElaboration(t *testing.T) {
	tbSrc := "`define WIDTH 32\n" + `
module fsm_tb(clk, reset_, in_A, in_B, in_C, in_D, fsm_out);
parameter WIDTH = ` + "`WIDTH" + `;
parameter FSM_WIDTH = 2;
parameter S0 = 2'b00;
parameter S1 = 2'b01;
parameter S2 = 2'b10;
parameter S3 = 2'b11;
input clk;
input reset_;
input [WIDTH-1:0] in_A;
input [WIDTH-1:0] in_B;
input [WIDTH-1:0] in_C;
input [WIDTH-1:0] in_D;
input reg [FSM_WIDTH-1:0] fsm_out;
wire tb_reset;
assign tb_reset = (reset_ == 1'b0);
endmodule
`
	f, err := Parse(fsmSrc + tbSrc)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ElaborateBound(f, "fsm", "fsm_tb", nil)
	if err != nil {
		t.Fatal(err)
	}
	// tb port fsm_out must alias the DUT output.
	if _, ok := sys.NetByName("fsm_out"); !ok {
		t.Fatalf("fsm_out must be a bound net")
	}
	// DUT internals live under dut. and are not tb-visible names.
	if _, ok := sys.Widths["state"]; ok {
		t.Fatalf("DUT internal 'state' leaked into testbench namespace")
	}
	if _, ok := sys.Widths["dut.state"]; !ok {
		t.Fatalf("dut.state missing")
	}
	// Simulate: fsm_out mirrors the DUT.
	in := NewInterp(sys)
	run := map[string]uint64{"reset_": 1}
	in.Step(run)
	vals, err := in.Step(run)
	if err != nil {
		t.Fatal(err)
	}
	if vals["fsm_out"] != 2 {
		t.Fatalf("bound fsm_out: %d want 2", vals["fsm_out"])
	}
}

// TestParseItemsMatchesModuleBody checks that items parsed on their own
// equal the same text parsed as a module body, and that a module
// boundary inside the text is an error.
func TestParseItemsMatchesModuleBody(t *testing.T) {
	body := "logic seen;\nassign seen = !rst;\n" +
		"p_seen: assert property (@(posedge clk) seen |-> !rst);\n" +
		"always_ff @(posedge clk) begin if (rst) cnt <= 'd0; else cnt <= cnt + 'd1; end\n"
	items, err := ParseItems(body)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse("module m;\n" + body + "endmodule\n")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(items, f.Modules[0].Items) {
		t.Fatalf("items differ from the module body:\n%#v\n%#v", items, f.Modules[0].Items)
	}
	for _, bad := range []string{"endmodule module x;", "assign a = `W;", "/* open"} {
		if _, err := ParseItems(bad); err == nil {
			t.Errorf("ParseItems(%q): want an error", bad)
		}
	}
}
