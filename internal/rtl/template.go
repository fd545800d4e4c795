package rtl

import (
	"fmt"
	"slices"
	"sync"

	"fveval/internal/bitvec"
	"fveval/internal/logic"
	"fveval/internal/ltl"
)

// FrameTemplate is a System's one-frame transition function lowered
// once: what bit-blasting every register's Next expression at frame
// p-1 builds, recorded as a tape of logic constructor calls over
// placeholder nodes. Unrolling frame p then replays the tape into the
// unroll's builder instead of walking the expressions again (DESIGN.md
// §15, "Frame templates").
//
// The recording builder numbers its nodes as follows: node 0 is the
// constant, nodes 1..W are the frame-(p-1) register bits (Regs in
// order, each register's bits least significant first, W the sum of
// the register widths), and every later node is an input bit or a
// gate the walk built. A replay seeds remap[0] = logic.False and
// remap[1..W] with the frame-(p-1) state, then runs Steps in order.
//
// A template is read-only once built and is shared by every check of
// its System.
type FrameTemplate struct {
	// Tape holds the walk's And and Mux calls in the order they
	// returned.
	Tape logic.Tape
	// Steps interleaves ranges of Tape with the points where the walk
	// first read a frame-(p-1) input or entered a net.
	Steps []FrameStep
	// Next holds the next-state bits of every register, in Regs
	// order, each extended to the register's width.
	Next []logic.Node
	// Bits backs the net values of StepNetEnd steps.
	Bits []logic.Node
	// Nodes is the length of the remap a replay needs: the recording
	// builder's node count plus the constant.
	Nodes int
	// Err is the error the walk stopped at, nil when it finished. A
	// replay runs every step recorded before it and then reports it, so
	// it surfaces after the same constructor calls as in the walk.
	Err error
}

// StepKind tells what a FrameStep does.
type StepKind uint8

// Step kinds.
const (
	// StepGates replays Tape.Ops[From:To].
	StepGates StepKind = iota
	// StepInput is the walk's first read of input Inputs[Index] at
	// frame p-1: the replay looks the input up, creating it if the
	// unroll has not yet, and maps recording nodes From.. onto its bits.
	StepInput
	// StepNet is the walk entering net Nets[Index]; To is the index of
	// its StepNetEnd step (len(Steps) when the walk failed inside it).
	// A replay that finds the net already evaluated at frame p-1
	// rebinds the steps up to To without counting them, as the walk
	// would have taken the cached value.
	StepNet
	// StepNetEnd is the walk leaving net Nets[Index] with the value
	// Bits[From:To]; a replay records that value for the frame if the
	// net has none yet.
	StepNetEnd
)

// FrameStep is one entry of FrameTemplate.Steps.
type FrameStep struct {
	Kind     StepKind
	Index    int32
	From, To int32
}

// FrameTemplate returns the System's frame template, recording it on
// first use. It returns nil when the transition function reads
// positions other than its own frame ($past and the other sampled-value
// functions): the bit-blasted shape then depends on the frame number,
// and callers walk the expressions frame by frame instead.
func (s *System) FrameTemplate() *FrameTemplate {
	s.tmplOnce.Do(func() { s.tmpl = recordFrameTemplate(s) })
	return s.tmpl
}

// recorders recycles the recording walk's builder and buffers: a
// template keeps exact-size copies of what it recorded, so recording
// one allocates little beyond the template itself.
var recorders = sync.Pool{New: func() any { return &recorder{b: logic.NewBuilder()} }}

func recordFrameTemplate(s *System) *FrameTemplate {
	for _, r := range s.Regs {
		if ltl.ExprUsesPast(r.Next) {
			return nil
		}
	}
	for _, n := range s.Nets {
		if ltl.ExprUsesPast(n.Expr) {
			return nil
		}
	}
	rec := recorders.Get().(*recorder)
	defer recorders.Put(rec)
	rec.reset(s)
	for i, r := range s.Regs {
		rec.states[i] = bitvec.Inputs(rec.b, r.Width)
	}
	var walkErr error
	rec.b.Record(&rec.tape)
	for _, r := range s.Regs {
		next, err := rec.ev.Eval(r.Next, 0)
		if err != nil {
			walkErr = err
			rec.next = rec.next[:0]
			break
		}
		rec.next = append(rec.next, next.Extend(r.Width).Bits...)
	}
	rec.b.Record(nil)
	rec.flush()
	for i := range rec.steps {
		if rec.steps[i].Kind == StepNet && rec.steps[i].To == 0 {
			rec.steps[i].To = int32(len(rec.steps))
		}
	}
	t := &FrameTemplate{
		Tape:  logic.Tape{Ops: slices.Clone(rec.tape.Ops)},
		Steps: slices.Clone(rec.steps),
		Next:  slices.Clone(rec.next),
		Bits:  slices.Clone(rec.bits),
		Nodes: rec.b.NumNodes() + 1,
		Err:   walkErr,
	}
	rec.release()
	return t
}

// recorder is the ltl.Env of the recording walk: one frame, position
// 0, whose registers are placeholders and whose inputs and nets are
// materialized on first read, each read logged as a step.
type recorder struct {
	sys     *System
	b       *logic.Builder
	ev      *ltl.ExprEval
	tape    logic.Tape
	steps   []FrameStep
	next    []logic.Node
	bits    []logic.Node
	states  []bitvec.BV
	inputs  []bitvec.BV
	nets    []bitvec.BV
	busy    []bool
	flushed int // tape ops already covered by a StepGates step
}

// reset readies a recycled recorder for a walk over s.
func (r *recorder) reset(s *System) {
	r.sys = s
	r.b.Reset()
	r.ev = &ltl.ExprEval{Ops: bitvec.Ops{B: r.b}, Env: r}
	r.tape.Ops = r.tape.Ops[:0]
	r.steps = r.steps[:0]
	r.next = r.next[:0]
	r.bits = r.bits[:0]
	r.states = resized(r.states, len(s.Regs))
	r.inputs = resized(r.inputs, len(s.Inputs))
	r.nets = resized(r.nets, len(s.Nets))
	r.busy = resized(r.busy, len(s.Nets))
	r.flushed = 0
}

// release drops the walk's references so the pool keeps only storage.
func (r *recorder) release() {
	clear(r.states)
	clear(r.inputs)
	clear(r.nets)
	r.sys, r.ev = nil, nil
}

// resized returns s with length n and every element zero.
func resized[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// flush closes the run of tape ops recorded since the last step.
func (r *recorder) flush() {
	if n := len(r.tape.Ops); n > r.flushed {
		r.steps = append(r.steps, FrameStep{Kind: StepGates, From: int32(r.flushed), To: int32(n)})
		r.flushed = n
	}
}

// step appends a marker step after the pending tape ops and returns
// its index.
func (r *recorder) step(k StepKind, index, from, to int) int {
	r.flush()
	r.steps = append(r.steps, FrameStep{Kind: k, Index: int32(index), From: int32(from), To: int32(to)})
	return len(r.steps) - 1
}

// Signal implements ltl.Env, resolving names in the same order as the
// unroll's own environment: registers, then inputs, then nets. A
// System whose transition reads other positions has no template, so
// pos is always 0 here.
func (r *recorder) Signal(name string, pos int) (bitvec.BV, error) {
	if i, ok := r.sys.regIdx[name]; ok {
		return r.states[i], nil
	}
	if i, ok := r.sys.inIdx[name]; ok {
		if r.inputs[i].Bits == nil {
			first := r.b.NumNodes() + 1
			r.inputs[i] = bitvec.Inputs(r.b, r.sys.Widths[name])
			r.step(StepInput, i, first, 0)
		}
		return r.inputs[i], nil
	}
	i, ok := r.sys.netIdx[name]
	if !ok {
		return bitvec.BV{}, &ltl.ElabError{Reason: fmt.Sprintf("undeclared identifier %q", name)}
	}
	if v := r.nets[i]; v.Bits != nil {
		return v, nil
	}
	if r.busy[i] {
		return bitvec.BV{}, &ltl.ElabError{Reason: "combinational loop through \"" + name + "\""}
	}
	r.busy[i] = true
	begin := r.step(StepNet, i, 0, 0)
	v, err := r.ev.Eval(r.sys.Nets[i].Expr, pos)
	r.busy[i] = false
	if err != nil {
		return bitvec.BV{}, err
	}
	v = v.Extend(r.sys.Nets[i].Width)
	if v.Bits == nil {
		v.Bits = []logic.Node{} // an empty value still marks the net evaluated
	}
	r.nets[i] = v
	from := len(r.bits)
	r.bits = append(r.bits, v.Bits...)
	r.steps[begin].To = int32(r.step(StepNetEnd, i, from, len(r.bits)))
	return v, nil
}

// SignalWidth implements ltl.Env.
func (r *recorder) SignalWidth(name string) (int, bool) {
	w, ok := r.sys.Widths[name]
	return w, ok
}

// Constant implements ltl.Env.
func (r *recorder) Constant(name string) (uint64, int, bool) {
	c, ok := r.sys.Consts[name]
	return c.Value, c.Width, ok
}
