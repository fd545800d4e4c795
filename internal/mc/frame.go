package mc

import (
	"fmt"
	"slices"

	"fveval/internal/bitvec"
	"fveval/internal/logic"
	"fveval/internal/ltl"
	"fveval/internal/rtl"
)

// frameEnv implements ltl.Env over an unrolled transition system.
// Signal values live in dense frame-major slices indexed through the
// System's signal positions: register r at frame p is
// states[p*len(Regs)+r], and inputs and nets are laid out the same way.
// An input or net whose Bits slice is nil has not been built at that
// frame yet. The slices, the bit storage behind the values the
// environment builds itself and the template remap keep their capacity
// when a recycled store hands the environment to its next check.
type frameEnv struct {
	b      *logic.Builder
	sys    *rtl.System
	ev     *ltl.ExprEval
	frames int // frames whose register states are built

	states []bitvec.BV
	inputs []bitvec.BV
	nets   []bitvec.BV
	busy   []bool
	bits   []logic.Node // backing storage of built values
	remap  []logic.Node // frame-template replay: recording node -> node

	// dsim, when non-nil, is the store's counterexample decoder; an
	// environment outside a store decodes on a fresh simulator.
	dsim *logic.Sim
}

func newFrameEnv(b *logic.Builder, sys *rtl.System) *frameEnv {
	fe := &frameEnv{}
	fe.reset(b, sys)
	return fe
}

// reset points the environment at a builder and system with no frame
// built, keeping the capacity of its slices.
func (fe *frameEnv) reset(b *logic.Builder, sys *rtl.System) {
	fe.b, fe.sys, fe.frames = b, sys, 0
	fe.ev = &ltl.ExprEval{Ops: bitvec.Ops{B: b}, Env: fe}
	fe.states = fe.states[:0]
	fe.inputs = fe.inputs[:0]
	fe.nets = fe.nets[:0]
	fe.busy = fe.busy[:0]
	if fe.bits == nil {
		// Non-nil storage keeps zero-width values non-nil, that is, built.
		fe.bits = make([]logic.Node, 0, 256)
	}
	fe.bits = fe.bits[:0]
}

// release drops everything the environment refers to beyond its own
// storage, so a store on the free list keeps no finished check alive.
func (fe *frameEnv) release() {
	clear(fe.states)
	clear(fe.inputs)
	clear(fe.nets)
	fe.b, fe.sys, fe.ev = nil, nil, nil
}

// grow extends s with zero values to length n.
func grow[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	old := len(s)
	s = slices.Grow(s, n-old)[:n]
	clear(s[old:])
	return s
}

// cover sizes the input and net slices to hold position pos.
func (fe *frameEnv) cover(pos int) {
	fe.inputs = grow(fe.inputs, (pos+1)*len(fe.sys.Inputs))
	fe.nets = grow(fe.nets, (pos+1)*len(fe.sys.Nets))
	fe.busy = grow(fe.busy, (pos+1)*len(fe.sys.Nets))
}

// state returns register r's value at a built frame.
func (fe *frameEnv) state(r, pos int) bitvec.BV {
	return fe.states[pos*len(fe.sys.Regs)+r]
}

// inputAt returns input i's value at pos, zero if it was never built.
func (fe *frameEnv) inputAt(i, pos int) bitvec.BV {
	if k := pos*len(fe.sys.Inputs) + i; k < len(fe.inputs) {
		return fe.inputs[k]
	}
	return bitvec.BV{}
}

// input returns input i's value at a covered pos, creating its free
// variables on first use.
func (fe *frameEnv) input(i, pos int) bitvec.BV {
	k := pos*len(fe.sys.Inputs) + i
	if fe.inputs[k].Bits == nil {
		start := len(fe.bits)
		for range fe.sys.Widths[fe.sys.Inputs[i].Name] {
			fe.bits = append(fe.bits, fe.b.Input())
		}
		fe.inputs[k] = bitvec.BV{Bits: fe.bits[start:len(fe.bits):len(fe.bits)]}
	}
	return fe.inputs[k]
}

// initFrame0 seats frame-0 register values: concrete reset values, or
// fresh variables for the inductive step.
func (fe *frameEnv) initFrame0(free bool) {
	for _, r := range fe.sys.Regs {
		start := len(fe.bits)
		for i := range r.Width {
			switch {
			case free:
				fe.bits = append(fe.bits, fe.b.Input())
			case i < 64 && r.Init&(1<<uint(i)) != 0:
				fe.bits = append(fe.bits, logic.True)
			default:
				fe.bits = append(fe.bits, logic.False)
			}
		}
		fe.states = append(fe.states, bitvec.BV{Bits: fe.bits[start:len(fe.bits):len(fe.bits)]})
	}
	fe.frames = 1
}

// unroll extends register states through frame n (exclusive). Each
// frame replays the System's frame template; a System without one is
// walked expression by expression.
func (fe *frameEnv) unroll(n int) error {
	for p := fe.frames; p < n; p++ {
		var err error
		if t := fe.sys.FrameTemplate(); t != nil {
			err = fe.replayFrame(p, t)
		} else {
			err = fe.walkFrame(p)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// walkFrame builds frame p by bit-blasting every register's Next
// expression at p-1: the construction a frame template records.
func (fe *frameEnv) walkFrame(p int) error {
	for _, r := range fe.sys.Regs {
		next, err := fe.ev.Eval(r.Next, p-1)
		if err != nil {
			fe.states = fe.states[:p*len(fe.sys.Regs)]
			return err
		}
		fe.states = append(fe.states, next.Extend(r.Width))
	}
	fe.frames = p + 1
	return nil
}

// replayFrame builds frame p by replaying the template over frame p-1:
// the same constructor calls, in the same order, as walkFrame makes,
// so node ids and every solver step downstream repeat.
func (fe *frameEnv) replayFrame(p int, t *rtl.FrameTemplate) error {
	fe.remap = grow(fe.remap, t.Nodes)
	remap := fe.remap
	remap[0] = logic.False
	k := 1
	for r := range fe.sys.Regs {
		k += copy(remap[k:], fe.state(r, p-1).Bits)
	}
	fe.cover(p - 1)
	nets := fe.nets[(p-1)*len(fe.sys.Nets):]
	rebind := -1 // the StepNetEnd closing the net being rebound
	for i := range t.Steps {
		st := &t.Steps[i]
		switch st.Kind {
		case rtl.StepGates:
			if rebind >= 0 {
				fe.b.Rebind(t.Tape.Ops[st.From:st.To], remap)
			} else {
				fe.b.Replay(t.Tape.Ops[st.From:st.To], remap)
			}
		case rtl.StepInput:
			copy(remap[st.From:], fe.input(int(st.Index), p-1).Bits)
		case rtl.StepNet:
			if rebind < 0 && nets[st.Index].Bits != nil {
				rebind = int(st.To)
			}
		case rtl.StepNetEnd:
			if nets[st.Index].Bits == nil {
				nets[st.Index] = fe.keepMapped(t.Bits[st.From:st.To])
			}
			if i == rebind {
				rebind = -1
			}
		}
	}
	if t.Err != nil {
		return t.Err
	}
	off := 0
	for _, r := range fe.sys.Regs {
		fe.states = append(fe.states, fe.keepMapped(t.Next[off:off+r.Width]))
		off += r.Width
	}
	fe.frames = p + 1
	return nil
}

// keepMapped stores the replay nodes of recorded nodes.
func (fe *frameEnv) keepMapped(rec []logic.Node) bitvec.BV {
	start := len(fe.bits)
	for _, n := range rec {
		fe.bits = append(fe.bits, logic.Remapped(fe.remap, n))
	}
	return bitvec.BV{Bits: fe.bits[start:len(fe.bits):len(fe.bits)]}
}

// Signal implements ltl.Env.
func (fe *frameEnv) Signal(name string, pos int) (bitvec.BV, error) {
	r, isReg := fe.sys.RegIndex(name)
	if isReg && pos < fe.frames {
		return fe.state(r, pos), nil
	}
	if i, ok := fe.sys.InputIndex(name); ok {
		fe.cover(pos)
		return fe.input(i, pos), nil
	}
	if isReg {
		// register value requested beyond the unrolled range
		return bitvec.BV{}, &ltl.ElabError{Reason: fmt.Sprintf("register %s not unrolled at %d", name, pos)}
	}
	n, ok := fe.sys.NetIndex(name)
	if !ok {
		return bitvec.BV{}, &ltl.ElabError{Reason: fmt.Sprintf("undeclared identifier %q", name)}
	}
	fe.cover(pos)
	k := pos*len(fe.sys.Nets) + n
	if v := fe.nets[k]; v.Bits != nil {
		return v, nil
	}
	if fe.busy[k] {
		return bitvec.BV{}, &ltl.ElabError{Reason: "combinational loop through \"" + name + "\""}
	}
	fe.busy[k] = true
	v, err := fe.ev.Eval(fe.sys.Nets[n].Expr, pos)
	// Clear the mark on every path: a mark left behind by a failed
	// evaluation would make the next lookup report a spurious loop.
	// The slices may have grown during the evaluation, so index afresh.
	fe.busy[k] = false
	if err != nil {
		return bitvec.BV{}, err
	}
	v = v.Extend(fe.sys.Nets[n].Width)
	if v.Bits == nil {
		v.Bits = []logic.Node{} // an empty value still marks the net built
	}
	fe.nets[k] = v
	return v, nil
}

// SignalWidth implements ltl.Env.
func (fe *frameEnv) SignalWidth(name string) (int, bool) {
	w, ok := fe.sys.Widths[name]
	return w, ok
}

// Constant implements ltl.Env.
func (fe *frameEnv) Constant(name string) (uint64, int, bool) {
	c, ok := fe.sys.Consts[name]
	return c.Value, c.Width, ok
}
