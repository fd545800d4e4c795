package logic

// TapeOp is one recorded constructor call: Mux(X, Y, Z), or And(X, Y)
// when Z is NoMux. Out is the node the call returned on the recording
// builder. Operands and results are nodes of the recording builder;
// Replay reads them through a remap.
type TapeOp struct {
	X, Y, Z, Out Node
}

// NoMux is the Z operand of a recorded And (never a valid node).
const NoMux Node = -1

// Tape is a recording of the And and Mux calls made on a Builder, in
// the order they returned. Calls that constant-fold on the recording
// builder are left out: they fold the same way on any builder the tape
// is replayed into, since a replay maps constants to constants and
// equal or complementary operands to equal or complementary ones.
// Mux stays one op instead of the Ands inside it, because its t == f
// shortcut depends on operand values: two operands distinct when
// recorded may coincide in a replay, and there Mux must build nothing.
type Tape struct {
	Ops []TapeOp
}

// Record makes b append its And and Mux calls to t; Record(nil) stops
// recording. A Tape records one builder at a time.
func (b *Builder) Record(t *Tape) { b.rec = t }

// recordMux runs Mux with recording paused, so the Ands inside it stay
// off the tape, and then records the Mux itself.
func (b *Builder) recordMux(sel, t, f Node) Node {
	rec := b.rec
	b.rec = nil
	out := b.Or(b.And(sel, t), b.And(sel.Not(), f))
	b.rec = rec
	rec.Ops = append(rec.Ops, TapeOp{X: sel, Y: t, Z: f, Out: out})
	return out
}

// Remapped reads a recorded node through remap, which holds the
// replay node of every recorded node index (complement bits pass
// through).
func Remapped(remap []Node, n Node) Node { return remap[n.index()] ^ n&1 }

// Replay re-issues ops on b, reading every operand through remap and
// writing every result back into it, so later ops see the nodes
// earlier ones built. remap is indexed by the recording builder's node
// index, and remap[0] must hold False. Replaying a tape makes exactly
// the And and Mux calls the recorded construction would have made on
// b, so b creates the same nodes in the same order and counts the same
// hash hits.
func (b *Builder) Replay(ops []TapeOp, remap []Node) {
	for i := range ops {
		op := &ops[i]
		x, y := Remapped(remap, op.X), Remapped(remap, op.Y)
		var out Node
		if op.Z == NoMux {
			out = b.And(x, y)
		} else {
			out = b.Mux(x, y, Remapped(remap, op.Z))
		}
		remap[op.Out.index()] = out ^ op.Out&1
	}
}

// Rebind is Replay for ops whose results b already holds: it fills
// remap the same way but leaves the hash-hit counter as it was, since
// the construction being mirrored took those results from a cache
// instead of calling And.
func (b *Builder) Rebind(ops []TapeOp, remap []Node) {
	hits := b.hashHits
	b.Replay(ops, remap)
	b.hashHits = hits
}
