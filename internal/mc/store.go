package mc

import (
	"runtime"
	"sync"

	"fveval/internal/formal"
	"fveval/internal/logic"
	"fveval/internal/rtl"
	"fveval/internal/sat"
)

// store is the growable storage behind one safety session: the circuit
// builder, the SAT solver, the CNF emitter between them, the
// prefilter's simulator, the counterexample decoder's simulator and
// the frame environment's signal slices and the prefilter's bank
// snapshot. Every BMC base and induction step session
// takes one from a small free list and returns it, reset, when its
// check finishes, so back-to-back checks grow into storage an earlier
// check already allocated instead of allocating it again (DESIGN.md
// §15). A reset store is indistinguishable from a fresh one: node ids,
// SAT variables and every search step repeat.
type store struct {
	b      *logic.Builder
	s      *sat.Solver
	cnf    *logic.CNF
	sim    *logic.Sim
	dsim   *logic.Sim
	fe     frameEnv
	banked []formal.Pattern
}

// maxStoreNodes bounds what the free list retains: a store whose
// builder grew past this many nodes, or whose solver grew past this
// many variables, is dropped instead of kept. Together with the list's
// length cap of 2×GOMAXPROCS stores this bounds the memory the free
// list holds between checks; an unbounded list kept every outsized
// session alive and nearly doubled the design benchmark's peak RSS.
const maxStoreNodes = 1 << 14

// freeStores is the free list shared by every check in the process.
var freeStores struct {
	sync.Mutex
	list []*store
}

// getStore takes a reset store from the free list, or builds a fresh
// one when the list is empty.
func getStore() *store {
	freeStores.Lock()
	if n := len(freeStores.list); n > 0 {
		st := freeStores.list[n-1]
		freeStores.list[n-1] = nil
		freeStores.list = freeStores.list[:n-1]
		freeStores.Unlock()
		return st
	}
	freeStores.Unlock()
	return newStore()
}

func newStore() *store {
	b := logic.NewBuilder()
	s := sat.New()
	return &store{b: b, s: s, cnf: logic.NewCNF(b, s), sim: logic.NewSim(b), dsim: logic.NewSim(b)}
}

// env hands out the store's frame environment, reset for sys.
func (st *store) env(sys *rtl.System) *frameEnv {
	st.fe.reset(st.b, sys)
	st.fe.dsim = st.dsim
	return &st.fe
}

// putStore resets a store and returns it to the free list, unless it
// grew past maxStoreNodes or the list is full. Nothing the caller keeps
// may alias the store's storage afterwards.
func putStore(st *store) {
	if st.b.NumNodes() > maxStoreNodes || st.s.NumVars() > maxStoreNodes {
		return
	}
	st.b.Reset()
	st.s.Reset()
	st.cnf.Reset()
	st.sim.Reset()
	st.dsim.Reset()
	st.fe.release()
	clear(st.banked[:cap(st.banked)])
	st.banked = st.banked[:0]
	freeStores.Lock()
	if len(freeStores.list) < 2*runtime.GOMAXPROCS(0) {
		freeStores.list = append(freeStores.list, st)
	}
	freeStores.Unlock()
}
