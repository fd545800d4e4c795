package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"fveval/internal/core"
	"fveval/internal/dist"
	"fveval/internal/engine"
	"fveval/internal/equiv"
	"fveval/internal/formal"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
	"fveval/internal/ltl"
	"fveval/internal/mc"
	"fveval/internal/metrics"
	"fveval/internal/rtl"
	"fveval/internal/sva"
	"fveval/internal/task"
)

// span is one timed call into a layer. Spans are kept in memory and
// written out as NDJSON when the benchmark ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = top level
	Name   string `json:"name"`
	Req    int    `json:"req"` // index of the request in its pass
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects spans. The replay is sequential, so an open-span
// stack gives each span its parent; calls the coordinator makes
// concurrently name their parent explicitly (beginUnder).
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stack []int
	req   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// setReq tags the spans opened from now on with request index i.
func (r *recorder) setReq(i int) {
	r.mu.Lock()
	r.req = i
	r.mu.Unlock()
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := r.open(name, parent)
	r.stack = append(r.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.now()
	if n := len(r.stack); n == 0 || r.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	r.stack = r.stack[:len(r.stack)-1]
}

// beginUnder opens a span under an explicit parent, off the stack.
func (r *recorder) beginUnder(name string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.open(name, parent)
}

func (r *recorder) endUnder(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.now()
}

func (r *recorder) open(name string, parent int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: r.req, Start: r.now()})
	return id
}

// timed runs f inside a span.
func (r *recorder) timed(name string, f func()) {
	id := r.begin(name)
	f()
	r.end(id)
}

// write stores the spans as NDJSON.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tracedModel times llm.Model.Generate.
type tracedModel struct {
	llm.Model
	rec *recorder
}

func (m tracedModel) Generate(p *llm.Prompt, sample int) string {
	id := m.rec.begin("llm.generate")
	defer m.rec.end(id)
	return m.Model.Generate(p, sample)
}

// tracedRunner times dist.Runner.Run; each call is one shard attempt.
type tracedRunner struct {
	dist.Runner
	rec    *recorder
	parent *int // the coordinator span of the request in flight
}

func (r tracedRunner) Run(ctx context.Context, req task.Request) (*task.Partial, error) {
	id := r.rec.beginUnder("dist.shard", *r.parent)
	defer r.rec.endUnder(id)
	return r.Runner.Run(ctx, req)
}

// pool mirrors one engine memo pool: the judgment memos, the
// equivalence cache and the counterexample bank. Like the engine, a
// replay shares one pool across the requests one engine serves.
type pool struct {
	judged  map[string]bool
	cache   *equiv.Cache
	bank    *formal.Bank
	refToks map[*sva.Assertion]metrics.RefTokens
	designs map[string]*rtl.File
}

func newPool() *pool {
	return &pool{
		judged:  map[string]bool{},
		cache:   equiv.NewCache(),
		bank:    formal.NewBank(0),
		refToks: map[*sva.Assertion]metrics.RefTokens{},
		designs: map[string]*rtl.File{},
	}
}

// The engine's default formal options: conflict budget 200000 and 128
// simulation patterns per query, backend depth defaults.
func (p *pool) equivOptions() equiv.Options {
	return equiv.Options{Budget: 200000, SimPatterns: 128, Bank: p.bank}
}

func (p *pool) mcOptions() mc.Options {
	return mc.Options{Budget: 200000, SimPatterns: 128, Bank: p.bank}
}

// replayCounts are outcomes the spans alone do not show.
type replayCounts struct {
	jobs, memoHits      int
	parseFails          int
	mcChecks, mcDecided int
}

// replay re-runs a request's evaluation jobs, in the engine's job
// order, through the layers' public functions with a span around each
// call: prompt building, generation and extraction (llm), BLEU
// (metrics), candidate parsing (sva), lowering (ltl), equivalence
// (equiv), RTL parse and elaboration (rtl), model checking (mc), each
// judgment bracketed by its core.judge_* span. Where the program calls
// a layer internally (equiv lowers both sides itself), the replay's
// separate call measures that layer on the same inputs.
type replay struct {
	rec *recorder
	n   replayCounts
}

// request replays one request on pl; an enabled shard restricts it to
// that slice of the instances.
func (rp *replay) request(req task.Request, shard engine.Shard, pl *pool) error {
	canon, err := req.Canonical()
	if err != nil {
		return err
	}
	p, o := canon.Params, req.Options
	if shard.Enabled() {
		o.Shard = shard
	}
	samples := o.Samples
	if samples < 2 {
		samples = 5
	}
	switch canon.Task {
	case "nl2sva-human", "bleu-correlation":
		return rp.human(pl, p.Models, 1, o)
	case "nl2sva-human-passk":
		return rp.human(pl, p.Models, samples, o)
	case "nl2sva-machine":
		for _, shots := range p.Shots {
			rp.machine(pl, p.Models, shots, p.Count, 1, o, 0)
		}
	case "nl2sva-machine-passk":
		rp.machine(pl, p.Models, 3, p.Count, samples, o, 0)
	case "refinement":
		for _, rounds := range p.Rounds {
			if rounds <= 0 {
				rounds = -1 // refinement disabled, as in the engine
			}
			rp.machine(pl, p.Models, 3, p.Count, samples, o, rounds)
		}
	case "design2sva":
		for _, kind := range p.Kinds {
			rp.design(pl, p.Models, kind, samples, o)
		}
	case "agr":
		rp.helpers(pl, p.Models, samples, o)
	default:
		return fmt.Errorf("replay: task %s has no evaluation grid", canon.Task)
	}
	return nil
}

// clip mirrors the engine's instance selection: limit, then shard.
func clip[T any](xs []T, o engine.Config) []T {
	if o.Limit > 0 && o.Limit < len(xs) {
		xs = xs[:o.Limit]
	}
	if !o.Shard.Enabled() {
		return xs
	}
	var out []T
	for i, x := range xs {
		if i%o.Shard.Count == o.Shard.Index {
			out = append(out, x)
		}
	}
	return out
}

func (rp *replay) models(names []string) []llm.Model {
	out := make([]llm.Model, len(names))
	for i, n := range names {
		out[i] = tracedModel{Model: llm.ModelByName(n), rec: rp.rec}
	}
	return out
}

func (rp *replay) prompts(n int, build func(i int) *llm.Prompt) []*llm.Prompt {
	out := make([]*llm.Prompt, n)
	for i := range out {
		rp.rec.timed("llm.build_prompt", func() { out[i] = build(i) })
	}
	return out
}

func (rp *replay) extract(resp string) (code string) {
	rp.rec.timed("llm.extract", func() { code = llm.ExtractCode(resp) })
	return code
}

// grid visits jobs model-major, then instance, then sample.
func (rp *replay) grid(models []llm.Model, nInst, nSamples int, job func(m llm.Model, inst, sample int)) {
	for _, m := range models {
		for i := 0; i < nInst; i++ {
			for s := 0; s < nSamples; s++ {
				rp.n.jobs++
				job(m, i, s)
			}
		}
	}
}

// memo reports whether key was judged before on pl, marking it judged.
func (rp *replay) memo(pl *pool, key string) bool {
	if pl.judged[key] {
		rp.n.memoHits++
		return true
	}
	pl.judged[key] = true
	return false
}

func (rp *replay) human(pl *pool, models []string, samples int, o engine.Config) error {
	var insts []*core.HumanInstance
	var err error
	rp.rec.timed("core.load", func() { insts, err = core.LoadHuman() })
	if err != nil {
		return err
	}
	insts = clip(insts, o)
	prompts := rp.prompts(len(insts), func(i int) *llm.Prompt {
		in := insts[i]
		return llm.BuildHumanPrompt(in.ID, in.Testbench.Source, in.NL, in.Reference)
	})
	rp.grid(rp.models(models), len(insts), samples, func(m llm.Model, i, s int) {
		in := insts[i]
		rp.judgeTranslation(pl, "human", in.ID, m.Generate(prompts[i], s), in.Reference, in.Sigs)
	})
	return nil
}

// machine replays an NL2SVA-Machine grid; rounds != 0 wraps each model
// in the CEX-guided refinement loop (refinement task, <0 = disabled).
func (rp *replay) machine(pl *pool, models []string, shots, count, samples int, o engine.Config, rounds int) {
	var insts []*core.MachineInstance
	rp.rec.timed("core.load", func() { insts = clip(core.LoadMachine(count), o) })
	prompts := rp.prompts(len(insts), func(i int) *llm.Prompt {
		in := insts[i]
		return llm.BuildMachinePrompt(in.ID, in.NL, shots, in.Reference)
	})
	ms := rp.models(models)
	if rounds != 0 {
		byID := make(map[string]*core.MachineInstance, len(insts))
		for _, in := range insts {
			byID[in.ID] = in
		}
		check := func(p *llm.Prompt, resp string) (err error) {
			in := byID[p.InstanceID]
			rp.rec.timed("core.refine_feedback", func() {
				err = core.RefineFeedback(resp, in.Reference, in.Sigs, pl.cache, pl.equivOptions())
			})
			return err
		}
		for i, m := range ms {
			ms[i] = &llm.FeedbackModel{Base: m, Check: check, MaxRetries: rounds}
		}
	}
	rp.grid(ms, len(insts), samples, func(m llm.Model, i, s int) {
		in := insts[i]
		rp.judgeTranslation(pl, "machine", in.ID, m.Generate(prompts[i], s), in.Reference, in.Sigs)
	})
}

// judgeTranslation mirrors core.JudgeTranslation behind the engine's
// judgment memo.
func (rp *replay) judgeTranslation(pl *pool, dataset, id, resp string, ref *sva.Assertion, sigs *equiv.Sigs) {
	code := rp.extract(resp)
	if rp.memo(pl, dataset+"\x00"+id+"\x00"+code) {
		return
	}
	j := rp.rec.begin("core.judge_translation")
	defer rp.rec.end(j)
	rp.rec.timed("metrics.bleu", func() {
		toks, ok := pl.refToks[ref]
		if !ok {
			toks = metrics.TokenizeRef(ref.String())
			pl.refToks[ref] = toks
		}
		metrics.BLEURef(code, toks)
	})
	var cand *sva.Assertion
	var err error
	rp.rec.timed("sva.parse", func() {
		if cand, err = sva.ParseAssertion(code); err == nil {
			err = sva.Validate(cand)
		}
	})
	if err != nil {
		rp.n.parseFails++
		return
	}
	rp.rec.timed("ltl.lower", func() { _, _ = ltl.LowerAssertion(cand) })
	// An equivalence error is a syntax verdict, not a replay failure.
	rp.rec.timed("equiv.check", func() { _, _ = pl.cache.Check(cand, ref, sigs, pl.equivOptions()) })
}

func (rp *replay) design(pl *pool, models []string, kind string, samples int, o engine.Config) {
	var insts []*rtlgen.Instance
	rp.rec.timed("core.load", func() { insts = clip(rtlgen.Sweep96(kind), o) })
	prompts := rp.prompts(len(insts), func(i int) *llm.Prompt { return llm.BuildDesignPrompt(insts[i]) })
	rp.grid(rp.models(models), len(insts), samples, func(m llm.Model, i, s int) {
		inst := insts[i]
		code := rp.extract(m.Generate(prompts[i], s))
		if rp.memo(pl, kind+"\x00"+inst.ID+"\x00"+code) {
			return
		}
		rp.judgeDesign(pl, inst, code)
	})
}

// judgeDesign mirrors core.JudgeDesign: splice the snippet into the
// bench, parse (the design half once per design), elaborate, validate
// and model-check every assertion.
func (rp *replay) judgeDesign(pl *pool, inst *rtlgen.Instance, snippet string) {
	j := rp.rec.begin("core.judge_design")
	defer rp.rec.end(j)
	var f *rtl.File
	var err error
	rp.rec.timed("rtl.parse", func() { f, err = pl.parseDesignBench(inst.Design, spliceBench(inst.Bench, snippet)) })
	if err != nil {
		return
	}
	var sys *rtl.System
	rp.rec.timed("rtl.elaborate", func() { sys, err = rtl.ElaborateBound(f, inst.DUTTop, inst.BenchTop, nil) })
	if err != nil || len(sys.Asserts) == 0 {
		return
	}
	rp.rec.timed("sva.validate", func() {
		for _, a := range sys.Asserts {
			if err = sva.Validate(a); err != nil {
				return
			}
		}
	})
	if err != nil {
		return
	}
	for _, a := range sys.Asserts {
		var res mc.Result
		rp.rec.timed("mc.check", func() { res, err = mc.CheckAssertion(sys, a, pl.mcOptions()) })
		rp.n.mcChecks++
		if err != nil {
			return
		}
		if res.Status == mc.Proven || res.Status == mc.Falsified {
			rp.n.mcDecided++
		}
	}
}

// spliceBench inserts a snippet before the bench's last endmodule.
func spliceBench(bench, snippet string) string {
	idx := strings.LastIndex(bench, "endmodule")
	if idx < 0 {
		return bench + "\n" + snippet
	}
	return bench[:idx] + "\n" + snippet + "\n" + bench[idx:]
}

// parseDesignBench parses the design once per design source (when it
// has no preprocessor directives) and the bench per candidate.
func (p *pool) parseDesignBench(design, bench string) (*rtl.File, error) {
	if strings.Contains(design, "`") {
		return rtl.Parse(design + "\n" + bench)
	}
	df, ok := p.designs[design]
	if !ok {
		var err error
		if df, err = rtl.Parse(design); err != nil {
			return rtl.Parse(design + "\n" + bench)
		}
		p.designs[design] = df
	}
	bf, err := rtl.Parse(bench)
	if err != nil {
		return nil, err
	}
	f := &rtl.File{Modules: make([]*rtl.Module, 0, len(df.Modules)+len(bf.Modules))}
	f.Modules = append(append(f.Modules, df.Modules...), bf.Modules...)
	return f, nil
}

// helpers replays the AGR grid. Its judgment runs whole inside
// core.JudgeHelper, so AGR's parse, elaboration and lemma checks are
// timed as one core.judge_helper span.
func (rp *replay) helpers(pl *pool, models []string, samples int, o engine.Config) {
	var insts []*helpergen.Instance
	rp.rec.timed("core.load", func() { insts = clip(helpergen.Sweep(), o) })
	prompts := rp.prompts(len(insts), func(i int) *llm.Prompt { return llm.BuildHelperPrompt(insts[i]) })
	rp.grid(rp.models(models), len(insts), samples, func(m llm.Model, i, s int) {
		inst := insts[i]
		code := rp.extract(m.Generate(prompts[i], s))
		if rp.memo(pl, "helper\x00"+inst.ID+"\x00"+code) {
			return
		}
		rp.rec.timed("core.judge_helper", func() { core.JudgeHelper(inst, code, pl.mcOptions()) })
	})
}
