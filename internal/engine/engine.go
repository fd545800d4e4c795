// Package engine is the unified evaluation runner for all FVEval
// sub-benchmarks. It flattens an entire run — every (model, instance,
// sample) tuple — into one job queue, drains the queue with a bounded
// worker pool, and streams outcomes into per-model aggregators whose
// final fold walks outcome slots in deterministic grid order. Final
// tables are therefore byte-identical regardless of worker count,
// scheduling order, sharding off/on differences aside, or whether the
// equivalence-check cache is enabled.
//
// One engine owns one run-wide equiv.Cache: pass@k evaluation
// re-checks many duplicate candidate/reference pairs across samples
// and models, and memoizing equiv.Check collapses those repeated SAT
// solves. Engines derived with Reconfigure share the same cache pool,
// so a long-lived service can serve differently tuned requests while
// still collapsing duplicate solves across them. Horizontal scaling
// across processes is supported by Shard, which partitions the
// instance axis (never the sample axis, so per-instance pass@k folds
// stay complete within a shard).
//
// Every task family (NL2SVA-Human, NL2SVA-Machine, Design2SVA, AGR,
// refinement) is a Family value evaluated by the one entry point,
// Engine.Run. It takes a context.Context and an optional Observer:
// cancelling the context stops feeding the worker pool and Run
// returns ctx.Err(); the observer receives one Progress per completed
// job, delivered from the collector goroutine (calls are serialized,
// never concurrent).
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fveval/internal/core"
	"fveval/internal/equiv"
	"fveval/internal/fault"
	"fveval/internal/formal"
	"fveval/internal/llm"
	"fveval/internal/mc"
	"fveval/internal/obs"
)

// Shard selects one horizontal slice of the instance axis: a process
// configured with {Index: i, Count: n} evaluates instances whose
// position modulo n equals i. The zero value disables sharding.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Enabled reports whether the shard actually partitions work.
func (s Shard) Enabled() bool { return s.Count > 1 }

// Validate rejects malformed shard specs.
func (s Shard) Validate() error {
	if s.Count < 0 || s.Index < 0 {
		return fmt.Errorf("engine: negative shard %d/%d", s.Index, s.Count)
	}
	if s.Count > 0 && s.Index >= s.Count {
		return fmt.Errorf("engine: shard index %d out of range 0..%d", s.Index, s.Count-1)
	}
	return nil
}

func (s Shard) String() string {
	if !s.Enabled() {
		return "none"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Config tunes a benchmark run.
type Config struct {
	// Limit truncates the instance list (0 = all); tests use small
	// limits, benches run full size. Applied before sharding.
	Limit int `json:"limit,omitempty"`
	// Samples per instance for pass@k runs.
	Samples int `json:"samples,omitempty"`
	// Budget caps SAT conflicts per query (0 = default 200000). With
	// the incremental backend a query is one formal direction or one
	// model-checking depth; the budget is a per-call delta inside the
	// solver, so it keeps meaning "conflicts per query" across the
	// ramp.
	Budget int64 `json:"budget,omitempty"`
	// MaxBound caps the lasso bound the equivalence ramp may grow to
	// and the BMC falsification depth (0 = backend defaults, 16 each).
	MaxBound int `json:"max_bound,omitempty"`
	// Workers bounds the evaluation pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Shard restricts this process to one slice of the instance axis.
	Shard Shard `json:"shard,omitzero"`
	// NoCache disables every run-wide memo: the equivalence-check cache
	// and the judgment memo of every task family (translation, design
	// and helper judgments). Verdicts are identical either way; the
	// memos only skip duplicate solves.
	NoCache bool `json:"no_cache,omitempty"`
	// SimPatterns sets how many bit-parallel simulation patterns the
	// formal backend's refute-before-solve prefilter evaluates per
	// query (rounded up to 64-lane rounds; 0 = default 128). The
	// prefilter is refute-only — verdicts, reports, and rendered
	// tables are byte-identical with it on or off (DESIGN.md §10).
	SimPatterns int `json:"sim_patterns,omitempty"`
	// NoSim disables the simulation prefilter entirely: every formal
	// query goes straight to the SAT solver, as before PR 5.
	NoSim bool `json:"no_sim,omitempty"`
}

// Validate rejects configurations that would silently misbehave:
// every knob is a size or a budget, so negative values are always a
// caller bug, not a request for a default.
func (c Config) Validate() error {
	if c.Limit < 0 {
		return fmt.Errorf("engine: negative Limit %d", c.Limit)
	}
	if c.Samples < 0 {
		return fmt.Errorf("engine: negative Samples %d", c.Samples)
	}
	if c.Budget < 0 {
		return fmt.Errorf("engine: negative Budget %d", c.Budget)
	}
	if c.MaxBound < 0 {
		return fmt.Errorf("engine: negative MaxBound %d", c.MaxBound)
	}
	if c.Workers < 0 {
		return fmt.Errorf("engine: negative Workers %d", c.Workers)
	}
	if c.SimPatterns < 0 {
		return fmt.Errorf("engine: negative SimPatterns %d", c.SimPatterns)
	}
	return c.Shard.Validate()
}

// withDefaults resolves the zero-value knobs; Validate has already
// rejected negatives, so no clamping happens here.
func (c Config) withDefaults() Config {
	if c.Budget == 0 {
		c.Budget = 200000
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Samples == 0 {
		c.Samples = 1
	}
	if c.SimPatterns == 0 {
		c.SimPatterns = 128
	}
	if c.NoSim {
		c.SimPatterns = 0
	}
	return c
}

// Progress describes one completed evaluation job.
type Progress struct {
	// Done jobs out of Total in this grid.
	Done, Total int
	// Model and Sample locate the job on the grid; InstanceID names
	// the evaluated instance.
	Model      string
	InstanceID string
	Sample     int
	// Outcome is the job's judged result.
	Outcome core.Outcome
	// Wall is the job's evaluation wall-clock (generation + judgment),
	// measured at the worker.
	Wall time.Duration
}

// Observer receives per-job progress. Calls come from the run's
// single collector goroutine, so implementations need no locking
// against each other (but must not block for long — they gate result
// collection).
type Observer func(Progress)

// state is the memo pool an engine family shares: the equivalence
// cache, the judgment memo, and the formal backend counters. It is
// split from Engine so Reconfigure can derive engines with different
// run configurations that still collapse duplicate solves together.
type state struct {
	cache  *equiv.Cache
	formal *formal.Stats // incremental-backend reuse counters (never nil)
	// bank is the run-wide counterexample pattern bank feeding the
	// simulation prefilter (never nil; unused when NoSim). Like the
	// equivalence cache it is shared across Reconfigure-derived
	// engines, so one request's counterexamples refute the next
	// request's queries.
	bank *formal.Bank

	// memoMu guards memo, the run-wide judgment memo shared by every
	// Family: identical extracted responses recur across samples and
	// models, so the whole judgment (parse, BLEU, equivalence, or
	// elaborate+prove) is memoized per (family tag, instance, code).
	// nil when caching is disabled.
	memoMu sync.Mutex
	memo   map[string]core.Outcome

	// refineRounds counts FeedbackModel retry rounds performed by
	// refinement runs on this pool — the per-run delta is surfaced as
	// the RefineRounds report stat.
	refineRounds atomic.Int64
}

func newState(noCache bool) *state {
	st := &state{formal: &formal.Stats{}, bank: formal.NewBank(0)}
	if !noCache {
		st.cache = equiv.NewCache()
		st.memo = map[string]core.Outcome{}
	}
	return st
}

// Engine executes benchmark runs over one shared equivalence cache.
type Engine struct {
	cfg Config
	st  *state
}

// New builds an engine; cfg must be valid (see Config.Validate — New
// panics on malformed configs so misconfigured processes fail loudly
// instead of silently evaluating the wrong thing). Callers holding
// untrusted configuration should call Validate first and surface the
// error.
func New(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Engine{cfg: cfg.withDefaults(), st: newState(cfg.NoCache)}
}

// Reconfigure derives an engine that runs under cfg but shares this
// engine's memo pool (equivalence cache, judgment memo, formal
// counters), so a service can serve differently tuned requests from
// one cache. When cfg flips the caching mode relative to this
// engine's pool, the derived engine gets a fresh pool instead:
// sharing would either leak memoized verdicts into a NoCache run or
// silently re-enable memos.
func (e *Engine) Reconfigure(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := e.st
	if cfg.NoCache != (st.cache == nil) {
		st = newState(cfg.NoCache)
	}
	return &Engine{cfg: cfg.withDefaults(), st: st}, nil
}

// Config returns the resolved (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// CacheStats snapshots the equivalence-cache counters; all zero when
// the cache is disabled.
func (e *Engine) CacheStats() equiv.CacheStats { return e.st.cache.Stats() }

// FormalStats snapshots the incremental formal backend's solver-reuse
// and bound-ramp counters for this engine's runs.
func (e *Engine) FormalStats() formal.Snapshot { return e.st.formal.Snapshot() }

// simBank resolves the pattern bank the formal backend should use:
// the shared pool bank, or nil when the prefilter is off (no point
// collecting patterns nothing will replay).
func (e *Engine) simBank() *formal.Bank {
	if e.cfg.SimPatterns == 0 {
		return nil
	}
	return e.st.bank
}

// equivOptions resolves the equivalence-checker options for this run;
// the context's current span (if the run is traced) rides along so the
// checker can hang its ramp-step and prefilter spans under the job.
func (e *Engine) equivOptions(ctx context.Context) equiv.Options {
	return equiv.Options{
		Budget:      e.cfg.Budget,
		MaxBound:    e.cfg.MaxBound,
		SimPatterns: e.cfg.SimPatterns,
		Bank:        e.simBank(),
		Stats:       e.st.formal,
		Span:        obs.SpanFrom(ctx),
	}
}

// mcOptions resolves the model-checker options for this run. MaxBound
// caps the falsification depth; proof depths stay at backend defaults.
func (e *Engine) mcOptions(ctx context.Context) mc.Options {
	return mc.Options{
		Budget:      e.cfg.Budget,
		BMCDepth:    e.cfg.MaxBound,
		SimPatterns: e.cfg.SimPatterns,
		Bank:        e.simBank(),
		Stats:       e.st.formal,
		Span:        obs.SpanFrom(ctx),
	}
}

// ---- flattened job grid -------------------------------------------------

// job identifies one evaluation cell in the flattened grid.
type job struct {
	model, inst, sample int
}

// slot addresses a job's outcome: outcomes[model][inst*samples+sample].
func (j job) slot(samples int) int { return j.inst*samples + j.sample }

// runGrid drains the full models × instances × samples grid through a
// bounded worker pool. Workers stream results to a single collector
// goroutine that places each outcome in its deterministic slot and
// notifies the observer; aggregation then folds the slots in grid
// order, so the result is independent of worker count and completion
// order.
//
// Cancelling ctx stops feeding the queue and wakes idle workers; the
// grid returns ctx.Err() once in-flight jobs have drained, and the
// partial outcome grid is discarded by every caller.
func (e *Engine) runGrid(ctx context.Context, models []string, nInst, nSamples int, eval func(ctx context.Context, j job) core.Outcome, observer Observer) ([][]core.Outcome, error) {
	nModels := len(models)
	outcomes := make([][]core.Outcome, nModels)
	for m := range outcomes {
		outcomes[m] = make([]core.Outcome, nInst*nSamples)
	}
	total := nModels * nInst * nSamples
	if total == 0 {
		return outcomes, ctx.Err()
	}

	// An injected engine.job fault fails the whole grid through the
	// cancel cause, so callers see the injected error rather than a
	// bare context.Canceled (which would misclassify as a user cancel).
	ctx, abort := context.WithCancelCause(ctx)
	defer abort(nil)

	jobs := make(chan job, e.cfg.Workers)
	type result struct {
		j    job
		out  core.Outcome
		wall time.Duration
	}
	results := make(chan result, e.cfg.Workers)

	// evalJob wraps one evaluation in its per-job span (model/sample
	// known up front, instance and verdict attached after) and times
	// it; when the run is untraced the span calls are nil no-ops.
	evalJob := func(j job) result {
		jctx, sp := obs.Start(ctx, "job")
		sp.SetStr("model", models[j.model]).SetInt("sample", int64(j.sample))
		start := time.Now()
		out := eval(jctx, j)
		wall := time.Since(start)
		sp.SetStr("instance", out.InstanceID).
			SetBool("syntax", out.Syntax).
			SetBool("func", out.Full)
		sp.End()
		return result{j: j, out: out, wall: wall}
	}

	var workers sync.WaitGroup
	w := e.cfg.Workers
	if w > total {
		w = total
	}
	for i := 0; i < w; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case j, ok := <-jobs:
					if !ok {
						return
					}
					if err := fault.Hit(fault.EngineJob); err != nil {
						abort(err)
						return
					}
					select {
					case results <- evalJob(j):
					case <-ctx.Done():
						return
					}
				}
			}
		}()
	}

	var collector sync.WaitGroup
	collector.Add(1)
	go func() {
		defer collector.Done()
		done := 0
		for r := range results {
			outcomes[r.j.model][r.j.slot(nSamples)] = r.out
			done++
			if observer != nil {
				observer(Progress{
					Done: done, Total: total,
					Model:      models[r.j.model],
					InstanceID: r.out.InstanceID,
					Sample:     r.j.sample,
					Outcome:    r.out,
					Wall:       r.wall,
				})
			}
		}
	}()

feed:
	for m := 0; m < nModels; m++ {
		for i := 0; i < nInst; i++ {
			for s := 0; s < nSamples; s++ {
				select {
				case jobs <- job{model: m, inst: i, sample: s}:
				case <-ctx.Done():
					break feed
				}
			}
		}
	}
	close(jobs)
	workers.Wait()
	close(results)
	collector.Wait()
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	return outcomes, nil
}

// generate runs one model call under a prompt-phase span, so traced
// runs attribute generation wall-clock separately from judgment.
func generate(ctx context.Context, m llm.Model, p *llm.Prompt, sample int) string {
	sp := obs.SpanFrom(ctx).Child("generate")
	sp.SetPhase(obs.PhasePrompt)
	resp := m.Generate(p, sample)
	sp.End()
	return resp
}

// clip truncates to cfg.Limit, keeps this shard's instances, and
// builds each kept instance's Item; it also returns the post-limit
// pre-shard count, the grid's global instance-axis length.
func clip[T any](xs []T, cfg Config, item func(T) Item) ([]Item, int) {
	if cfg.Limit > 0 && cfg.Limit < len(xs) {
		xs = xs[:cfg.Limit]
	}
	out := make([]Item, 0, len(xs))
	for i, x := range xs {
		if !cfg.Shard.Enabled() || i%cfg.Shard.Count == cfg.Shard.Index {
			out = append(out, item(x))
		}
	}
	return out, len(xs)
}

// passKSamples resolves the sample count for pass@k runs (the paper
// draws 5 samples; a config of 0/1 means "use the paper default").
func (e *Engine) passKSamples() int {
	if e.cfg.Samples < 2 {
		return 5
	}
	return e.cfg.Samples
}
