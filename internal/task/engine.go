package task

import (
	"context"
	"fmt"
	"time"

	"fveval/internal/core"
	"fveval/internal/engine"
	"fveval/internal/equiv"
	"fveval/internal/formal"
	"fveval/internal/obs"
)

// Request names one registry task plus overrides: Params are merged
// onto the spec defaults and validated against it, Options tune the
// evaluation engine for this run (zero value = the serving engine's
// own configuration). Requests are JSON round-trippable, so they
// double as the HTTP service's submission body.
type Request struct {
	// Task is a registry name (see Tasks).
	Task string `json:"task"`
	// Params overrides the spec defaults; fields the spec does not
	// accept are rejected, not ignored.
	Params Params `json:"params,omitzero"`
	// Options tunes the engine for this run. The zero value inherits
	// the serving engine's configuration; any other value derives an
	// engine that still shares the serving engine's memo pool (unless
	// NoCache detaches it).
	Options engine.Config `json:"options,omitzero"`
	// Progress, when non-nil, receives one Event per completed
	// evaluation job. Events are delivered from the run's collector
	// goroutine: calls are serialized and must not block for long.
	Progress func(Event) `json:"-"`
	// Trace, when non-nil, turns tracing on for a partial (shard) run:
	// RunPartial records spans into a fresh recorder and ships them on
	// the Partial, re-rooted under Trace.Parent (a span ID in the
	// coordinator's ID space). Trace is execution plumbing like
	// Progress — Canonical strips it, so it never reaches result-cache
	// keys or report echoes, which keeps traced and untraced report
	// bytes identical.
	Trace *obs.TraceContext `json:"trace,omitempty"`
}

// Validate checks the request against the registry without running
// it: the task must exist, the parameter overrides must be accepted
// by its spec, and the engine options must be well-formed.
func (r Request) Validate() error {
	spec, err := Lookup(r.Task)
	if err != nil {
		return err
	}
	if _, err := spec.resolve(r.Params); err != nil {
		return fmt.Errorf("task %s: %w", spec.Name, err)
	}
	return r.Options.Validate()
}

// Canonical resolves the request to its content-equivalent normal
// form: the registry task name with its parameters fully merged
// against the spec defaults. Two requests with the same Canonical
// form (options aside) evaluate the same work and produce the same
// Report, which is what makes cross-request result caching sound —
// the service tier keys its content-addressed result store on this.
func (r Request) Canonical() (Request, error) {
	spec, err := Lookup(r.Task)
	if err != nil {
		return Request{}, err
	}
	p, err := spec.resolve(r.Params)
	if err != nil {
		return Request{}, fmt.Errorf("task %s: %w", spec.Name, err)
	}
	if err := r.Options.Validate(); err != nil {
		return Request{}, err
	}
	return Request{Task: spec.Name, Params: p, Options: r.Options}, nil
}

// Event is one per-job progress notification.
type Event struct {
	Task string `json:"task"`
	// Group is the sub-setting being evaluated ("0-shot", "pipeline",
	// ...; empty for single-setting tasks).
	Group string `json:"group,omitempty"`
	// Done / Total count jobs within this group's evaluation grid.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Model, Instance, and Sample locate the finished job.
	Model    string `json:"model,omitempty"`
	Instance string `json:"instance,omitempty"`
	Sample   int    `json:"sample"`
	// Syntax and Func summarize the job's judgment.
	Syntax bool `json:"syntax,omitempty"`
	Func   bool `json:"func,omitempty"`
	// WallMS is the job's evaluation wall-clock in milliseconds,
	// measured at the worker — the live signal for spotting slow jobs.
	WallMS int64 `json:"wall_ms,omitempty"`
	// Kind classifies the outcome for display: "func" (fully correct),
	// "syntax" (compiles but not proven equivalent), or "fail".
	Kind string `json:"kind,omitempty"`
}

// Stats is the run's execution metadata.
type Stats struct {
	// Jobs is the number of evaluation jobs completed.
	Jobs int `json:"jobs"`
	// WallMS is the run's wall-clock duration in milliseconds.
	WallMS int64 `json:"wall_ms"`
	// Cache is this run's equivalence-cache delta (hits against
	// entries predating the run still count as this run's hits).
	Cache equiv.CacheStats `json:"cache"`
	// Formal is this run's incremental formal-backend delta.
	//
	// Both deltas are computed from the shared memo pool's cumulative
	// counters, so when several runs execute concurrently on one
	// engine each delta also includes the traffic of runs overlapping
	// it in time; per-run attribution is exact only for serialized
	// runs. Engine-lifetime totals (Engine.CacheStats/FormalStats)
	// are always exact.
	Formal formal.Snapshot `json:"formal"`
	// RefineRounds is this run's CEX-guided refinement retry delta:
	// how many feedback rounds the run's FeedbackModels performed.
	// Subject to the same concurrent-run attribution caveat as the
	// cache and formal deltas.
	RefineRounds int64 `json:"refine_rounds,omitempty"`
	// Profile is the per-phase wall-clock rollup of a traced run
	// (zero — and absent from JSON — when tracing is off, keeping
	// untraced output byte-identical). Shard profiles sum commutatively
	// in MergeStats, mirroring the Formal snapshot.
	Profile obs.Profile `json:"profile,omitzero"`
}

// Run is the result of one task execution: the unified report plus
// the echoed (fully resolved) request and execution metadata.
type Run struct {
	// Request echoes the request with params merged and options
	// resolved to the configuration the run actually used.
	Request Request `json:"request"`
	Report  *Report `json:"report"`
	Stats   Stats   `json:"stats"`
}

// Engine executes registry tasks. One Engine owns one evaluation
// memo pool (equivalence cache, judgment memo, formal counters);
// every Run through it — including concurrent runs with different
// Options — shares that pool, so duplicate formal queries across
// requests are solved once.
type Engine struct {
	base *engine.Engine
}

// NewEngine builds a task engine whose default run configuration is
// cfg. Like engine.New it panics on an invalid cfg; callers holding
// untrusted configuration should cfg.Validate() first.
func NewEngine(cfg engine.Config) *Engine {
	return &Engine{base: engine.New(cfg)}
}

// CacheStats snapshots the shared equivalence-cache counters.
func (e *Engine) CacheStats() equiv.CacheStats { return e.base.CacheStats() }

// FormalStats snapshots the shared formal-backend counters.
func (e *Engine) FormalStats() formal.Snapshot { return e.base.FormalStats() }

// prepare validates a request against the registry and resolves the
// engine it should run on (the base engine, or a derived one sharing
// the memo pool when the request carries options).
func (e *Engine) prepare(req Request) (*Spec, Params, *engine.Engine, error) {
	spec, err := Lookup(req.Task)
	if err != nil {
		return nil, Params{}, nil, err
	}
	p, err := spec.resolve(req.Params)
	if err != nil {
		return nil, Params{}, nil, fmt.Errorf("task %s: %w", spec.Name, err)
	}
	eng := e.base
	if req.Options != (engine.Config{}) {
		if eng, err = e.base.Reconfigure(req.Options); err != nil {
			return nil, Params{}, nil, err
		}
	}
	return spec, p, eng, nil
}

// execute runs a prepared task's grids with progress streaming and
// stat-delta accounting — the shared body of Run and RunPartial.
func (e *Engine) execute(ctx context.Context, spec *Spec, p Params, eng *engine.Engine, progress func(Event)) ([]GridGroup, Stats, error) {
	// jobs is only touched from each grid's collector goroutine, and
	// grids within one run execute sequentially, so no lock is needed.
	jobs := 0
	observer := func(group string) engine.Observer {
		return func(pr engine.Progress) {
			jobs++
			if progress != nil {
				progress(Event{
					Task: spec.Name, Group: group,
					Done: pr.Done, Total: pr.Total,
					Model: pr.Model, Instance: pr.InstanceID, Sample: pr.Sample,
					Syntax: pr.Outcome.Syntax, Func: pr.Outcome.Full,
					WallMS: pr.Wall.Milliseconds(),
					Kind:   outcomeKind(pr.Outcome),
				})
			}
		}
	}

	cache0, formal0, rounds0 := eng.CacheStats(), eng.FormalStats(), eng.RefineRounds()
	start := time.Now()
	var groups []GridGroup
	if spec.grids != nil {
		models := resolveModels(p.Models)
		for _, fg := range spec.grids(p) {
			g, err := eng.Run(ctx, fg.family, models, observer(fg.name))
			if err != nil {
				return nil, Stats{}, err
			}
			groups = append(groups, GridGroup{Name: fg.name, Grid: g})
		}
	}
	cache1, formal1 := eng.CacheStats(), eng.FormalStats()
	return groups, Stats{
		Jobs:   jobs,
		WallMS: time.Since(start).Milliseconds(),
		Cache: equiv.CacheStats{
			Hits:   cache1.Hits - cache0.Hits,
			Misses: cache1.Misses - cache0.Misses,
		},
		Formal:       formal1.Sub(formal0),
		RefineRounds: eng.RefineRounds() - rounds0,
		// The run owns its recorder (one per run), so the cumulative
		// profile is this run's attribution; zero when untraced.
		Profile: obs.FromContext(ctx).Profile(),
	}, nil
}

// outcomeKind classifies a judged outcome for live display.
func outcomeKind(o core.Outcome) string {
	switch {
	case o.Full:
		return "func"
	case o.Syntax:
		return "syntax"
	}
	return "fail"
}

// Run executes one registry task: the request is validated against
// the task's spec, the evaluation runs on this engine's memo pool
// under the request's options, progress streams to req.Progress, and
// the unified report comes back with run metadata. Cancelling ctx
// aborts the evaluation and returns ctx.Err().
func (e *Engine) Run(ctx context.Context, req Request) (*Run, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec, p, eng, err := e.prepare(req)
	if err != nil {
		return nil, err
	}
	groups, stats, err := e.execute(ctx, spec, p, eng, req.Progress)
	if err != nil {
		return nil, err
	}
	report, err := buildReport(spec, p, groups)
	if err != nil {
		return nil, err
	}
	return &Run{
		Request: Request{Task: spec.Name, Params: p, Options: eng.Config()},
		Report:  report,
		Stats:   stats,
	}, nil
}

// buildReport aggregates raw grid groups into the unified Report —
// the single fold path shared by local runs and MergeReports, which
// is what makes merged output byte-identical to unsharded output.
func buildReport(spec *Spec, p Params, groups []GridGroup) (*Report, error) {
	var rgs []Group
	for _, gg := range groups {
		var rows []Row
		switch spec.Kind {
		case KindPassK:
			rows = rowsFromPassKReports(gg.Grid.PassKReports(p.Ks))
		case KindDesign:
			rows = rowsFromDesignReports(gg.Grid.DesignReports(gg.Name, p.Ks))
		default: // greedy, shots, and gridded figures fold to means
			rows = rowsFromModelReports(gg.Grid.ModelReports())
		}
		rgs = append(rgs, Group{Name: gg.Name, Rows: rows})
	}
	text := ""
	if spec.text != nil {
		var err error
		if text, err = spec.text(p, rgs); err != nil {
			return nil, err
		}
	}
	return &Report{
		Task: spec.Name, Title: spec.Title,
		Table: spec.Table, Figure: spec.Figure, Kind: spec.Kind,
		Params: p, Groups: rgs, Text: text,
	}, nil
}
