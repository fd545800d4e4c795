package engine

import (
	"context"

	"fveval/internal/core"
	"fveval/internal/equiv"
	"fveval/internal/gen/rtlgen"
	"fveval/internal/helpergen"
	"fveval/internal/llm"
	"fveval/internal/obs"
	"fveval/internal/sva"
)

// Family is one task family's recipe for the shared grid pipeline:
// load the instances, prompt every model, sample, judge. Engine.Run
// drives every family through the same flattened job grid and the same
// judgment memo, so a new family is one more Family value.
type Family struct {
	// Tag namespaces the family's judgments in the engine's memo.
	// Families whose judgments agree on every (instance, code) pair
	// share a tag, so memo hits carry across them.
	Tag string
	// Sampled draws passKSamples per instance; otherwise one greedy
	// sample.
	Sampled bool
	// Load returns the kept instances (after Limit and sharding) and
	// the instance-axis length before sharding.
	Load func(e *Engine) (kept []Item, total int, err error)
	// Wrap, when set, wraps each model before generation. The grid
	// keeps the base model names.
	Wrap func(e *Engine, m llm.Model) llm.Model
}

// Item is one kept instance, built once before the grid runs: its ID,
// its prompt (shared read-only by every model and sample), and its
// judge, which scores one extracted code snippet.
type Item struct {
	ID     string
	Prompt *llm.Prompt
	Judge  func(ctx context.Context, code string) core.Outcome
}

// Run evaluates one family's models × instances × samples grid and
// returns the raw outcome lattice with shard provenance.
func (e *Engine) Run(ctx context.Context, f Family, models []llm.Model, obs Observer) (*Grid, error) {
	items, total, err := f.Load(e)
	if err != nil {
		return nil, err
	}
	n := 1
	if f.Sampled {
		n = e.passKSamples()
	}
	names := make([]string, len(models))
	gen := models
	if f.Wrap != nil {
		gen = make([]llm.Model, len(models))
	}
	for i, m := range models {
		names[i] = m.Name()
		if f.Wrap != nil {
			gen[i] = f.Wrap(e, m)
		}
	}
	outs, err := e.runGrid(ctx, names, len(items), n, func(jctx context.Context, j job) core.Outcome {
		it := items[j.inst]
		code := llm.ExtractCode(generate(jctx, gen[j.model], it.Prompt, j.sample))
		return e.judge(jctx, f.Tag, it, code)
	}, obs)
	if err != nil {
		return nil, err
	}
	return e.newGrid(names, total, len(items), n, outs), nil
}

// judge memoizes it.Judge per (tag, instance, code). A judgment
// depends only on the code and the instance — never on the model,
// sample, or prompt — so entries are shared across all of them.
// Judgments are deterministic, so racing duplicate computation is
// harmless.
func (e *Engine) judge(ctx context.Context, tag string, it Item, code string) core.Outcome {
	st := e.st
	if st.memo == nil {
		return it.Judge(ctx, code)
	}
	key := tag + "\x00" + it.ID + "\x00" + code
	st.memoMu.Lock()
	o, ok := st.memo[key]
	st.memoMu.Unlock()
	if ok {
		obs.SpanFrom(ctx).SetBool("memo_hit", true)
		return o
	}
	o = it.Judge(ctx, code)
	st.memoMu.Lock()
	st.memo[key] = o
	st.memoMu.Unlock()
	return o
}

// translation builds an NL2SVA item judged by core.JudgeTranslation
// against the instance's reference and signal environment.
func (e *Engine) translation(id string, p *llm.Prompt, ref *sva.Assertion, sigs *equiv.Sigs) Item {
	return Item{ID: id, Prompt: p, Judge: func(ctx context.Context, code string) core.Outcome {
		return core.JudgeTranslation(id, code, ref, sigs, e.equivOptions(ctx), e.st.cache)
	}}
}

// Human is NL2SVA-Human (Tables 1 and 2, Figure 6).
func Human(sampled bool) Family {
	return Family{Tag: "human", Sampled: sampled, Load: func(e *Engine) ([]Item, int, error) {
		insts, err := core.LoadHuman()
		if err != nil {
			return nil, 0, err
		}
		items, total := clip(insts, e.cfg, func(in *core.HumanInstance) Item {
			return e.translation(in.ID, llm.BuildHumanPrompt(in.ID, in.Testbench.Source, in.NL, in.Reference), in.Reference, in.Sigs)
		})
		return items, total, nil
	}}
}

// Machine is NL2SVA-Machine at a shot count over a count-instance
// synthetic dataset (Tables 3 and 4).
func Machine(shots, count int, sampled bool) Family {
	return machine(core.LoadMachine(count), shots, sampled)
}

// machine is Machine over an already loaded dataset.
func machine(insts []*core.MachineInstance, shots int, sampled bool) Family {
	return Family{Tag: "machine", Sampled: sampled, Load: func(e *Engine) ([]Item, int, error) {
		items, total := clip(insts, e.cfg, func(in *core.MachineInstance) Item {
			return e.translation(in.ID, llm.BuildMachinePrompt(in.ID, in.NL, shots, in.Reference), in.Reference, in.Sigs)
		})
		return items, total, nil
	}}
}

// Design is Design2SVA for one design category (Table 5 halves).
// Outcome.Full carries "proven".
func Design(kind string) Family {
	return Family{Tag: "design:" + kind, Sampled: true, Load: func(e *Engine) ([]Item, int, error) {
		items, total := clip(rtlgen.Sweep96(kind), e.cfg, func(inst *rtlgen.Instance) Item {
			return Item{ID: inst.ID, Prompt: llm.BuildDesignPrompt(inst), Judge: func(ctx context.Context, code string) core.Outcome {
				syn, proven := core.JudgeDesign(inst, code, e.mcOptions(ctx))
				return core.Outcome{InstanceID: inst.ID, Response: code, Syntax: syn, Full: proven}
			}}
		})
		return items, total, nil
	}}
}

// Helper is AGR (DESIGN.md §12): models are prompted with the design,
// the bench, and the stuck target assertion, and their helper-set
// responses run through the prove-then-assume lemma pipeline. Outcome
// mapping: Syntax = the helper set parses and elaborates, Partial =
// every helper is itself proved (helper validity), Full = the target
// is unlocked.
func Helper() Family {
	return Family{Tag: "helper", Sampled: true, Load: func(e *Engine) ([]Item, int, error) {
		items, total := clip(helpergen.Sweep(), e.cfg, func(inst *helpergen.Instance) Item {
			return Item{ID: inst.ID, Prompt: llm.BuildHelperPrompt(inst), Judge: func(ctx context.Context, code string) core.Outcome {
				syn, valid, unlocked := core.JudgeHelper(inst, code, e.mcOptions(ctx))
				return core.Outcome{InstanceID: inst.ID, Response: code, Syntax: syn, Partial: valid, Full: unlocked}
			}}
		})
		return items, total, nil
	}}
}

// Refinement is NL2SVA-Machine pass@k at 3-shot with the CEX-guided
// refinement loop at a retry budget (Figure R's x-axis): each model is
// wrapped in an llm.FeedbackModel whose check renders the formal
// backend's witness traces into the retry prompt (core.RefineFeedback),
// so a candidate refuted by the equivalence checker retries against
// the concrete counterexample. rounds <= 0 disables refinement — that
// grid is byte-identical to Machine(3, count, true)'s. It shares the
// machine memo tag: a judgment depends only on the final code, so
// memo hits carry across retry budgets.
func Refinement(rounds, count int) Family {
	insts := core.LoadMachine(count)
	byID := make(map[string]*core.MachineInstance, len(insts))
	for _, in := range insts {
		byID[in.ID] = in
	}
	retries := rounds
	if rounds <= 0 {
		retries = -1 // explicit FeedbackModel contract: disabled
	}
	f := machine(insts, 3, true)
	f.Wrap = func(e *Engine, m llm.Model) llm.Model {
		return &llm.FeedbackModel{
			Base: m,
			Check: func(p *llm.Prompt, resp string) error {
				in := byID[p.InstanceID]
				return core.RefineFeedback(resp, in.Reference, in.Sigs, e.st.cache, e.equivOptions(context.Background()))
			},
			MaxRetries: retries,
			Rounds:     &e.st.refineRounds,
		}
	}
	return f
}

// RefineRounds reports the cumulative FeedbackModel retry rounds
// performed on this engine's pool; callers diff before/after a run to
// surface the per-run count.
func (e *Engine) RefineRounds() int64 { return e.st.refineRounds.Load() }
