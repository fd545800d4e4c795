package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"fveval/internal/dist"
	"fveval/internal/engine"
	"fveval/internal/equiv"
	"fveval/internal/formal"
	"fveval/internal/service/api"
	"fveval/internal/service/client"
	"fveval/internal/task"
)

// The traced run is separate from the timed runs and uses Workers: 1
// everywhere, so the counts the program reports repeat exactly. It
// runs the workload's requests once untraced, once with spans around
// the program's entry points (program spans), and then replays the
// same jobs through the layers' public functions (replay spans).

// programSpans are the spans around the program's own entry points;
// every other span comes from the layer replay.
var programSpans = map[string]bool{
	"task.run": true, "task.report_encode": true,
	"dist.run": true, "dist.shard": true,
	"service.submit": true, "service.wait": true, "service.fetch": true,
}

// layerRun is one traced run's measurements.
type layerRun struct {
	rec *recorder
	n   replayCounts

	// From the program, on the traced pass.
	runS   float64 // time in the program's run entry (see NOTES.md)
	jobs   int
	cache  equiv.CacheStats
	formal formal.Snapshot

	submitMS, queueMS, execMS, fetchMS []float64
	cached, executed, rejected         int

	shardSkews                []float64
	distOverheadS             float64
	attempts, retries, hedges int

	untracedS, replayS float64
	goc                goCounters

	results []result
	failed  int
}

func (lr *layerRun) addStats(s task.Stats) {
	lr.jobs += s.Jobs
	lr.cache.Hits += s.Cache.Hits
	lr.cache.Misses += s.Cache.Misses
	lr.formal = lr.formal.Add(s.Formal)
}

// finish checks the traced pass's reports against the references and
// the replay's job count against the program's.
func (lr *layerRun) finish(ctx context.Context) error {
	var reqs []task.Request
	for _, r := range lr.results {
		reqs = append(reqs, r.req)
	}
	refs, err := references(ctx, reqs)
	if err != nil {
		return err
	}
	lr.failed += checkReports(lr.results, refs)
	if lr.n.jobs != lr.jobs {
		fmt.Fprintf(os.Stderr, "perfbench: replay judged %d jobs, the program %d\n", lr.n.jobs, lr.jobs)
		lr.failed++
	}
	return nil
}

// traceEngine is the traced run of design and translate.
func traceEngine(ctx context.Context, reqs []task.Request) (*layerRun, error) {
	lr := &layerRun{rec: newRecorder()}
	base := make([][sha256.Size]byte, len(reqs))
	err := lr.untraced(func() (time.Duration, error) {
		start := time.Now()
		e := task.NewEngine(engine.Config{Workers: 1})
		for i, req := range reqs {
			run, err := e.Run(ctx, withWorkers(req, 1))
			if err != nil {
				return 0, err
			}
			b, err := run.Report.Encode()
			if err != nil {
				return 0, err
			}
			base[i] = sha256.Sum256(b)
		}
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}

	resetProcessMemos()
	e := task.NewEngine(engine.Config{Workers: 1})
	for i, req := range reqs {
		req = withWorkers(req, 1)
		lr.rec.setReq(i)
		var run *task.Run
		lr.rec.timed("task.run", func() { run, err = e.Run(ctx, req) })
		if err != nil {
			return nil, err
		}
		r := result{req: req, jobs: run.Stats.Jobs}
		r.encode(lr.rec, run.Report)
		if r.err == nil && r.sum != base[i] {
			r.err = errors.New("traced report differs from the untraced one")
		}
		lr.addStats(run.Stats)
		lr.results = append(lr.results, r)
	}
	lr.runS = lr.spanSeconds("task.run")

	if err := lr.replay(func(rp *replay) error {
		pl := newPool() // one fresh engine serves the whole list
		for i, req := range reqs {
			lr.rec.setReq(i)
			if err := rp.request(req, engine.Shard{}, pl); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return lr, lr.finish(ctx)
}

// untraced runs the untraced pass f with process memos cleared,
// keeping the wall time f reports and the Go runtime's GC and
// allocation counters across it.
func (lr *layerRun) untraced(f func() (time.Duration, error)) error {
	resetProcessMemos()
	g0 := readGoCounters()
	wall, err := f()
	if err != nil {
		return err
	}
	lr.untracedS = wall.Seconds()
	lr.goc = readGoCounters().sub(g0)
	return nil
}

// replay times f, a replay recording into the run's spans.
func (lr *layerRun) replay(f func(rp *replay) error) error {
	resetProcessMemos()
	rp := &replay{rec: lr.rec}
	start := time.Now()
	if err := f(rp); err != nil {
		return err
	}
	lr.replayS = time.Since(start).Seconds()
	lr.n = rp.n
	return nil
}

// traceDist is the traced run of dist. Each request gets a fresh
// two-worker fleet, so every shard starts on an empty memo pool and
// the program's counts do not depend on which worker took which shard.
func traceDist(ctx context.Context, reqs []task.Request) (*layerRun, error) {
	lr := &layerRun{rec: newRecorder()}
	// run executes one request on a fresh fleet and returns the result
	// and the coordinator's wall time.
	run := func(req task.Request, wrap func(dist.Runner) dist.Runner, around func(func())) (*dist.Result, time.Duration, error) {
		f, err := newFleet(2, wrap)
		if err != nil {
			return nil, 0, err
		}
		defer f.close()
		var res *dist.Result
		start := time.Now()
		around(func() { res, err = f.coord.Run(ctx, withWorkers(req, 1)) })
		return res, time.Since(start), err
	}
	plain := func(f func()) { f() }

	err := lr.untraced(func() (time.Duration, error) {
		// Fleet start-up and shutdown are not part of the pass.
		var wall time.Duration
		for _, req := range reqs {
			_, d, err := run(req, nil, plain)
			if err != nil {
				return 0, err
			}
			wall += d
		}
		return wall, nil
	})
	if err != nil {
		return nil, err
	}

	resetProcessMemos()
	for i, req := range reqs {
		lr.rec.setReq(i)
		parent := 0
		wrap := func(r dist.Runner) dist.Runner { return tracedRunner{Runner: r, rec: lr.rec, parent: &parent} }
		var coordSpan int
		res, _, err := run(req, wrap, func(f func()) {
			coordSpan = lr.rec.begin("dist.run")
			parent = coordSpan
			f()
			lr.rec.end(coordSpan)
		})
		if err != nil {
			return nil, err
		}
		r := result{req: withWorkers(req, 1), jobs: res.Run.Stats.Jobs}
		r.encode(lr.rec, res.Run.Report)
		lr.addStats(res.Run.Stats)
		lr.results = append(lr.results, r)
		lr.attempts += res.Attempts
		lr.retries += res.Retries
		lr.hedges += res.Hedges

		var shards []float64
		for _, s := range lr.rec.spans {
			if s.Parent == coordSpan && s.Name == "dist.shard" {
				shards = append(shards, s.dur().Seconds())
			}
		}
		slowest := maxOf(shards)
		if m := median(shards); m > 0 {
			lr.shardSkews = append(lr.shardSkews, slowest/m)
		}
		lr.distOverheadS += lr.rec.spans[coordSpan-1].dur().Seconds() - slowest
	}
	lr.runS = lr.spanSeconds("dist.shard")

	if err := lr.replay(func(rp *replay) error {
		for i, req := range reqs {
			lr.rec.setReq(i)
			for s := 0; s < 2; s++ {
				if err := rp.request(req, engine.Shard{Index: s, Count: 2}, newPool()); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return lr, lr.finish(ctx)
}

// traceService is the traced run of service: one daemon, one client
// submitting serially (so runs never overlap and the program's counts
// are exact), memos warm as in the timed run. The replay keeps one
// warm pool in step with the daemon's by replaying every executed
// request, untimed before the traced pass.
func traceService(ctx context.Context, seed uint64) (*layerRun, error) {
	lr := &layerRun{rec: newRecorder()}
	dm, err := newDaemon()
	if err != nil {
		return nil, err
	}
	defer dm.close()
	c := client.New(dm.ts.URL)
	stream := newServiceStream(seed)
	pl := newPool()
	warm := &replay{rec: newRecorder()}
	serial := func(reqs []task.Request) ([]result, error) {
		var out []result
		for _, req := range reqs {
			r := submitAndWait(ctx, c, req)
			if r.err != nil {
				return nil, r.err
			}
			if !r.cached {
				if err := warm.request(r.req, engine.Shard{}, pl); err != nil {
					return nil, err
				}
			}
			out = append(out, r)
		}
		return out, nil
	}
	if _, err := serial(stream.warmup()); err != nil {
		return nil, err
	}
	// The untraced pass times only the round trips, not the warm
	// replay, and keeps the memos warm.
	g0 := readGoCounters()
	rs, err := serial(stream.next())
	if err != nil {
		return nil, err
	}
	lr.goc = readGoCounters().sub(g0)
	for _, r := range rs {
		lr.untracedS += r.latency.Seconds()
	}

	var executed []task.Request
	for i, req := range stream.next() {
		lr.rec.setReq(i)
		req = withWorkers(req, 1)
		r, view := lr.tracedSubmit(ctx, c, req)
		lr.results = append(lr.results, r)
		if r.err != nil {
			continue
		}
		if r.cached {
			lr.cached++
			continue
		}
		lr.executed++
		executed = append(executed, req)
		lr.addStats(view.Run.Stats)
		lr.queueMS = append(lr.queueMS, float64(view.StartedMS-view.CreatedMS))
		lr.execMS = append(lr.execMS, float64(view.FinishedMS-view.StartedMS))
		lr.runS += float64(view.FinishedMS-view.StartedMS) / 1e3
	}

	start := time.Now()
	rp := &replay{rec: lr.rec}
	for i, req := range executed {
		lr.rec.setReq(i)
		if err := rp.request(req, engine.Shard{}, pl); err != nil {
			return nil, err
		}
	}
	lr.replayS = time.Since(start).Seconds()
	lr.n = rp.n
	return lr, lr.finish(ctx)
}

// tracedSubmit is one round trip split into its three client calls.
func (lr *layerRun) tracedSubmit(ctx context.Context, c *client.Client, req task.Request) (result, api.RunView) {
	ms := func(id int) float64 { return float64(lr.rec.spans[id-1].dur()) / float64(time.Millisecond) }
	id := lr.rec.begin("service.submit")
	resp, err := c.Submit(ctx, api.Submission{Request: req})
	lr.rec.end(id)
	lr.submitMS = append(lr.submitMS, ms(id))
	if err != nil {
		var ae *api.Error
		if errors.As(err, &ae) && (ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable) {
			lr.rejected++
		}
		return result{req: req, err: err}, api.RunView{}
	}
	if !api.Terminal(resp.Status) {
		id = lr.rec.begin("service.wait")
		_, _, err = c.Events(ctx, resp.ID, nil)
		lr.rec.end(id)
		if err != nil {
			return result{req: req, err: err}, api.RunView{}
		}
	}
	id = lr.rec.begin("service.fetch")
	view, err := c.Get(ctx, resp.ID)
	lr.rec.end(id)
	lr.fetchMS = append(lr.fetchMS, ms(id))
	r := viewResult(req, 0, view, err)
	r.digest()
	return r, view
}

// encode digests rep under a task.report_encode span.
func (r *result) encode(rec *recorder, rep *task.Report) {
	r.rep = rep
	rec.timed("task.report_encode", r.digest)
}

func (lr *layerRun) spanSeconds(name string) float64 {
	var s time.Duration
	for _, sp := range lr.rec.spans {
		if sp.Name == name {
			s += sp.dur()
		}
	}
	return s.Seconds()
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// output folds the spans and counters into the per-layer metrics.
func (lr *layerRun) output() *output {
	sec := map[string]float64{}
	cnt := map[string]float64{}
	topReplay := 0.0
	for _, s := range lr.rec.spans {
		d := s.dur().Seconds()
		sec[s.Name] += d
		cnt[s.Name]++
		if s.Parent == 0 && !programSpans[s.Name] {
			topReplay += d
		}
	}
	llmS := sec["llm.build_prompt"] + sec["llm.generate"] + sec["llm.extract"]
	judgeS := sec["core.judge_design"] + sec["core.judge_translation"] + sec["core.judge_helper"]
	f := lr.formal
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("llm.generate_s", llmS, "s")
	put("llm.calls", cnt["llm.generate"], "count")
	put("sva.parse_s", sec["sva.parse"], "s")
	put("sva.parses", cnt["sva.parse"], "count")
	put("sva.parse_fail_ratio", ratio(float64(lr.n.parseFails), cnt["sva.parse"]), "ratio")
	put("ltl.lower_s", sec["ltl.lower"], "s")
	put("ltl.lowers", cnt["ltl.lower"], "count")
	put("metrics.bleu_s", sec["metrics.bleu"], "s")
	put("metrics.bleu_calls", cnt["metrics.bleu"], "count")
	put("equiv.check_s", sec["equiv.check"], "s")
	put("equiv.checks", cnt["equiv.check"], "count")
	put("equiv.cache_hit_ratio", lr.cache.HitRate(), "ratio")
	put("rtl.parse_s", sec["rtl.parse"], "s")
	put("rtl.elaborate_s", sec["rtl.elaborate"], "s")
	put("rtl.elaborations", cnt["rtl.elaborate"], "count")
	put("mc.check_s", sec["mc.check"], "s")
	put("mc.checks", float64(lr.n.mcChecks), "count")
	put("mc.decided_ratio", ratio(float64(lr.n.mcDecided), float64(lr.n.mcChecks)), "ratio")
	put("formal.queries", float64(f.Queries), "count")
	put("formal.solve_wall_s", float64(f.SolveWallNS)/1e9, "s")
	put("sat.solves", float64(f.Solves), "count")
	put("sat.conflicts", float64(f.Conflicts), "count")
	put("logic.sim_hit_ratio", ratio(float64(f.Sim.Refutations), float64(f.Sim.Refutations+f.Solves)), "ratio")
	put("core.load_s", sec["core.load"], "s")
	put("core.judge_design_s", sec["core.judge_design"], "s")
	put("core.judge_designs", cnt["core.judge_design"], "count")
	put("core.judge_translation_s", sec["core.judge_translation"], "s")
	put("core.judge_translations", cnt["core.judge_translation"], "count")
	put("core.judge_helper_s", sec["core.judge_helper"], "s")
	put("core.judge_helpers", cnt["core.judge_helper"], "count")
	put("core.refine_feedback_s", sec["core.refine_feedback"], "s")
	put("core.refine_feedbacks", cnt["core.refine_feedback"], "count")
	put("engine.jobs", float64(lr.jobs), "count")
	put("engine.memo_hit_ratio", ratio(float64(lr.n.memoHits), float64(lr.n.jobs)), "ratio")
	put("task.run_s", lr.runS, "s")
	put("engine.overhead_s", lr.runS-judgeS-llmS, "s")
	put("task.report_encode_s", sec["task.report_encode"], "s")
	put("service.submit_ms", median(lr.submitMS), "ms")
	put("service.queue_wait_ms", median(lr.queueMS), "ms")
	put("service.exec_ms", median(lr.execMS), "ms")
	put("service.fetch_ms", median(lr.fetchMS), "ms")
	put("service.result_cache_hit_ratio", ratio(float64(lr.cached), float64(lr.cached+lr.executed)), "ratio")
	put("service.rejected", float64(lr.rejected), "count")
	put("dist.shard_s", sec["dist.shard"], "s")
	put("dist.shard_skew", median(lr.shardSkews), "ratio")
	put("dist.overhead_s", lr.distOverheadS, "s")
	put("dist.attempts", float64(lr.attempts), "count")
	put("dist.retries", float64(lr.retries), "count")
	put("dist.hedges", float64(lr.hedges), "count")
	put("go.gc_cycles", float64(lr.goc.gcCycles), "count")
	put("go.gc_pause_s", float64(lr.goc.gcPauseNS)/1e9, "s")
	put("go.mallocs", float64(lr.goc.mallocs), "count")
	put("trace.coverage", ratio(topReplay, lr.runS), "ratio")
	put("trace.overhead", ratio(lr.replayS, lr.untracedS), "ratio")

	return &output{
		Correct:   lr.failed == 0,
		Attempted: len(lr.results),
		Failed:    lr.failed,
		Metrics:   m,
	}
}
