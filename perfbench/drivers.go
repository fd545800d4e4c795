package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"fveval/internal/core"
	"fveval/internal/dist"
	"fveval/internal/engine"
	"fveval/internal/gen/svagen"
	"fveval/internal/service"
	"fveval/internal/service/api"
	"fveval/internal/service/client"
	"fveval/internal/task"
)

// result is one timed request as its caller saw it.
type result struct {
	req task.Request
	// rep is the report until the pass ends; then it is encoded and
	// only its digest kept, so checking costs neither pass time nor
	// heap the program's collector would have to scan.
	rep     *task.Report
	sum     [sha256.Size]byte
	jobs    int // evaluation jobs judged for this request (0 for a cache hit)
	latency time.Duration
	cached  bool
	err     error
}

// digest replaces the report by the digest of its encoding.
func (r *result) digest() {
	if r.err == nil {
		var b []byte
		if b, r.err = r.rep.Encode(); r.err == nil {
			r.sum = sha256.Sum256(b)
		}
	}
	r.rep = nil
}

// driver runs one workload's passes through a public entry point.
type driver interface {
	// setup builds the engines, servers or fleet and runs one untimed
	// warm-up pass.
	setup(ctx context.Context) error
	// prepare readies the next pass; it is not timed.
	prepare(ctx context.Context) error
	// pass runs one timed pass over the workload's request list.
	pass(ctx context.Context) []result
	close()
}

// resetProcessMemos clears the process-wide memos (reference BLEU
// tokens, candidate and design parses, generated datasets), so a pass
// starts as cold as a fresh CLI process.
func resetProcessMemos() {
	core.ResetMemos()
	svagen.ResetCache()
}

// withWorkers returns req running on the given evaluation pool size.
func withWorkers(req task.Request, workers int) task.Request {
	req.Options.Workers = workers
	return req
}

// ---- design, translate: task.Engine.Run ----------------------------------

// engineDriver runs the request list on a fresh engine per pass, with
// the process memos cleared, as a researcher regenerating tables does.
type engineDriver struct {
	reqs    []task.Request
	workers int
	eng     *task.Engine
}

func (d *engineDriver) setup(ctx context.Context) error {
	if err := d.prepare(ctx); err != nil {
		return err
	}
	return firstError(d.pass(ctx))
}

func (d *engineDriver) prepare(context.Context) error {
	resetProcessMemos()
	d.eng = task.NewEngine(engine.Config{Workers: d.workers})
	return nil
}

func (d *engineDriver) pass(ctx context.Context) []result {
	out := make([]result, len(d.reqs))
	for i, req := range d.reqs {
		req = withWorkers(req, d.workers)
		start := time.Now()
		run, err := d.eng.Run(ctx, req)
		out[i] = runResult(req, time.Since(start), run, err)
	}
	return out
}

func (d *engineDriver) close() {}

func runResult(req task.Request, lat time.Duration, run *task.Run, err error) result {
	r := result{req: req, latency: lat, err: err}
	if err == nil {
		r.jobs = run.Stats.Jobs
		r.rep = run.Report
	}
	return r
}

func firstError(rs []result) error {
	for _, r := range rs {
		if r.err != nil {
			return fmt.Errorf("%s: %w", r.req.Task, r.err)
		}
	}
	return nil
}

// ---- dist: dist.Coordinator over dist.HTTPRunners -------------------------

// fleet is a loopback fvevald fleet: in-process servers on 127.0.0.1,
// each with its own engine and memo pool, and a coordinator over them.
type fleet struct {
	srvs  []*service.Server
	tss   []*httptest.Server
	coord *dist.Coordinator
}

// newFleet starts n workers with Workers: 1 engines; wrap, when
// non-nil, decorates each runner (the traced run times shard calls).
func newFleet(n int, wrap func(dist.Runner) dist.Runner) (*fleet, error) {
	f := &fleet{}
	var runners []dist.Runner
	for i := 0; i < n; i++ {
		srv, err := service.New(service.Config{Engine: task.NewEngine(engine.Config{Workers: 1})})
		if err != nil {
			f.close()
			return nil, err
		}
		ts := httptest.NewServer(srv)
		f.srvs, f.tss = append(f.srvs, srv), append(f.tss, ts)
		var r dist.Runner = dist.NewHTTPRunner(ts.URL)
		if wrap != nil {
			r = wrap(r)
		}
		runners = append(runners, r)
	}
	coord, err := dist.New(runners, dist.Options{})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	return f, nil
}

func (f *fleet) close() {
	for i, srv := range f.srvs {
		srv.Drain()
		f.tss[i].Close()
		_ = srv.Close() // no run store, so nothing to flush or report
	}
}

// distDriver runs the translate request list through a coordinator
// over a fresh two-worker fleet per pass, so each shard starts from an
// empty memo pool, as translate's fresh engine does.
type distDriver struct {
	reqs  []task.Request
	fleet *fleet
}

func (d *distDriver) setup(ctx context.Context) error {
	if err := d.prepare(ctx); err != nil {
		return err
	}
	return firstError(d.pass(ctx))
}

func (d *distDriver) prepare(context.Context) error {
	if d.fleet != nil {
		d.fleet.close()
		d.fleet = nil
	}
	resetProcessMemos()
	f, err := newFleet(2, nil)
	if err != nil {
		return err
	}
	d.fleet = f
	return nil
}

func (d *distDriver) pass(ctx context.Context) []result {
	out := make([]result, len(d.reqs))
	for i, req := range d.reqs {
		req = withWorkers(req, 1)
		start := time.Now()
		res, err := d.fleet.coord.Run(ctx, req)
		var run *task.Run
		if err == nil {
			run = res.Run
		}
		out[i] = runResult(req, time.Since(start), run, err)
	}
	return out
}

func (d *distDriver) close() {
	if d.fleet != nil {
		d.fleet.close()
	}
}

// ---- service: fvevald through client.Client ------------------------------

// daemon is one in-process fvevald served on 127.0.0.1. It runs
// without a run store (DataDir): with the journal's fsyncs in the path,
// the disk's latency on the 2-vCPU VM the benchmark was tuned on moved
// every service figure by 15-40% between runs.
type daemon struct {
	srv *service.Server
	ts  *httptest.Server
}

func newDaemon() (*daemon, error) {
	srv, err := service.New(service.Config{Engine: task.NewEngine(engine.Config{Workers: 1})})
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, ts: httptest.NewServer(srv)}, nil
}

func (d *daemon) close() {
	d.srv.Drain()
	d.ts.Close()
	_ = d.srv.Close() // no run store, so nothing to flush or report
}

// serviceDriver keeps one daemon for the whole run, memos warm as in
// a long-lived fvevald, and drives it with two closed-loop clients:
// each waits for its run's report before submitting the next, as
// fvevalctl does.
type serviceDriver struct {
	stream  *serviceStream
	d       *daemon
	clients []*client.Client
}

func (d *serviceDriver) setup(ctx context.Context) error {
	dm, err := newDaemon()
	if err != nil {
		return err
	}
	d.d = dm
	d.clients = []*client.Client{client.New(dm.ts.URL), client.New(dm.ts.URL)}
	return firstError(d.submit(ctx, d.stream.warmup()))
}

func (d *serviceDriver) prepare(context.Context) error { return nil }

func (d *serviceDriver) pass(ctx context.Context) []result {
	return d.submit(ctx, d.stream.next())
}

func (d *serviceDriver) submit(ctx context.Context, reqs []task.Request) []result {
	return closedLoop(reqs, d.clients, func(c *client.Client, req task.Request) result {
		return submitAndWait(ctx, c, req)
	})
}

func (d *serviceDriver) close() {
	if d.d != nil {
		d.d.close()
	}
}

// closedLoop issues reqs from one goroutine per client; each client
// takes the next request only after its previous one completed.
func closedLoop(reqs []task.Request, clients []*client.Client, do func(*client.Client, task.Request) result) []result {
	out := make([]result, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = do(c, reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// submitAndWait is one fvevald round trip: POST /v1/runs, follow the
// run to its terminal state, fetch the run view.
func submitAndWait(ctx context.Context, c *client.Client, req task.Request) result {
	req = withWorkers(req, 1)
	start := time.Now()
	view, err := c.Run(ctx, api.Submission{Request: req}, nil)
	return viewResult(req, time.Since(start), view, err)
}

func viewResult(req task.Request, lat time.Duration, view api.RunView, err error) result {
	r := result{req: req, latency: lat, err: err, cached: view.Cached}
	if err != nil {
		return r
	}
	if view.Run == nil {
		r.err = fmt.Errorf("run %s (%s) carries no report", view.ID, view.Status)
		return r
	}
	if !view.Cached {
		r.jobs = view.Run.Stats.Jobs
	}
	r.rep = view.Run.Report
	return r
}
