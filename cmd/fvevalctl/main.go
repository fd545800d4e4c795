// Command fvevalctl is the one CLI for FVEval: every table and figure
// of the paper regenerates from `fvevalctl run`, and the service tier
// is driven from the same binary. A run executes in-process on one
// evaluation engine by default (the single-process reference every
// distributed run is diffed against); with -workers, -registry or
// -local it coordinates a distributed run itself instead, splitting
// the task into shard slices, fanning them out across a worker fleet,
// and merging the partial reports into a report byte-identical to the
// in-process one. The remaining subcommands drive a fvevald
// coordinator remotely over the v1 API through
// internal/service/client.
//
// Usage:
//
//	fvevalctl tasks                                             # list the registry
//	fvevalctl run -task nl2sva-human                            # in-process, one engine
//	fvevalctl run -task table5 -limit 8 -json                   # unified run JSON
//	fvevalctl run -task table2 -j 1 -cache=false                # serial, memos off
//	fvevalctl run -task table2 -workers http://a:8080,http://b:8080
//	fvevalctl run -task table2 -registry http://coord:8080      # fleet = registered workers
//	fvevalctl run -task nl2sva-human -local 4                   # 4 loopback engines
//	fvevalctl submit -to http://coord:8080 -task table1         # queue a run, print its id
//	fvevalctl submit -to http://coord:8080 -task table2 -distributed -follow
//	fvevalctl report -to http://coord:8080 run-000001           # fetch a finished run's payload
//	fvevalctl workers -to http://coord:8080                     # live registered fleet
//	fvevalctl metrics -to http://coord:8080                     # scrape /metrics
//	fvevalctl submit -to http://coord:8080 -task table1 -trace t.json -follow
//	fvevalctl trace -to http://coord:8080 -o t.json run-000001  # Perfetto export
//
// An in-process run prints the run's own equivalence-cache, formal
// backend and simulation-prefilter counters to stderr; a fleet run
// prints its shard and retry summary instead. The fleet-only flags
// (-shards, -attempts, -shard-timeout, -hedge, -backoff, -backoff-cap,
// -seed) are rejected without a fleet.
//
// Tracing: `run -trace file.json` records spans locally and writes
// Chrome trace-event JSON (load it at https://ui.perfetto.dev).
// `submit -trace file.json` asks the service to record; with -follow
// the trace is fetched and converted when the run lands, and either
// way `fvevalctl trace` can export it later while the run is retained.
//
// -task accepts registry names plus tableN / figureN aliases. Worker
// failures are retried on the remaining fleet (-attempts per shard);
// a worker that keeps failing is benched for the rest of the run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"

	"fveval/internal/dist"
	"fveval/internal/engine"
	"fveval/internal/fault"
	"fveval/internal/obs"
	"fveval/internal/service/api"
	"fveval/internal/service/client"
	"fveval/internal/task"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "tasks":
		printRegistry()
	case "run":
		err = runCmd(os.Args[2:])
	case "submit":
		err = submitCmd(os.Args[2:])
	case "report":
		err = reportCmd(os.Args[2:])
	case "workers":
		err = workersCmd(os.Args[2:])
	case "metrics":
		err = metricsCmd(os.Args[2:])
	case "trace":
		err = traceCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fvevalctl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fvevalctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fvevalctl tasks                    list the task registry
  fvevalctl run -task <name> ...     run a task in-process, or across a worker fleet
  fvevalctl submit -to <url> ...     submit a run to a fvevald service
  fvevalctl report -to <url> <id>    print a finished run's payload
  fvevalctl workers -to <url>        list the registered worker fleet
  fvevalctl metrics -to <url>        scrape the service /metrics
  fvevalctl trace -to <url> <id>     export a traced run (Chrome trace-event JSON)
run flags:`)
	fs := runFlags(&runConfig{})
	fs.SetOutput(os.Stderr)
	fs.PrintDefaults()
}

func printRegistry() {
	fmt.Printf("%-24s %-8s %-8s %-9s %s\n", "Task", "Paper", "Kind", "Sharded", "Title")
	for _, s := range task.Tasks() {
		paper := ""
		switch {
		case s.Table > 0:
			paper = fmt.Sprintf("table %d", s.Table)
		case s.Figure > 0:
			paper = fmt.Sprintf("fig. %d", s.Figure)
		}
		sharded := "yes"
		if !s.Shardable() {
			sharded = "no"
		}
		fmt.Printf("%-24s %-8s %-8s %-9s %s\n", s.Name, paper, s.Kind, sharded, s.Title)
	}
}

// runConfig collects the run subcommand's flags.
type runConfig struct {
	taskName string
	workers  string
	registry string
	local    int
	shards   int
	attempts int
	timeout  time.Duration
	hedge    bool
	backoff  time.Duration
	backCap  time.Duration
	seed     int64
	deadline time.Duration
	faults   string
	jsonOut  bool
	verbose  bool
	traceOut string
	traceCap int

	limit    int
	count    int
	samples  int
	parallel int
	cache    bool
	maxBound int
	budget   int64
}

func runFlags(c *runConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.StringVar(&c.taskName, "task", "", "registry task to run (name, or tableN / figureN alias)")
	fs.StringVar(&c.workers, "workers", "", "comma-separated fvevald worker URLs (http://host:port,...)")
	fs.StringVar(&c.registry, "registry", "", "coordinator URL; fleet = its live registered workers")
	fs.IntVar(&c.local, "local", 0, "shard the run across N in-process loopback engines (0 = no fleet: run in-process on one engine, unsharded, unless -workers or -registry is set)")
	fs.IntVar(&c.shards, "shards", 0, "shard count override (0 = one per worker)")
	fs.IntVar(&c.attempts, "attempts", 0, "max attempts per shard before the run fails (0 = 3)")
	fs.DurationVar(&c.timeout, "shard-timeout", 0, "per-attempt deadline; an expired shard is reassigned (0 = none)")
	fs.BoolVar(&c.hedge, "hedge", false, "speculatively re-dispatch the last straggler shard to an idle worker (run only)")
	fs.DurationVar(&c.backoff, "backoff", 0, "base shard retry backoff, doubled per attempt with full jitter (0 = 50ms; run only)")
	fs.DurationVar(&c.backCap, "backoff-cap", 0, "shard retry backoff ceiling (0 = 2s; run only)")
	fs.Int64Var(&c.seed, "seed", 0, "deterministic seed for retry jitter and hedge timing (0 = 1; run only)")
	fs.DurationVar(&c.deadline, "timeout", 0, "end-to-end run deadline, forwarded to workers per shard (0 = none)")
	fs.StringVar(&c.faults, "faults", "", "client-side fault-injection plan (requires a -tags faultinject build; run only)")
	fs.BoolVar(&c.jsonOut, "json", false, "emit the merged run plus fleet metadata as JSON")
	fs.BoolVar(&c.verbose, "v", false, "stream coordinator progress to stderr")
	fs.StringVar(&c.traceOut, "trace", "", "record a run trace and write Chrome trace-event JSON here")
	fs.IntVar(&c.traceCap, "trace-cap", 0, "completed-span ring capacity for -trace (0 = 1M client-side, server default on submit)")
	fs.IntVar(&c.limit, "limit", 0, "truncate instance lists (0 = full size)")
	fs.IntVar(&c.count, "count", 0, "NL2SVA-Machine dataset size (0 = task default)")
	fs.IntVar(&c.samples, "samples", 0, "samples per instance for pass@k runs (0 = paper default)")
	fs.IntVar(&c.parallel, "j", 0, "evaluation parallelism per engine (0 = the engine default, GOMAXPROCS)")
	fs.BoolVar(&c.cache, "cache", true, "memoize formal equivalence checks and every judgment memo within each engine")
	fs.IntVar(&c.maxBound, "maxbound", 0, "cap for the formal backend's bound ramp (0 = defaults)")
	fs.Int64Var(&c.budget, "budget", 0, "SAT conflict budget per formal query (0 = default)")
	return fs
}

// aliasPattern resolves tableN / figN / figureN task aliases.
var aliasPattern = regexp.MustCompile(`^(table|fig|figure)(\d+)$`)

func resolveTask(name string) (*task.Spec, error) {
	if m := aliasPattern.FindStringSubmatch(strings.ToLower(name)); m != nil {
		n, err := strconv.Atoi(m[2])
		if err == nil {
			if m[1] == "table" {
				return task.ByTable(n)
			}
			return task.ByFigure(n)
		}
	}
	return task.Lookup(name)
}

// buildRequest resolves the task and option flags into a request.
func buildRequest(c *runConfig) (task.Request, error) {
	if c.taskName == "" {
		return task.Request{}, fmt.Errorf("missing -task (see fvevalctl tasks)")
	}
	spec, err := resolveTask(c.taskName)
	if err != nil {
		return task.Request{}, err
	}
	req := task.Request{
		Task: spec.Name,
		Options: engine.Config{
			Limit:    c.limit,
			Samples:  c.samples,
			Budget:   c.budget,
			MaxBound: c.maxBound,
			Workers:  c.parallel,
			NoCache:  !c.cache,
		},
	}
	if c.count > 0 {
		if !acceptsCount(spec) {
			return task.Request{}, fmt.Errorf("task %s does not accept -count", spec.Name)
		}
		req.Params.Count = c.count
	}
	return req, nil
}

func runCmd(args []string) error {
	var c runConfig
	fs := runFlags(&c)
	if err := fs.Parse(args); err != nil {
		return err
	}
	req, err := buildRequest(&c)
	if err != nil {
		return err
	}
	runners, err := buildFleet(&c)
	if err != nil {
		return err
	}

	if err := activateFaults(c.faults); err != nil {
		return err
	}
	ctx := context.Background()
	if c.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.deadline)
		defer cancel()
	}
	var rec *obs.Recorder
	var root *obs.Span
	if c.traceOut != "" {
		// A one-shot CLI run has no reason to keep the service's tight
		// ring default: heavy tables (deep SAT ramps) emit tens of
		// thousands of spans, and dropping them would evict the tree's
		// roots. The cap still exists as a backstop against runaway runs.
		traceCap := c.traceCap
		if traceCap == 0 {
			traceCap = 1 << 20
		}
		rec = obs.NewRecorder(traceCap)
		root = rec.Start("run", 0)
		root.SetStr("task", req.Task)
		ctx = obs.ContextWithSpan(obs.NewContext(ctx, rec), root)
	}
	var run *task.Run
	var res *dist.Result
	if runners == nil {
		// No fleet: the single-process reference, one engine, unsharded.
		if c.verbose {
			req.Progress = printEvent
		}
		run, err = task.NewEngine(engine.Config{}).Run(ctx, req)
	} else {
		res, err = runFleet(ctx, runners, &c, req)
	}
	if err != nil {
		return err
	}
	if res != nil {
		run = res.Run
	}
	if rec != nil {
		root.End()
		spans, dropped := rec.Snapshot()
		if err := writeChromeTrace(c.traceOut, spans, dropped); err != nil {
			return err
		}
	}
	if c.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if res != nil {
			return enc.Encode(res)
		}
		return enc.Encode(run)
	}
	fmt.Println(run.Report.Render())
	if res != nil {
		fmt.Fprintf(os.Stderr, "fvevalctl: %d shards over %d workers, %d attempts (%d retried), %d jobs, slowest shard %dms\n",
			res.Shards, res.Workers, res.Attempts, res.Retries, run.Stats.Jobs, run.Stats.WallMS)
		return nil
	}
	if st := run.Stats.Cache; st.Hits+st.Misses > 0 {
		fmt.Fprintln(os.Stderr, "fvevalctl:", st)
	}
	if fst := run.Stats.Formal; fst.Queries > 0 {
		fmt.Fprintln(os.Stderr, "fvevalctl:", fst)
		fmt.Fprintln(os.Stderr, "fvevalctl:", fst.Sim)
	}
	return nil
}

// runFleet shards req across runners and merges the partials.
func runFleet(ctx context.Context, runners []dist.Runner, c *runConfig, req task.Request) (*dist.Result, error) {
	opts := dist.Options{
		Shards:       c.shards,
		MaxAttempts:  c.attempts,
		ShardTimeout: c.timeout,
		Hedge:        c.hedge,
		BackoffBase:  c.backoff,
		BackoffCap:   c.backCap,
		Seed:         c.seed,
	}
	if c.verbose {
		opts.Progress = func(ev dist.Event) {
			switch ev.Type {
			case dist.EventJob:
				fmt.Fprintf(os.Stderr, "fvevalctl: %s shard %s job %d/%d (%s) %s %dms\n",
					ev.Worker, ev.Shard, ev.Job.Done, ev.Job.Total, ev.Job.Instance, ev.Job.Kind, ev.Job.WallMS)
			case dist.EventShardRetry, dist.EventWorkerDown:
				fmt.Fprintf(os.Stderr, "fvevalctl: %s %s shard %s: %s\n", ev.Type, ev.Worker, ev.Shard, ev.Err)
			default:
				fmt.Fprintf(os.Stderr, "fvevalctl: %s %s shard %s (%d/%d shards)\n",
					ev.Type, ev.Worker, ev.Shard, ev.Done, ev.Total)
			}
		}
	}
	coord, err := dist.New(runners, opts)
	if err != nil {
		return nil, err
	}
	return coord.Run(ctx, req)
}

// printEvent is the -v job line of an in-process run and of
// submit -follow.
func printEvent(ev task.Event) {
	fmt.Fprintf(os.Stderr, "fvevalctl: job %d/%d (%s) %s %dms\n", ev.Done, ev.Total, ev.Instance, ev.Kind, ev.WallMS)
}

// activateFaults arms a client-side fault-injection plan for the
// in-process coordinator seams (dist.dispatch, dist.response, and the
// engine points of -local loopback workers). Gated on the faultinject
// build tag, like the server's -faults flag and FVEVAL_FAULTS.
func activateFaults(spec string) error {
	if spec == "" {
		return nil
	}
	if !fault.BuildEnabled {
		return fmt.Errorf("-faults requires a binary built with -tags faultinject")
	}
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		return err
	}
	if err := fault.Activate(plan); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fvevalctl: fault injection active: %s\n", fault.Describe())
	return nil
}

// buildFleet resolves -workers / -registry / -local into runners.
// With none of them it returns no runners: the run stays in-process,
// where the dist-only flags have nothing to act on and are rejected.
func buildFleet(c *runConfig) ([]dist.Runner, error) {
	if c.local < 0 {
		return nil, fmt.Errorf("-local %d out of range", c.local)
	}
	modes := 0
	for _, set := range []bool{c.workers != "", c.registry != "", c.local > 0} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		return nil, fmt.Errorf("-workers, -registry, and -local are mutually exclusive")
	}
	if c.registry != "" {
		workers, err := client.New(c.registry).Workers(context.Background())
		if err != nil {
			return nil, fmt.Errorf("registry %s: %w", c.registry, err)
		}
		if len(workers) == 0 {
			return nil, fmt.Errorf("registry %s lists no live workers", c.registry)
		}
		runners := make([]dist.Runner, len(workers))
		for i, w := range workers {
			runners[i] = dist.NewHTTPRunner(w.URL)
		}
		return runners, nil
	}
	if c.workers != "" {
		var runners []dist.Runner
		for _, u := range strings.Split(c.workers, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				return nil, fmt.Errorf("worker %q: want an http(s) URL", u)
			}
			runners = append(runners, dist.NewHTTPRunner(u))
		}
		if len(runners) == 0 {
			return nil, fmt.Errorf("-workers lists no URLs")
		}
		return runners, nil
	}
	if c.local > 0 {
		return dist.Loopback(c.local, engine.Config{}), nil
	}
	if c.shards != 0 || c.attempts != 0 || c.timeout != 0 || c.hedge || c.backoff != 0 || c.backCap != 0 || c.seed != 0 {
		return nil, fmt.Errorf("-shards, -attempts, -shard-timeout, -hedge, -backoff, -backoff-cap and -seed need a fleet (-workers, -registry or -local)")
	}
	return nil, nil
}

func acceptsCount(spec *task.Spec) bool {
	for _, f := range spec.Accepts {
		if f == "count" {
			return true
		}
	}
	return false
}

// submitCmd queues a run on a fvevald service. Without -follow it
// prints the run id and exits; with -follow it streams progress and
// prints the finished report.
func submitCmd(args []string) error {
	var c runConfig
	var (
		to          string
		apiKey      string
		distributed bool
		priority    int
		follow      bool
	)
	fs := runFlags(&c)
	fs.Init("submit", flag.ContinueOnError)
	fs.StringVar(&to, "to", "", "fvevald base URL (required)")
	fs.StringVar(&apiKey, "api-key", "", "X-API-Key admission identity")
	fs.BoolVar(&distributed, "distributed", false, "fan the run across the service's registered worker fleet")
	fs.IntVar(&priority, "priority", 0, "admission priority 0..9 (higher runs first)")
	fs.BoolVar(&follow, "follow", false, "wait for the run and print its report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if to == "" {
		return fmt.Errorf("missing -to <url>")
	}
	req, err := buildRequest(&c)
	if err != nil {
		return err
	}
	if c.traceOut != "" {
		req.Trace = &obs.TraceContext{Cap: c.traceCap}
	}
	cl := newClient(to, apiKey)
	sub := api.Submission{Request: req, Distributed: distributed, Priority: priority, TimeoutMS: c.deadline.Milliseconds()}

	if !follow {
		resp, err := cl.Submit(context.Background(), sub)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fvevalctl: %s %s (position %d, cached %v)\n", resp.ID, resp.Status, resp.Position, resp.Cached)
		if c.traceOut != "" {
			fmt.Fprintf(os.Stderr, "fvevalctl: tracing on; export later with: fvevalctl trace -to %s -o %s %s\n",
				to, c.traceOut, resp.ID)
		}
		fmt.Println(resp.ID)
		return nil
	}

	var progress func(task.Event)
	if c.verbose {
		progress = printEvent
	}
	view, err := cl.Run(context.Background(), sub, progress)
	if err != nil {
		return err
	}
	if c.traceOut != "" {
		spans, dropped, err := cl.Trace(context.Background(), view.ID)
		if err != nil {
			return fmt.Errorf("fetch trace for %s: %w", view.ID, err)
		}
		if err := writeChromeTrace(c.traceOut, spans, dropped); err != nil {
			return err
		}
	}
	return printRunView(view, c.jsonOut)
}

// traceCmd exports a traced run: fetch the span dump from the service
// and write it as Chrome trace-event JSON (Perfetto-loadable), or as
// the raw span NDJSON with -raw.
func traceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	to := fs.String("to", "", "fvevald base URL (required)")
	apiKey := fs.String("api-key", "", "X-API-Key admission identity")
	out := fs.String("o", "", "output file (default stdout)")
	raw := fs.Bool("raw", false, "emit the raw span NDJSON instead of Chrome trace-event JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *to == "" {
		return fmt.Errorf("missing -to <url>")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: fvevalctl trace -to <url> [-o file.json] <run-id>")
	}
	spans, dropped, err := newClient(*to, *apiKey).Trace(context.Background(), fs.Arg(0))
	if err != nil {
		return err
	}
	var data []byte
	if *raw {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := range spans {
			if err := enc.Encode(&spans[i]); err != nil {
				return err
			}
		}
		data = buf.Bytes()
	} else {
		if data, err = obs.ChromeTrace(spans); err != nil {
			return err
		}
		data = append(data, '\n')
	}
	if *out == "" || *out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fvevalctl: %s: %d spans (%d dropped) -> %s\n", fs.Arg(0), len(spans), dropped, *out)
	return nil
}

// writeChromeTrace converts completed spans to Chrome trace-event
// JSON and writes the Perfetto-loadable file.
func writeChromeTrace(path string, spans []obs.SpanData, dropped int64) error {
	data, err := obs.ChromeTrace(spans)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fvevalctl: trace: %d spans (%d dropped) -> %s\n", len(spans), dropped, path)
	return nil
}

// reportCmd fetches one run and prints its persisted payload — the
// Run (or Partial) JSON on stdout, status on stderr. The payload is
// byte-stable across server restarts, which is what the smoke tests
// diff.
func reportCmd(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	to := fs.String("to", "", "fvevald base URL (required)")
	apiKey := fs.String("api-key", "", "X-API-Key admission identity")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *to == "" {
		return fmt.Errorf("missing -to <url>")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: fvevalctl report -to <url> <run-id>")
	}
	view, err := newClient(*to, *apiKey).Get(context.Background(), fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fvevalctl: %s %s", view.ID, view.Status)
	if view.Error != "" {
		fmt.Fprintf(os.Stderr, ": %s", view.Error)
	}
	fmt.Fprintln(os.Stderr)
	return printRunView(view, true)
}

// printRunView emits a terminal run's payload: the rendered report
// (human) or the Run/Partial JSON (machine).
func printRunView(view api.RunView, jsonOut bool) error {
	var payload any
	switch {
	case view.Run != nil:
		payload = view.Run
	case view.Part != nil:
		payload = view.Part
	default:
		return fmt.Errorf("run %s (%s) carries no payload", view.ID, view.Status)
	}
	if !jsonOut && view.Run != nil {
		fmt.Println(view.Run.Report.Render())
		return nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}

// workersCmd lists the live registered fleet.
func workersCmd(args []string) error {
	fs := flag.NewFlagSet("workers", flag.ContinueOnError)
	to := fs.String("to", "", "fvevald base URL (required)")
	jsonOut := fs.Bool("json", false, "emit JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *to == "" {
		return fmt.Errorf("missing -to <url>")
	}
	workers, err := newClient(*to, "").Workers(context.Background())
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(workers)
	}
	fmt.Printf("%-16s %-32s %s\n", "ID", "URL", "Last seen")
	for _, w := range workers {
		fmt.Printf("%-16s %-32s %s\n", w.ID, w.URL, time.UnixMilli(w.LastSeenMS).Format(time.RFC3339))
	}
	return nil
}

// metricsCmd scrapes and prints the service /metrics exposition.
func metricsCmd(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	to := fs.String("to", "", "fvevald base URL (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *to == "" {
		return fmt.Errorf("missing -to <url>")
	}
	text, err := newClient(*to, "").Metrics(context.Background())
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}

func newClient(base, apiKey string) *client.Client {
	var opts []client.Option
	if apiKey != "" {
		opts = append(opts, client.WithAPIKey(apiKey))
	}
	return client.New(base, opts...)
}
