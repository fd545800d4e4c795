// Command perfbench is the benchmark of record for the FVEval judge.
// It drives a seeded workload through the public entry points users
// hit (task.Engine.Run, fvevald through client.Client, dist.New over
// dist.HTTPRunners), checks every report byte for byte against a
// reference, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload design --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace
// 1 makes a separate traced run that reports per-layer metrics. NOTES.md
// gives the reasoning behind each workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"fveval/internal/task"
)

// processStart anchors setup_s: the first set-up runs from here.
var processStart = time.Now()

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

// minPasses is the fewest timed passes a run makes, however long.
const minPasses = 3

// runConfig is what one run is asked for.
type runConfig struct {
	seed    uint64
	workdir string
	// tiny shrinks every request to a couple of instances (self-test).
	tiny bool
}

func (c runConfig) sized(reqs []task.Request) []task.Request {
	if !c.tiny {
		return reqs
	}
	for i := range reqs {
		reqs[i].Options.Limit = 2 * max(reqs[i].Options.Shard.Count, 1)
		if reqs[i].Params.Count > 0 {
			reqs[i].Params.Count = 20
		}
	}
	return reqs
}

func (c runConfig) design() []task.Request    { return c.sized(designRequests(c.seed)) }
func (c runConfig) translate() []task.Request { return c.sized(translateRequests(c.seed)) }

type workload struct {
	name string
	// driver builds the timed run's driver.
	driver func(c runConfig) driver
	// trace makes the traced run.
	trace func(ctx context.Context, c runConfig) (*layerRun, error)
}

var workloads = []workload{
	{name: "design",
		driver: func(c runConfig) driver { return &engineDriver{reqs: c.design(), workers: 2} },
		trace:  func(ctx context.Context, c runConfig) (*layerRun, error) { return traceEngine(ctx, c.design()) }},
	{name: "translate",
		driver: func(c runConfig) driver { return &engineDriver{reqs: c.translate(), workers: 2} },
		trace:  func(ctx context.Context, c runConfig) (*layerRun, error) { return traceEngine(ctx, c.translate()) }},
	{name: "service",
		driver: func(c runConfig) driver { return &serviceDriver{stream: newServiceStream(c.seed)} },
		trace:  func(ctx context.Context, c runConfig) (*layerRun, error) { return traceService(ctx, c.seed) }},
	{name: "dist",
		driver: func(c runConfig) driver { return &distDriver{reqs: c.translate()} },
		trace:  func(ctx context.Context, c runConfig) (*layerRun, error) { return traceDist(ctx, c.translate()) }},
}

func lookup(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: design, translate, service or dist")
	seed := flag.Uint64("seed", 1, "seed that draws the workload's requests")
	seconds := flag.Int("seconds", 10, "how long the timed passes run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build/work", "directory for the span files")
	selftest := flag.Bool("selftest", false, "run every workload briefly on a tiny list and check the printed metrics")
	flag.Parse()

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	if *selftest {
		if err := selfTest(context.Background(), *workdir, "BENCHMARK.json"); err != nil {
			fatal(err)
		}
		fmt.Println("selftest ok")
		return
	}
	w, err := lookup(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	c := runConfig{seed: *seed, workdir: *workdir}
	out, err := runOnce(context.Background(), w, c, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func runOnce(ctx context.Context, w workload, c runConfig, window time.Duration, traced bool) (*output, error) {
	if traced {
		lr, err := w.trace(ctx, c)
		if err != nil {
			return nil, err
		}
		spans := fmt.Sprintf("%s/spans-%s-%d.ndjson", c.workdir, w.name, c.seed)
		if err := lr.rec.write(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d spans written to %s\n", w.name, len(lr.rec.spans), spans)
		return lr.output(), nil
	}
	run, err := timedRun(ctx, w, c, window)
	if err != nil {
		return nil, err
	}
	return run.output(w.name), nil
}

// timedRunResult is what the untraced run measured.
type timedRunResult struct {
	setups  []float64 // seconds
	walls   []float64 // seconds per pass
	jobs    []int     // jobs judged per pass
	reqs    []int     // requests per pass
	allocs  []float64 // heap bytes allocated per pass
	lats    []float64 // ms per request
	rss     []float64 // peak resident MB per pass, or of the run
	results []result
	failed  int
}

// timedRun is the untraced run: set up setupReps times (keeping the
// last), run timed passes until the window is spent, then check every
// report against its reference.
func timedRun(ctx context.Context, w workload, c runConfig, window time.Duration) (*timedRunResult, error) {
	tr := &timedRunResult{}
	var d driver
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		d = w.driver(c)
		if err := d.setup(ctx); err != nil {
			d.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		tr.setups = append(tr.setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			d.close()
		}
	}

	begin := time.Now()
	for p := 0; p < minPasses || time.Since(begin) < window; p++ {
		if err := d.prepare(ctx); err != nil {
			d.close()
			return nil, fmt.Errorf("prepare pass %d: %w", p, err)
		}
		perPassRSS := resetPeakRSS()
		a0 := heapAllocBytes()
		start := time.Now()
		rs := d.pass(ctx)
		wall := time.Since(start)
		tr.allocs = append(tr.allocs, float64(heapAllocBytes()-a0))
		if perPassRSS {
			tr.rss = append(tr.rss, peakRSSMB())
		}
		tr.walls = append(tr.walls, wall.Seconds())
		jobs := 0
		for i := range rs {
			rs[i].digest()
		}
		for _, r := range rs {
			jobs += r.jobs
			tr.lats = append(tr.lats, float64(r.latency)/float64(time.Millisecond))
		}
		tr.jobs = append(tr.jobs, jobs)
		tr.reqs = append(tr.reqs, len(rs))
		tr.results = append(tr.results, rs...)
	}
	if len(tr.rss) == 0 {
		tr.rss = []float64{peakRSSMB()}
	}
	d.close()

	var reqs []task.Request
	for _, r := range tr.results {
		reqs = append(reqs, r.req)
	}
	refs, err := references(ctx, reqs)
	if err != nil {
		return nil, err
	}
	tr.failed = checkReports(tr.results, refs)
	return tr, nil
}

func (tr *timedRunResult) output(name string) *output {
	var perPassJobs, perPassReqs []float64
	for i, wall := range tr.walls {
		perPassJobs = append(perPassJobs, float64(tr.jobs[i])/wall)
		perPassReqs = append(perPassReqs, float64(tr.reqs[i])/wall)
	}
	tail, pct, samples := runTail(tr.lats, tr.reqs[0])
	errRate := float64(tr.failed) / float64(len(tr.results))
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes, %d requests; latency_tail_ms is p%.1f of %d samples; error_rate %g ratio\n",
		name, len(tr.walls), len(tr.results), pct, samples, errRate)
	if n := tr.reqs[0]; n <= 16 {
		// The list is the same every pass: show each request's median.
		per := make([]float64, n)
		for i := range per {
			var xs []float64
			for j := i; j < len(tr.lats); j += n {
				xs = append(xs, tr.lats[j])
			}
			per[i] = median(xs)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: median ms per request %.1f\n", name, per)
	}
	q := quartiles(tr.walls)
	fmt.Fprintf(os.Stderr, "perfbench: %s: pass wall quartiles %.4f %.4f %.4f s; set-ups %.3f s\n", name, q[0], q[1], q[2], tr.setups)
	return &output{
		Correct:   tr.failed == 0,
		Attempted: len(tr.results),
		Failed:    tr.failed,
		Metrics: map[string]metric{
			"setup_s":         {median(tr.setups), "s"},
			"wall_s":          {median(tr.walls), "s"},
			"jobs_per_s":      {median(perPassJobs), "1/s"},
			"requests_per_s":  {median(perPassReqs), "1/s"},
			"latency_p50_ms":  {median(tr.lats), "ms"},
			"latency_tail_ms": {tail, "ms"},
			"alloc_mb":        {median(tr.allocs) / 1e6, "MB"},
			"rss_peak_mb":     {median(tr.rss), "MB"},
		},
	}
}

// median of xs (mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return [3]float64{median(s[:(n+1)/2]), median(s), median(s[n/2:])}
}

// perPassTail is the pass size from which latency_tail_ms is taken per
// pass: there the percentile with ten samples above it sits at p89 or
// higher, well above the median.
const perPassTail = 96

// runTail is latency_tail_ms over lats, passes of n requests each. When
// a pass holds at least perPassTail requests (service), the tail is
// taken per pass and the median over passes reported, as for wall_s, so
// a single stall of the machine cannot decide it; otherwise it is taken
// over every request of the run. It also returns the percentile and the
// number of samples it was taken over.
func runTail(lats []float64, n int) (value, pct float64, samples int) {
	if n < perPassTail {
		value, pct = tailLatency(lats)
		return value, pct, len(lats)
	}
	var tails []float64
	for i := 0; i+n <= len(lats); i += n {
		t, p := tailLatency(lats[i : i+n])
		tails, pct = append(tails, t), p
	}
	return median(tails), pct, n
}

// tailLatency is the highest percentile that still has at least ten
// samples above it: the sample with exactly ten larger ones. It
// returns the value and the percentile it stands for.
func tailLatency(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return median(s), 50
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}
