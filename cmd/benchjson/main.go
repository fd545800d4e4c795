// Command benchjson converts `go test -bench` output into the
// BENCH_tables.json perf-trajectory artifact: one entry per benchmark
// (the Benchmark prefix and -cpus suffix stripped) carrying ns/op, the
// registry task that regenerates the same artifact, the shard and
// worker counts parsed from distributed sub-benchmark names
// ("DistTable1/shards=2/workers=2"), every custom benchmark metric
// (e.g. the simulation prefilter hit rate reported as
// "prefilter-hit-rate"), so the file tracks prefilter effectiveness
// next to raw timings, and — schema v5 — the B/op and allocs/op that
// -benchmem adds. The previous run's ns/op ride along as the baseline,
// so each artifact carries its own before/after comparison.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -benchmem -run='^$' . | go run ./cmd/benchjson -prev BENCH_tables.json > BENCH_tables.json.new
//
// With -gate-pct N (and -prev), benchjson additionally acts as the
// CI bench-regression guard: any TableN/DistTableN entry whose ns/op
// regressed more than N percent against the baseline fails the run
// (exit 1) after writing the artifact, so the job both records and
// enforces the perf trajectory.
//
// The Makefile bench target wires this up and rotates the file; CI
// uploads it as a build artifact so the repo accumulates a perf
// trajectory across PRs.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"fveval/internal/task"
)

// Entry is one benchmark's record in the v5 schema.
type Entry struct {
	// NsPerOp is nanoseconds per iteration for this run.
	NsPerOp int64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are the heap bytes and allocations
	// per iteration, present when the run had -benchmem.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Task is the registry task regenerating the same artifact
	// (fvevalctl run -task <name>), when the benchmark maps to one.
	Task string `json:"task,omitempty"`
	// Shards and Workers locate the entry on the distributed-scaling
	// axis: 1/1 for single-process benchmarks, the fleet shape for
	// Dist benchmarks, so speedup curves fall out of one file.
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
	// Metrics carries the benchmark's custom b.ReportMetric values
	// (unit -> value), e.g. "prefilter-hit-rate".
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH_tables.json schema (fveval-bench/v5).
type File struct {
	Schema string `json:"schema"`
	// NsPerOp is the flat name → ns/op map, kept from v2 so baselines
	// diff across schema versions.
	NsPerOp map[string]int64 `json:"ns_per_op"`
	// Entries is the per-benchmark record: task mapping, shard/worker
	// counts, and custom metrics.
	Entries map[string]Entry `json:"entries"`
	// BaselineNsPerOp carries the previous artifact's NsPerOp so the
	// file itself records the before/after pair.
	BaselineNsPerOp map[string]int64 `json:"baseline_ns_per_op,omitempty"`
}

// artifactName extracts the paper-artifact prefix of a benchmark name
// ("Table2HumanPassK" or "DistTable1" -> table) and resolves the
// registry task that reproduces it.
var artifactName = regexp.MustCompile(`^(?:Dist)?(Table|Figure)(\d+)`)

// namedArtifact maps benchmarks of registry tasks with no paper
// table/figure number (this repo's own task families) to their
// registry names.
var namedArtifact = map[string]string{
	"TableAGR": "agr",
	"FigureR":  "refinement",
}

func taskFor(bench string) (string, bool) {
	base := strings.TrimPrefix(bench, "Dist")
	if i := strings.IndexByte(base, '/'); i >= 0 {
		base = base[:i]
	}
	if t, ok := namedArtifact[base]; ok {
		return t, true
	}
	m := artifactName.FindStringSubmatch(bench)
	if m == nil {
		return "", false
	}
	n, err := strconv.Atoi(m[2])
	if err != nil {
		return "", false
	}
	var spec *task.Spec
	if m[1] == "Table" {
		spec, err = task.ByTable(n)
	} else {
		spec, err = task.ByFigure(n)
	}
	if err != nil {
		return "", false
	}
	return spec.Name, true
}

// benchLine matches e.g. "BenchmarkTable2HumanPassK-8   3   53136316 ns/op"
// including sub-benchmark names ("BenchmarkDistTable1/shards=2/workers=2-8")
// and captures the trailing custom-metric pairs ("0.75 prefilter-hit-rate").
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op(.*)$`)

// metricPair pulls one "value unit" custom metric off the tail.
var metricPair = regexp.MustCompile(`\s+(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?) ([^\s]+)`)

// fleetDim pulls shard/worker counts out of sub-benchmark path
// segments ("/shards=2", "/workers=4").
var fleetDim = regexp.MustCompile(`/(shards|workers)=(\d+)`)

func entryFor(name string, ns int64, tail string) Entry {
	e := Entry{NsPerOp: ns, Shards: 1, Workers: 1}
	if t, ok := taskFor(name); ok {
		e.Task = t
	}
	for _, m := range fleetDim.FindAllStringSubmatch(name, -1) {
		if n, err := strconv.Atoi(m[2]); err == nil {
			if m[1] == "shards" {
				e.Shards = n
			} else {
				e.Workers = n
			}
		}
	}
	for _, m := range metricPair.FindAllStringSubmatch(tail, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			continue
		}
		switch m[2] {
		case "B/op":
			e.BytesPerOp = ptr(int64(v))
		case "allocs/op":
			e.AllocsPerOp = ptr(int64(v))
		case "MB/s":
			// throughput from b.SetBytes; no benchmark here sets it
		default:
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[m[2]] = v
		}
	}
	return e
}

func ptr(v int64) *int64 { return &v }

// gated reports whether a benchmark participates in the regression
// gate: every table entry plus the named task-family artifacts,
// single-process or distributed.
var gated = regexp.MustCompile(`^(?:Dist)?(?:Table\d|TableAGR|FigureR)`)

// parse reads `go test -bench` output into an artifact whose baseline
// is prev's ns/op (prev may be nil).
func parse(r io.Reader, prev *File) (File, error) {
	out := File{
		Schema:  "fveval-bench/v5",
		NsPerOp: map[string]int64{},
		Entries: map[string]Entry{},
	}
	if prev != nil && len(prev.NsPerOp) > 0 {
		out.BaselineNsPerOp = prev.NsPerOp
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		out.NsPerOp[m[1]] = int64(ns)
		out.Entries[m[1]] = entryFor(m[1], int64(ns), m[3])
	}
	if err := sc.Err(); err != nil {
		return File{}, err
	}
	if len(out.NsPerOp) == 0 {
		return File{}, errors.New("no benchmark lines on stdin")
	}
	return out, nil
}

// regressions lists every gated benchmark whose ns/op rose more than
// pct percent over the artifact's baseline. The gate reads ns/op only.
func regressions(f File, pct float64) []string {
	var out []string
	for name, base := range f.BaselineNsPerOp {
		if !gated.MatchString(name) || base <= 0 {
			continue
		}
		now, ok := f.NsPerOp[name]
		if !ok {
			continue // benchmark removed or renamed; not a regression
		}
		if limit := float64(base) * (1 + pct/100); float64(now) > limit {
			out = append(out, fmt.Sprintf("%s regressed %.1f%% (%d -> %d ns/op, gate %.0f%%)",
				name, 100*(float64(now)/float64(base)-1), base, now, pct))
		}
	}
	slices.Sort(out)
	return out
}

func main() {
	prev := flag.String("prev", "", "previous BENCH_tables.json whose ns_per_op becomes this artifact's baseline")
	gatePct := flag.Float64("gate-pct", 0, "fail (exit 1) when any TableN entry's ns/op regresses more than this percentage against -prev (0 disables the gate)")
	flag.Parse()

	var old *File
	if *prev != "" {
		if data, err := os.ReadFile(*prev); err == nil {
			var f File
			if json.Unmarshal(data, &f) == nil {
				old = &f
			}
		}
	}
	out, err := parse(os.Stdin, old)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *gatePct > 0 {
		regressed := regressions(out, *gatePct)
		for _, r := range regressed {
			fmt.Fprintln(os.Stderr, "benchjson:", r)
		}
		if len(regressed) > 0 {
			os.Exit(1)
		}
	}
}
