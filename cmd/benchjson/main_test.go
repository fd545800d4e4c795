package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

const benchOut = `goos: linux
goarch: amd64
pkg: fveval
BenchmarkTable2HumanPassK-8   	       3	  53136316 ns/op	         0.7500 prefilter-hit-rate	 1234567 B/op	   8910 allocs/op
BenchmarkTable5Design2SVA-2   	       1	2019625119 ns/op	413589706 B/op	 2792599 allocs/op
BenchmarkDistTable1/shards=2/workers=4-2         	       1	  34702634 ns/op
BenchmarkTableAGR   	       1	 292364215.5 ns/op	         1.5e-03 tiny-rate
BenchmarkAblationInduction/k=2-2 	       1	    654550 ns/op
--- some log line
PASS
ok  	fveval	12.3s
`

func TestParseEntries(t *testing.T) {
	f, err := parse(strings.NewReader(benchOut), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != "fveval-bench/v5" || f.BaselineNsPerOp != nil {
		t.Fatalf("schema %q baseline %v", f.Schema, f.BaselineNsPerOp)
	}
	wantNs := map[string]int64{
		"Table2HumanPassK":              53136316,
		"Table5Design2SVA":              2019625119,
		"DistTable1/shards=2/workers=4": 34702634,
		"TableAGR":                      292364215,
		"AblationInduction/k=2":         654550,
	}
	if !reflect.DeepEqual(f.NsPerOp, wantNs) {
		t.Fatalf("ns_per_op %v, want %v", f.NsPerOp, wantNs)
	}

	e := f.Entries["Table2HumanPassK"]
	if e.Task != "nl2sva-human-passk" || e.Shards != 1 || e.Workers != 1 {
		t.Errorf("Table2 entry %+v", e)
	}
	if e.BytesPerOp == nil || *e.BytesPerOp != 1234567 || e.AllocsPerOp == nil || *e.AllocsPerOp != 8910 {
		t.Errorf("Table2 memory %v %v", e.BytesPerOp, e.AllocsPerOp)
	}
	if !reflect.DeepEqual(e.Metrics, map[string]float64{"prefilter-hit-rate": 0.75}) {
		t.Errorf("Table2 metrics %v: B/op and allocs/op must not count as custom metrics", e.Metrics)
	}

	if e := f.Entries["Table5Design2SVA"]; e.Metrics != nil || *e.BytesPerOp != 413589706 || *e.AllocsPerOp != 2792599 {
		t.Errorf("Table5 entry %+v", e)
	}
	if e := f.Entries["DistTable1/shards=2/workers=4"]; e.Task != "nl2sva-human" || e.Shards != 2 || e.Workers != 4 {
		t.Errorf("fleet dims %+v", e)
	}
	if e := f.Entries["TableAGR"]; e.Task != "agr" || e.Metrics["tiny-rate"] != 1.5e-3 {
		t.Errorf("AGR entry %+v", e)
	}
	e = f.Entries["AblationInduction/k=2"]
	if e.Task != "" || e.BytesPerOp != nil || e.AllocsPerOp != nil {
		t.Errorf("ablation entry %+v: no task, no memory fields without -benchmem", e)
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "per_op\":null") || strings.Contains(string(data), "bytes_per_op") {
		t.Errorf("absent memory fields must be omitted: %s", data)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok fveval 1s\n"), nil); err == nil {
		t.Fatal("no benchmark lines must be an error")
	}
}

func TestGate(t *testing.T) {
	prev := &File{NsPerOp: map[string]int64{
		"Table1NL2SVAHuman":             100,
		"Table5Design2SVA":              100,
		"TableAGR":                      100,
		"DistTable1/shards=2/workers=2": 100,
		"AblationCritic/with-critic":    100, // not gated
		"Table9Removed":                 100, // gone from this run
		"FigureR":                       0,   // no usable baseline
	}}
	in := strings.Join([]string{
		"BenchmarkTable1NL2SVAHuman-2 1 120 ns/op",             // +20%: at the gate
		"BenchmarkTable5Design2SVA-2 1 121 ns/op 1 B/op",       // +21%: over
		"BenchmarkTableAGR-2 1 50 ns/op 999999999 B/op",        // faster; bytes are not gated
		"BenchmarkDistTable1/shards=2/workers=2-2 1 300 ns/op", // +200%: over
		"BenchmarkAblationCritic/with-critic-2 1 900 ns/op",
		"BenchmarkFigureR-2 1 900 ns/op",
	}, "\n")
	f, err := parse(strings.NewReader(in), prev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.BaselineNsPerOp, prev.NsPerOp) {
		t.Fatalf("baseline %v", f.BaselineNsPerOp)
	}
	got := regressions(f, 20)
	want := []string{
		"DistTable1/shards=2/workers=2 regressed 200.0% (100 -> 300 ns/op, gate 20%)",
		"Table5Design2SVA regressed 21.0% (100 -> 121 ns/op, gate 20%)",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("regressions %q, want %q", got, want)
	}
	if got := regressions(f, 250); got != nil {
		t.Fatalf("a 250%% gate flagged %q", got)
	}
}
