package main

import (
	"strings"
	"testing"
)

func TestResolveTask(t *testing.T) {
	for _, tc := range []struct {
		name, want string
	}{
		{"table1", "nl2sva-human"},
		{"Table5", "design2sva"},
		{"fig6", "bleu-correlation"},
		{"figure6", "bleu-correlation"},
		{"agr", "agr"},
	} {
		spec, err := resolveTask(tc.name)
		if err != nil {
			t.Errorf("resolveTask(%q): %v", tc.name, err)
			continue
		}
		if spec.Name != tc.want {
			t.Errorf("resolveTask(%q) = %s, want %s", tc.name, spec.Name, tc.want)
		}
	}
	if spec, err := resolveTask("table9"); err == nil {
		t.Errorf("resolveTask(table9) = %s, want an error", spec.Name)
	}
}

// parseRun parses run flags the way runCmd does.
func parseRun(t *testing.T, args ...string) *runConfig {
	t.Helper()
	var c runConfig
	if err := runFlags(&c).Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &c
}

func TestBuildFleet(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		runners int
		err     string
	}{
		{args: nil, runners: 0},
		{args: []string{"-j", "2", "-limit", "4", "-timeout", "1m"}, runners: 0},
		{args: []string{"-local", "2"}, runners: 2},
		{args: []string{"-local", "1", "-shards", "3", "-hedge"}, runners: 1},
		{args: []string{"-workers", "http://a:1, https://b:2,"}, runners: 2},
		{args: []string{"-local", "-1"}, err: "out of range"},
		{args: []string{"-local", "2", "-workers", "http://a:1"}, err: "mutually exclusive"},
		{args: []string{"-workers", "http://a:1", "-registry", "http://c:1"}, err: "mutually exclusive"},
		{args: []string{"-workers", "a:1"}, err: "want an http(s) URL"},
		{args: []string{"-workers", ","}, err: "lists no URLs"},
	} {
		runners, err := buildFleet(parseRun(t, tc.args...))
		switch {
		case tc.err != "":
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%v: err %v, want %q", tc.args, err, tc.err)
			}
		case err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case len(runners) != tc.runners:
			t.Errorf("%v: %d runners, want %d", tc.args, len(runners), tc.runners)
		}
	}
}

// TestFleetOnlyFlagsNeedFleet pins that dist options are rejected
// rather than silently ignored by an in-process run.
func TestFleetOnlyFlagsNeedFleet(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "4"},
		{"-attempts", "2"},
		{"-shard-timeout", "5s"},
		{"-hedge"},
		{"-backoff", "10ms"},
		{"-backoff-cap", "1s"},
		{"-seed", "7"},
	} {
		runners, err := buildFleet(parseRun(t, args...))
		if err == nil || !strings.Contains(err.Error(), "need a fleet") {
			t.Errorf("%v without a fleet: %d runners, err %v", args, len(runners), err)
		}
	}
}

func TestBuildRequest(t *testing.T) {
	if _, err := buildRequest(parseRun(t)); err == nil || !strings.Contains(err.Error(), "missing -task") {
		t.Errorf("no -task: err %v", err)
	}
	_, err := buildRequest(parseRun(t, "-task", "table1", "-count", "10"))
	if err == nil || !strings.Contains(err.Error(), "does not accept -count") {
		t.Errorf("table1 -count: err %v, want rejection", err)
	}
	req, err := buildRequest(parseRun(t, "-task", "table3", "-count", "10", "-limit", "4", "-j", "1", "-cache=false"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Task != "nl2sva-machine" || req.Params.Count != 10 {
		t.Errorf("table3 -count 10: %+v", req)
	}
	if o := req.Options; o.Limit != 4 || o.Workers != 1 || !o.NoCache {
		t.Errorf("options not carried: %+v", o)
	}
}
