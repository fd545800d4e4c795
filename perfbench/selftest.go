package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks
// the printed metrics against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// selfTest runs every workload briefly on a tiny seed-drawn list, in
// both modes, and checks that each prints exactly the metrics
// BENCHMARK.json names, with their units, and that no request failed
// (error_rate 0).
func selfTest(ctx context.Context, workdir, specPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("%s names %d workloads, the benchmark runs %d", specPath, len(spec.Workloads), len(workloads))
	}
	for _, ws := range spec.Workloads {
		w, err := lookup(ws.Name)
		if err != nil {
			return err
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			c := runConfig{seed: 7, workdir: workdir, tiny: true}
			out, err := runOnce(ctx, w, c, time.Second, traced)
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", w.name, traced, err)
			}
			if err := checkOutput(out, want); err != nil {
				return fmt.Errorf("%s (trace %v): %w", w.name, traced, err)
			}
		}
	}
	return nil
}

func checkOutput(out *output, want []metricSpec) error {
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		return fmt.Errorf("error_rate is %d/%d, want 0", out.Failed, out.Attempted)
	}
	if len(out.Metrics) != len(want) {
		return fmt.Errorf("printed %d metrics, want %d", len(out.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := out.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s not printed", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s printed in %s, want %s", m.Name, got.Unit, m.Unit)
		}
	}
	return nil
}
