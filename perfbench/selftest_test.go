package main

import (
	"context"
	"testing"
)

func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if err := selfTest(context.Background(), t.TempDir(), "../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}
