package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"

	"fveval/internal/engine"
	"fveval/internal/task"
)

// refWorkers is how many references are computed at once, each on its
// own single-worker engine.
const refWorkers = 2

// references computes, untimed, the report digest of every distinct
// request on a fresh engine with Workers: 1 and NoCache: true, the
// configuration the repository pins as byte-identical to any other.
// The map is keyed by requestKey.
func references(ctx context.Context, reqs []task.Request) (map[string][sha256.Size]byte, error) {
	var todo []task.Request
	refs := map[string][sha256.Size]byte{}
	for _, r := range reqs {
		k := requestKey(r)
		if _, ok := refs[k]; !ok {
			refs[k] = [sha256.Size]byte{}
			todo = append(todo, r)
		}
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan task.Request)
	for i := 0; i < refWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				b, err := reference(ctx, r)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %s: %w", r.Task, err)
				}
				refs[requestKey(r)] = b
				mu.Unlock()
			}
		}()
	}
	for _, r := range todo {
		next <- r
	}
	close(next)
	wg.Wait()
	return refs, firstErr
}

func reference(ctx context.Context, r task.Request) ([sha256.Size]byte, error) {
	o := r.Options
	r.Options = engine.Config{Limit: o.Limit, Samples: o.Samples, Shard: o.Shard, Workers: 1, NoCache: true}
	run, err := task.NewEngine(engine.Config{Workers: 1, NoCache: true}).Run(ctx, r)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	b, err := run.Report.Encode()
	return sha256.Sum256(b), err
}

// checkReports counts requests that failed or whose report encoding
// differs from the reference's (compared by SHA-256 digest), and says
// why on standard error.
func checkReports(rs []result, refs map[string][sha256.Size]byte) int {
	failed := 0
	for i, r := range rs {
		switch {
		case r.err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: request %d (%s) failed: %v\n", i, r.req.Task, r.err)
		case r.sum != refs[requestKey(r.req)]:
			fmt.Fprintf(os.Stderr, "perfbench: request %d (%s) report differs from the reference\n", i, r.req.Task)
		default:
			continue
		}
		failed++
	}
	return failed
}

// readUint reads one cumulative runtime/metrics counter.
func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func heapAllocBytes() uint64 { return readUint("/gc/heap/allocs:bytes") }

// goCounters is a snapshot of the Go runtime's GC and allocation
// counters.
type goCounters struct {
	gcCycles, mallocs uint64
	gcPauseNS         uint64
}

func readGoCounters() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goCounters{
		gcCycles:  readUint("/gc/cycles/total:gc-cycles"),
		mallocs:   readUint("/gc/heap/allocs:objects"),
		gcPauseNS: ms.PauseTotalNs,
	}
}

func (a goCounters) sub(b goCounters) goCounters {
	return goCounters{a.gcCycles - b.gcCycles, a.mallocs - b.mallocs, a.gcPauseNS - b.gcPauseNS}
}

// resetPeakRSS restarts the kernel's peak resident set (VmHWM) count
// from the current resident set, so a pass's peak can be read alone.
// It reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
