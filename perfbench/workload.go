package main

import (
	"encoding/json"
	"math/rand/v2"
	"sort"

	"fveval/internal/engine"
	"fveval/internal/llm"
	"fveval/internal/task"
)

// The program under test sees only the requests generated here. For
// the request lists of design, translate and dist every seed asks for
// about the same judge work: the seed draws model subsets and sizes
// only from narrow ranges near the paper defaults, and never the order
// of a pass's requests. One engine serves a whole pass, so a request's
// memo hits depend on what ran before it, and a drawn order would move
// latency between request kinds from seed to seed. The service stream
// draws freely: its statistics, not its requests, are what repeats.

var (
	allModels   = modelNames(llm.Models())       // every proxy model
	designFleet = modelNames(llm.DesignModels()) // context window >= 32K
)

func modelNames(ms []llm.Model) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name()
	}
	return out
}

// pick draws n distinct names, kept in fleet order.
func pick(rng *rand.Rand, from []string, n int) []string {
	idx := rng.Perm(len(from))[:n]
	sort.Ints(idx)
	out := make([]string, n)
	for i, j := range idx {
		out[i] = from[j]
	}
	return out
}

// between draws uniformly from [lo, hi].
func between(rng *rand.Rand, lo, hi int) int { return lo + rng.IntN(hi-lo+1) }

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// designRequests is the formal-judge path: Design2SVA over both design
// categories plus AGR, all on the paper's models. Each category is cut
// into instance slices (engine.Shard) evaluated as separate requests,
// so a pass yields thirteen latency samples: even a run of three
// passes then has a tail percentile well above its median.
// The list is the same for every seed: a few pipeline instances hold
// most of the SAT work, so a drawn limit or model subset changes the
// work per seed, and even the order matters, because later requests
// reuse earlier requests' counterexamples (the pool's pattern bank).
// The pipeline half stops at 48 instances and includes the heavy ones.
func designRequests(uint64) []task.Request {
	slices := func(r task.Request, n int) []task.Request {
		out := make([]task.Request, n)
		for i := range out {
			out[i] = r
			out[i].Options.Shard = engine.Shard{Index: i, Count: n}
		}
		return out
	}
	reqs := slices(task.Request{Task: "design2sva",
		Params:  task.Params{Kinds: []string{"pipeline"}},
		Options: engine.Config{Limit: 48}}, 6)
	reqs = append(reqs, slices(task.Request{Task: "design2sva",
		Params: task.Params{Kinds: []string{"fsm"}}}, 4)...)
	return append(reqs, slices(task.Request{Task: "agr"}, 3)...)
}

// translateRequests is the translation path: every NL2SVA table plus
// refinement and the BLEU correlation figure. The seed drops one model
// from each full-fleet request and draws sizes within a few percent of
// the paper's; the pass@k and Figure 6 requests keep the paper's
// models. Table 3 is split into one request per shot setting, so the
// list has an odd length and the median request sits inside one
// request kind.
func translateRequests(seed uint64) []task.Request {
	rng := newRNG(seed, 2)
	count := between(rng, 290, 300)
	most := func() []string { return pick(rng, allModels, len(allModels)-1) }
	return []task.Request{
		{Task: "nl2sva-human",
			Params:  task.Params{Models: most()},
			Options: engine.Config{Limit: between(rng, 76, 79)}},
		{Task: "nl2sva-human-passk",
			Options: engine.Config{Limit: between(rng, 76, 79)}},
		{Task: "nl2sva-machine",
			Params: task.Params{Models: most(), Shots: []int{0}, Count: count}},
		{Task: "nl2sva-machine",
			Params: task.Params{Models: most(), Shots: []int{3}, Count: count}},
		{Task: "nl2sva-machine-passk",
			Params: task.Params{Count: count}},
		{Task: "refinement",
			Params: task.Params{Count: between(rng, 57, 60)}},
		{Task: "bleu-correlation"},
	}
}

// Service traffic: each pass is servicePass submissions; exactly one
// in repeatEvery repeats a submission of the previous pass (a result
// cache hit), the rest are requests never submitted before. A repeat
// share well away from one half keeps the median latency inside the
// miss mode. Two passes of fresh requests fit in fvevald's default
// 256-entry result cache, so a repeat is never evicted before it lands.
const (
	servicePass = 96
	repeatEvery = 4
)

var serviceTasks = []string{
	"nl2sva-human", "nl2sva-human-passk", "nl2sva-machine", "nl2sva-machine-passk",
	"refinement", "bleu-correlation", "design2sva", "agr",
}

// serviceStream draws the service workload's submissions. Its state
// carries across passes so fresh requests stay fresh for the whole run.
type serviceStream struct {
	rng  *rand.Rand
	seen map[string]bool
	last []task.Request // fresh requests of the previous pass
}

func newServiceStream(seed uint64) *serviceStream {
	return &serviceStream{rng: newRNG(seed, 3), seen: map[string]bool{}}
}

// warmup is the set-up pass: one request per task over every model and
// the largest sizes fresh requests draw, so the daemon's memo pool
// already holds every judgment a timed request can ask for and timed
// passes see the steady state of a long-lived daemon.
func (s *serviceStream) warmup() []task.Request {
	var out []task.Request
	for _, t := range serviceTasks {
		r := task.Request{Task: t, Params: task.Params{Models: allModels}, Options: engine.Config{Limit: 8}}
		switch t {
		case "design2sva":
			r.Params = task.Params{Models: designFleet, Kinds: []string{"pipeline", "fsm"}}
			r.Options.Limit = 3
		case "agr":
			r.Options.Limit = 3
		}
		s.seen[requestKey(r)] = true
		out = append(out, r)
	}
	s.last = out
	return out
}

// next returns the following pass's submissions.
func (s *serviceStream) next() []task.Request {
	repeat := map[int]bool{}
	if len(s.last) > 0 {
		for _, i := range s.rng.Perm(servicePass)[:servicePass/repeatEvery] {
			repeat[i] = true
		}
	}
	out := make([]task.Request, servicePass)
	var fresh []task.Request
	for i := range out {
		if repeat[i] {
			out[i] = s.last[s.rng.IntN(len(s.last))]
			continue
		}
		out[i] = s.fresh()
		fresh = append(fresh, out[i])
	}
	s.last = fresh
	return out
}

func (s *serviceStream) fresh() task.Request {
	for {
		r := s.draw()
		k := requestKey(r)
		if !s.seen[k] {
			s.seen[k] = true
			return r
		}
	}
}

// draw is one small clipped request over the shardable tasks.
func (s *serviceStream) draw() task.Request {
	rng := s.rng
	r := task.Request{Task: serviceTasks[rng.IntN(len(serviceTasks))]}
	// The formal-heavy tasks draw smaller grids: their untimed
	// references, recomputed without any memo, dominate the run's time.
	switch r.Task {
	case "design2sva":
		kinds := []string{"pipeline", "fsm"}
		r.Params = task.Params{Models: pick(rng, designFleet, 2), Kinds: kinds[rng.IntN(2):][:1]}
		r.Options.Limit = between(rng, 1, 3)
	case "agr":
		r.Params = task.Params{Models: pick(rng, allModels, 2)}
		r.Options.Limit = between(rng, 1, 3)
	case "refinement":
		r.Params = task.Params{Models: pick(rng, allModels, between(rng, 2, 3))}
		r.Options.Limit = between(rng, 2, 4)
	default:
		r.Params = task.Params{Models: pick(rng, allModels, between(rng, 2, 4))}
		r.Options.Limit = between(rng, 3, 8)
	}
	// The sampled tasks also draw their pass@k cut-offs: a different
	// report from the same judgments, which keeps the small formal
	// grids from running out of fresh requests within a run.
	switch r.Task {
	case "nl2sva-human-passk", "nl2sva-machine-passk", "refinement", "design2sva", "agr":
		for k := 1; k <= 5; k++ {
			if rng.IntN(2) == 0 {
				r.Params.Ks = append(r.Params.Ks, k)
			}
		}
	}
	return r
}

// requestKey identifies the work a request asks for: task, resolved
// parameters and the options that select instances and samples.
// Worker counts and caching, which never change a report, are left out.
func requestKey(r task.Request) string {
	canon, err := r.Canonical()
	if err != nil {
		canon = r
	}
	// Marshalling strings, ints and slices of them cannot fail.
	b, _ := json.Marshal(struct {
		Task    string
		Params  task.Params
		Limit   int
		Samples int
		Shard   engine.Shard
	}{canon.Task, canon.Params, r.Options.Limit, r.Options.Samples, r.Options.Shard})
	return string(b)
}
