package main

import (
	"fmt"
	"math/rand"

	"crowdfusion/client"
	"crowdfusion/internal/service"
)

// Answer forms: how a round's judgments travel to the server.
const (
	// formJudgments sends the whole batch once, as a judgments list.
	formJudgments = "judgments"
	// formStream sends one attributed partial judgment per request.
	formStream = "stream"
)

// Session settings every workload shares: the selector and the crowd
// accuracy the sessions assume.
const (
	selector = "Approx+Prune+Pre"
	pc       = 0.8
)

// workload is one traffic mix: the session settings, the priors and the
// answer form.
type workload struct {
	Name   string
	Model  string // service worker model
	Form   string
	K      int
	Budget int
	// Facts is the fact count of the independent-marginal priors.
	Facts int
	// Workers holds the simulated crowd's accuracies, one per worker.
	Workers []float64
	// Quality is the size of the quality set: sessions 0..Quality-1 always
	// run to completion, and f1 and bits_per_task are computed over them
	// alone, so both repeat exactly for one seed.
	Quality int
}

var workloads = []workload{
	{
		Name: "crowd-stream", Model: service.WorkerModelEM, Form: formStream,
		K: 4, Budget: 40, Facts: 10,
		Workers: []float64{0.9, 0.9, 0.9, 0.8, 0.8, 0.8, 0.65, 0.65}, Quality: 300,
	},
	{
		Name: "dense-kernel", Model: service.WorkerModelFixed, Form: formJudgments,
		K: 6, Budget: 36, Facts: 15,
		Workers: []float64{0.8}, Quality: 100,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// prior is one generated refinement problem: the prior the server sees and
// the gold labels only the simulated crowd and the scorer see.
type prior struct {
	Marginals []float64 `json:"marginals"`
	Gold      []bool    `json:"gold"`
}

// independentPool is the number of independent-marginal priors generated
// per seed. Sessions cycle through the pool; each session still gets its
// own selector seed and crowd stream.
const independentPool = 1024

// independentPriors builds a workload's prior pool from the seed alone. It
// draws gold labels uniformly and a machine confidence per fact that
// points the right way three times in four.
func independentPriors(n int, seed int64) []prior {
	rng := rand.New(rand.NewSource(seed))
	out := make([]prior, independentPool)
	for i := range out {
		p := prior{Marginals: make([]float64, n), Gold: make([]bool, n)}
		for f := 0; f < n; f++ {
			p.Gold[f] = rng.Intn(2) == 1
			conf := 0.55 + 0.4*rng.Float64()
			right := rng.Float64() < 0.75
			if p.Gold[f] == right {
				p.Marginals[f] = conf
			} else {
				p.Marginals[f] = 1 - conf
			}
		}
		out[i] = p
	}
	return out
}

// sessionSeed derives session i's seed from the workload seed. The seed
// is never 0, which the server would replace with its own creation
// counter.
func sessionSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>2) + 1
}

// createRequest is session i's create body.
func createRequest(w workload, pool []prior, seed int64, i int) client.CreateSessionRequest {
	p := pool[i%len(pool)]
	return client.CreateSessionRequest{
		Marginals:   p.Marginals,
		Selector:    selector,
		Pc:          pc,
		K:           w.K,
		Budget:      w.Budget,
		Seed:        sessionSeed(seed, i),
		WorkerModel: w.Model,
	}
}

// crowdSim is one session's simulated crowd. Its stream is seeded from the
// session seed and consumed in the order the server selects tasks, so a
// session's whole trajectory is a function of the workload seed and the
// session index.
type crowdSim struct {
	rng     *rand.Rand
	gold    []bool
	workers []float64
}

func newCrowd(w workload, pool []prior, seed int64, i int) *crowdSim {
	return &crowdSim{
		rng:     rand.New(rand.NewSource(sessionSeed(seed, i) ^ 0x5eed)),
		gold:    pool[i%len(pool)].Gold,
		workers: w.Workers,
	}
}

// judge answers one task: a worker is drawn, and answers correctly with
// that worker's accuracy.
func (c *crowdSim) judge(task int) (answer bool, worker string) {
	wi := 0
	if len(c.workers) > 1 {
		wi = c.rng.Intn(len(c.workers))
	}
	answer = c.gold[task]
	if c.rng.Float64() >= c.workers[wi] {
		answer = !answer
	}
	return answer, fmt.Sprintf("w%d", wi)
}
