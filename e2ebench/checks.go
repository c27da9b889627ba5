package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"crowdfusion/internal/core"
	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/eval"
	"crowdfusion/internal/service"
)

// maxReported caps the mismatch messages a check keeps.
const maxReported = 5

// checkResult collects one check's mismatches.
type checkResult struct {
	mu       sync.Mutex
	failures int
	msgs     []string
}

func (c *checkResult) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	if len(c.msgs) < maxReported {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// forEach runs f over recs on the closed loop's width of goroutines.
func forEach(recs []*sessionRec, f func(worker int, r *sessionRec)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(recs) {
					return
				}
				f(g, recs[i])
			}
		}()
	}
	wg.Wait()
}

// layerTimes are the replayed core and crowd calls, in µs.
type layerTimes struct {
	sel, merge, refit []float64
}

// effectiveK is the batch size the server selects with after spending
// spent of the budget.
func effectiveK(w workload, spent, n int) int {
	return min(w.K, w.Budget-spent, n)
}

// replay re-runs sessions in-process through the same core selector and
// core.MergeAnswers. On fixed-model workloads (verify) every served batch
// and every committed marginal must be bit-identical to the replay. With
// timed set, the quality-set sessions' selector and merge calls are timed,
// and on em sessions so is the worker-model refit each commit runs. The
// replayed em posterior is conditioned at the session pc, which costs what
// the weighted merge costs but is not the served posterior, so em
// sessions are timed, never verified.
func replay(w workload, pool []prior, recs []*sessionRec, verify, timed bool) (*checkResult, *layerTimes) {
	res := &checkResult{}
	per := make([]layerTimes, clients)
	var todo []*sessionRec
	for _, r := range recs {
		if !r.Failed && (verify || (timed && r.Index < w.Quality)) {
			todo = append(todo, r)
		}
	}
	forEach(todo, func(g int, r *sessionRec) {
		lt := &per[g]
		if !timed || r.Index >= w.Quality {
			lt = nil
		}
		replaySession(w, pool, r, verify, lt, res)
	})
	lt := &layerTimes{}
	for _, p := range per {
		lt.sel = append(lt.sel, p.sel...)
		lt.merge = append(lt.merge, p.merge...)
		lt.refit = append(lt.refit, p.refit...)
	}
	return res, lt
}

func replaySession(w workload, pool []prior, r *sessionRec, verify bool, lt *layerTimes, res *checkResult) {
	post, err := dist.Independent(pool[r.Index%len(pool)].Marginals)
	if err != nil {
		res.fail("session %d: prior: %v", r.Index, err)
		return
	}
	sel, err := eval.NewSelector(eval.SelectorKind(selector), r.Seed)
	if err != nil {
		res.fail("session %d: selector: %v", r.Index, err)
		return
	}
	if verify && !sameBits(post.Marginals(), r.Created.Marginals) {
		res.fail("session %d: prior marginals differ from the create reply", r.Index)
		return
	}
	weighted := w.Model != service.WorkerModelFixed
	var obs []crowd.Answer
	spent := 0
	for v, rd := range r.Rounds {
		start := time.Now()
		tasks, err := sel.Select(post, effectiveK(w, spent, post.N()), pc)
		if lt != nil {
			lt.sel = append(lt.sel, us(time.Since(start)))
		}
		if err != nil {
			res.fail("session %d round %d: select: %v", r.Index, v, err)
			return
		}
		if verify && !slices.Equal(tasks, rd.Tasks) {
			res.fail("session %d round %d: served batch %v, replay selects %v", r.Index, v, rd.Tasks, tasks)
			return
		}
		if lt != nil && weighted {
			// The served merge after the first refit: one channel per
			// judgment. Timed only; the values do not change the cost.
			ch := make([]float64, len(rd.Tasks))
			for i := range ch {
				ch[i] = pc
			}
			start = time.Now()
			_, err := core.MergeAnswersWeighted(post, rd.Tasks, rd.Answers, ch, ch)
			lt.merge = append(lt.merge, us(time.Since(start)))
			if err != nil {
				res.fail("session %d round %d: weighted merge: %v", r.Index, v, err)
				return
			}
		}
		start = time.Now()
		next, err := core.MergeAnswers(post, rd.Tasks, rd.Answers, pc)
		if lt != nil && !weighted {
			lt.merge = append(lt.merge, us(time.Since(start)))
		}
		if err != nil {
			res.fail("session %d round %d: merge: %v", r.Index, v, err)
			return
		}
		if verify && !sameBits(next.Marginals(), rd.Marginals) {
			res.fail("session %d round %d: served marginals differ from the replay", r.Index, v)
			return
		}
		post = next
		spent += len(rd.Tasks)
		if lt != nil && weighted {
			for i, t := range rd.Tasks {
				obs = append(obs, crowd.Answer{Fact: t, Value: rd.Answers[i], Worker: rd.Workers[i]})
			}
			start = time.Now()
			_, err := crowd.EstimateEM(obs, crowd.EMOptions{Seed: r.Seed})
			lt.refit = append(lt.refit, us(time.Since(start)))
			if err != nil {
				res.fail("session %d round %d: refit: %v", r.Index, v, err)
				return
			}
		}
	}
	if !verify {
		return
	}
	if !sameBits(post.Marginals(), r.Last.Marginals) || math.Float64bits(post.Entropy()) != math.Float64bits(r.Last.Entropy) {
		res.fail("session %d: final posterior differs from the replay", r.Index)
		return
	}
	if r.Done {
		// The done reply must agree with the replay: budget spent, or the
		// selector finds nothing worth asking.
		if k := effectiveK(w, spent, post.N()); k > 0 {
			tasks, err := sel.Select(post, k, pc)
			if err != nil || len(tasks) != 0 {
				res.fail("session %d: served done, replay selects %v (err %v)", r.Index, tasks, err)
			}
		}
	}
}

// sameBits reports whether a and b are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// quality scores the quality set: F1 of final marginals >= 0.5 against
// gold (as in Fig. 2-4), and entropy removed per task spent.
func quality(w workload, pool []prior, recs []*sessionRec) (f1, bits float64, err error) {
	var judged, gold []bool
	var removed float64
	spent := 0
	for _, r := range recs[:w.Quality] {
		if r.Failed {
			return 0, 0, fmt.Errorf("quality-set session %d failed", r.Index)
		}
		for _, m := range r.Last.Marginals {
			judged = append(judged, m >= 0.5)
		}
		gold = append(gold, pool[r.Index%len(pool)].Gold...)
		removed += r.Created.Entropy - r.Last.Entropy
		spent += r.Last.Spent
	}
	m, err := eval.Score(judged, gold)
	if err != nil {
		return 0, 0, fmt.Errorf("scoring: %w", err)
	}
	if spent == 0 {
		return 0, 0, fmt.Errorf("the quality set spent no tasks")
	}
	return m.F1(), removed / float64(spent), nil
}
