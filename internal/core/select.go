package core

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"sync"

	"crowdfusion/internal/dist"
	"crowdfusion/internal/info"
)

// gainTolerance is the numeric floor below which a marginal entropy gain is
// treated as zero, triggering Algorithm 1's early stop (K* < k).
const gainTolerance = 1e-12

// Selector chooses a set of at most k fact-judgment tasks to post to the
// crowd, given the current output distribution and the crowd accuracy.
// Selectors may return fewer than k tasks when no further task yields
// positive gain (the paper's K* < k case).
type Selector interface {
	// Name identifies the selector in reports ("OPT", "Approx", ...).
	Name() string
	// Select returns the chosen fact indices (no duplicates).
	Select(j *dist.Joint, k int, pc float64) ([]int, error)
}

// optMaxSubsets caps the number of C(n, k) subsets the brute-force selector
// will enumerate; beyond this the caller is better served by the greedy
// approximation (the paper waited five days for OPT at k = 4).
const optMaxSubsets = 5_000_000

// OptSelector enumerates every size-k subset and returns the one maximizing
// the exact task entropy H(T). Exponential in k; intended for the running
// example, small instances, and the Table V / Figure 2 comparisons.
type OptSelector struct{}

// Name implements Selector.
func (OptSelector) Name() string { return "OPT" }

// Select implements Selector by exhaustive enumeration.
func (OptSelector) Select(j *dist.Joint, k int, pc float64) ([]int, error) {
	if k <= 0 {
		return nil, ErrNoTasks
	}
	n := j.N()
	if k > n {
		k = n
	}
	if k > MaxTasksPerRound {
		return nil, ErrTooManyTasks
	}
	if err := checkTasks(j, nil, pc); err != nil {
		return nil, err
	}
	count := binomial(n, k)
	if count.Cmp(big.NewInt(optMaxSubsets)) > 0 {
		return nil, fmt.Errorf("core: OPT would enumerate %s subsets (limit %d)",
			count.String(), optMaxSubsets)
	}

	best := make([]int, 0, k)
	bestH := math.Inf(-1)
	subset := make([]int, k)
	for i := range subset {
		subset[i] = i
	}
	for {
		h, err := TaskEntropy(j, subset, pc)
		if err != nil {
			return nil, err
		}
		if h > bestH+gainTolerance {
			bestH = h
			best = append(best[:0], subset...)
		}
		if !nextCombination(subset, n) {
			break
		}
	}
	return append([]int(nil), best...), nil
}

// nextCombination advances subset (sorted ascending, drawn from [0, n)) to
// the lexicographically next combination, returning false when exhausted.
func nextCombination(subset []int, n int) bool {
	k := len(subset)
	for i := k - 1; i >= 0; i-- {
		if subset[i] < n-k+i {
			subset[i]++
			for jj := i + 1; jj < k; jj++ {
				subset[jj] = subset[jj-1] + 1
			}
			return true
		}
	}
	return false
}

func binomial(n, k int) *big.Int {
	return new(big.Int).Binomial(int64(n), int64(k))
}

// GreedyOptions configures the approximation selector.
type GreedyOptions struct {
	// Prune enables the pruning strategy of Section III-E. The paper's
	// Theorem 3 bound as printed — H(T∪{f_j}) + log2(k-|T|-1) < max —
	// cannot behave as described for binary tasks: within one iteration
	// all candidates lie within one bit of each other, so any bound of
	// at least one bit never fires and any smaller bound can discard
	// facts a later iteration would want (quantified by the ablation
	// tests via LiteralPaperRule). We therefore realize the pruning
	// idea soundly through submodularity: a candidate's last computed
	// marginal gain upper-bounds all its future gains, so candidates
	// are kept in a max-heap of stale gains and only re-evaluated while
	// their stale bound beats the best fresh evaluation (lazy greedy).
	// This yields exactly the plain-greedy selections while evaluating
	// almost no candidates after the first iteration — the behaviour
	// the paper reports for Approx.&Prune in Table V.
	Prune bool
	// LiteralPaperRule switches pruning to the log2(k-|T|-1) rule
	// exactly as printed in Theorem 3, for ablation; it may change
	// selections.
	LiteralPaperRule bool
	// Preprocess enables the Section III-F acceleration: the answer
	// joint distribution is precomputed once per selection in O(|O|^2)
	// and every candidate evaluation becomes an O(|O|) partition scan
	// (Algorithm 2) instead of an exact O(2^|T|·|O|) channel computation.
	Preprocess bool
}

// GreedySelector implements Algorithm 1: iteratively add the task with the
// highest marginal entropy gain until k tasks are chosen or no task has
// positive gain. It achieves a (1 - 1/e) approximation of the optimal task
// entropy because conditional entropy is monotone submodular.
type GreedySelector struct {
	Options GreedyOptions
}

// NewGreedy returns a plain greedy selector (the paper's "Approx.").
func NewGreedy() *GreedySelector { return &GreedySelector{} }

// NewGreedyPrune returns greedy with pruning ("Approx.&Prune").
func NewGreedyPrune() *GreedySelector {
	return &GreedySelector{Options: GreedyOptions{Prune: true}}
}

// NewGreedyPre returns greedy with preprocessing ("Approx.&Pre.").
func NewGreedyPre() *GreedySelector {
	return &GreedySelector{Options: GreedyOptions{Preprocess: true}}
}

// NewGreedyPrunePre returns greedy with both accelerations
// ("Approx.&Prune&Pre.").
func NewGreedyPrunePre() *GreedySelector {
	return &GreedySelector{Options: GreedyOptions{Prune: true, Preprocess: true}}
}

// Name implements Selector.
func (g *GreedySelector) Name() string {
	switch {
	case g.Options.Prune && g.Options.Preprocess:
		return "Approx+Prune+Pre"
	case g.Options.Prune:
		return "Approx+Prune"
	case g.Options.Preprocess:
		return "Approx+Pre"
	default:
		return "Approx"
	}
}

// patternCache incrementally maintains each support world's answer pattern
// over the already-selected tasks, the exact-evaluation analogue of
// partition.refine: evaluating a candidate f ORs one more bit onto the
// cached patterns instead of recomputing World.Pattern over the whole
// selected set, so each evaluation costs O(|O| + k·2^k) via the butterfly
// instead of O(|O|·k + |O|·2^k).
type patternCache struct {
	j       *dist.Joint
	pc      float64
	depth   int      // number of selected tasks folded into base
	base    []uint64 // per-support-world pattern on the selected set
	scratch *kernelScratch
}

func newPatternCache(j *dist.Joint, pc float64) *patternCache {
	return &patternCache{
		j:       j,
		pc:      pc,
		base:    make([]uint64, j.SupportSize()),
		scratch: getScratch(),
	}
}

// release returns the pooled scratch; the cache must not be used after.
func (c *patternCache) release() { putScratch(c.scratch) }

// entropyWith returns the exact H(selected ∪ {f}): the cached base
// patterns extended by candidate f's judgment bit, scattered densely and
// pushed through the butterfly channel. Entropy is invariant to the bit
// order of the patterns, so folding f into the top bit matches
// TaskEntropy(j, append(selected, f), pc) exactly.
func (c *patternCache) entropyWith(f int) float64 {
	k := c.depth + 1
	dense := c.scratch.denseZero(1 << uint(k))
	worlds := c.j.Worlds()
	probs := c.j.Probs()
	bit := uint64(1) << uint(c.depth)
	for i, w := range worlds {
		p := c.base[i]
		if w.Has(f) {
			p |= bit
		}
		dense[p] += probs[i]
	}
	if c.pc != 1 {
		bscButterfly(dense, k, c.pc)
	}
	return info.Entropy(dense)
}

// pick folds the chosen fact into the cached patterns.
func (c *patternCache) pick(f int) {
	bit := uint64(1) << uint(c.depth)
	for i, w := range c.j.Worlds() {
		if w.Has(f) {
			c.base[i] |= bit
		}
	}
	c.depth++
}

// Select implements Selector.
func (g *GreedySelector) Select(j *dist.Joint, k int, pc float64) ([]int, error) {
	if k <= 0 {
		return nil, ErrNoTasks
	}
	n := j.N()
	if k > n {
		k = n
	}
	if k > MaxTasksPerRound {
		return nil, ErrTooManyTasks
	}
	if err := checkTasks(j, nil, pc); err != nil {
		return nil, err
	}

	var pre *Preprocessed
	var part partition
	var preScratch *kernelScratch
	var cache *patternCache
	if g.Options.Preprocess {
		var err error
		pre, err = Preprocess(j, pc)
		if err != nil {
			return nil, err
		}
		preScratch = getScratch()
		defer putScratch(preScratch)
		part = newPartition(j.SupportSize(), preScratch)
	} else {
		cache = newPatternCache(j, pc)
		defer cache.release()
	}
	eval := func(f int) (float64, error) {
		if g.Options.Preprocess {
			return pre.entropyAfter(preScratch, &part, f), nil
		}
		return cache.entropyWith(f), nil
	}
	onPick := func(f int) {
		if g.Options.Preprocess {
			part.refine(j.Worlds(), f)
		} else {
			cache.pick(f)
		}
	}
	// In preprocessed mode the Algorithm-2 entropies are approximate on
	// sparse supports; before letting an (approximate) vanishing gain end
	// the selection early, confirm it with one exact evaluation so the
	// acceleration cannot silently shrink K*.
	confirmStop := func(selected []int, f int) (bool, error) {
		if !g.Options.Preprocess {
			return true, nil
		}
		base, err := TaskEntropy(j, selected, pc)
		if err != nil {
			return false, err
		}
		with, err := TaskEntropy(j, append(append([]int(nil), selected...), f), pc)
		if err != nil {
			return false, err
		}
		return with-base-info.Binary(pc) <= gainTolerance, nil
	}

	// A selected task's answer always carries the crowd's own noise
	// entropy; only the excess over it improves utility (Definition 5:
	// ΔQ = H(T) - |T|·H(Crowd)). The loop stops when no task's net gain
	// is positive — by Theorem 2 exactly when every remaining fact is
	// already certain.
	noiseFloor := info.Binary(pc)

	selected := make([]int, 0, k)
	inSet := make([]bool, n)
	currentH := 0.0 // H(T) for the running task set

	if g.Options.Prune && !g.Options.LiteralPaperRule {
		return g.selectLazy(j, k, eval, confirmStop, onPick, noiseFloor)
	}

	pruned := make([]bool, n)
	for len(selected) < k {
		bestFact := -1
		bestH := math.Inf(-1)
		remaining := k - len(selected) - 1 // selections after this one
		evaluatedAny := false

		for f := 0; f < n; f++ {
			if inSet[f] || pruned[f] {
				continue
			}
			h, err := eval(f)
			if err != nil {
				return nil, err
			}
			if h > bestH {
				bestH = h
				bestFact = f
			}
			// Theorem 3 as printed, for ablation only: prune any
			// fact whose entropy plus log2(remaining picks) cannot
			// reach the incumbent. The first candidate of each
			// iteration seeds the incumbent and is never pruned.
			if g.Options.Prune && g.Options.LiteralPaperRule &&
				evaluatedAny && remaining > 0 {
				if h+math.Log2(float64(remaining)) < bestH-gainTolerance {
					pruned[f] = true
				}
			}
			evaluatedAny = true
		}
		if bestFact < 0 {
			break // every remaining fact pruned
		}
		if bestH-currentH-noiseFloor <= gainTolerance {
			stop, err := confirmStop(selected, bestFact)
			if err != nil {
				return nil, err
			}
			if stop {
				break // Theorem 2: no uncertain fact remains; K* < k
			}
		}
		selected = append(selected, bestFact)
		inSet[bestFact] = true
		currentH = bestH
		onPick(bestFact)
	}
	sort.Ints(selected)
	return selected, nil
}

// selectLazy is the sound realization of the pruning strategy: lazy greedy
// over stale marginal gains. Submodularity of H guarantees a candidate's
// previously computed gain upper-bounds its gain against any larger task
// set, so candidates whose stale gain cannot beat the best fresh evaluation
// are skipped without re-evaluation — the "prune" of Section III-E.
func (g *GreedySelector) selectLazy(
	j *dist.Joint, k int,
	eval func(f int) (float64, error),
	confirmStop func(selected []int, f int) (bool, error),
	onPick func(f int),
	noiseFloor float64,
) ([]int, error) {
	n := j.N()
	type cand struct {
		fact  int
		gain  float64 // stale upper bound on the marginal gain
		round int     // iteration the bound was computed in
	}
	heap := make([]cand, 0, n)
	push := func(c cand) {
		heap = append(heap, c)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].gain >= heap[i].gain {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() cand {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(heap) && heap[l].gain > heap[big].gain {
				big = l
			}
			if r < len(heap) && heap[r].gain > heap[big].gain {
				big = r
			}
			if big == i {
				break
			}
			heap[i], heap[big] = heap[big], heap[i]
			i = big
		}
		return top
	}

	for f := 0; f < n; f++ {
		push(cand{fact: f, gain: math.Inf(1), round: -1})
	}
	selected := make([]int, 0, k)
	currentH := 0.0
	for round := 0; len(selected) < k && len(heap) > 0; round++ {
		var chosen cand
		for {
			top := pop()
			if top.round == round {
				// Fresh evaluation already on top: it dominates
				// every stale bound below it.
				chosen = top
				break
			}
			h, err := eval(top.fact)
			if err != nil {
				return nil, err
			}
			top.gain = h - currentH
			top.round = round
			if len(heap) == 0 || top.gain >= heap[0].gain-gainTolerance {
				chosen = top
				break
			}
			push(top)
		}
		if chosen.gain-noiseFloor <= gainTolerance {
			stop, err := confirmStop(selected, chosen.fact)
			if err != nil {
				return nil, err
			}
			if stop {
				break // no remaining task nets positive utility
			}
		}
		selected = append(selected, chosen.fact)
		currentH += chosen.gain
		onPick(chosen.fact)
	}
	sort.Ints(selected)
	return selected, nil
}

// RandomSelector picks k distinct facts uniformly at random — the baseline
// the paper's Figures 2-4 compare against. A mutex serializes draws from
// the shared stream, so one selector may serve concurrently stepped
// instances (parallel sweeps) without racing; for reproducible parallel
// runs give each instance its own seeded selector, as eval.RunSweep does.
type RandomSelector struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom returns a random selector seeded deterministically.
func NewRandom(seed int64) *RandomSelector {
	return &RandomSelector{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Selector.
func (r *RandomSelector) Name() string { return "Random" }

// Select implements Selector with a partial Fisher–Yates draw: only the k
// drawn positions of the virtual permutation are materialized (in a sparse
// swap map), so a draw costs O(k) time and memory instead of the O(n) of a
// full rand.Perm — the usual regime is k ≪ n.
func (r *RandomSelector) Select(j *dist.Joint, k int, pc float64) ([]int, error) {
	if k <= 0 {
		return nil, ErrNoTasks
	}
	if err := checkTasks(j, nil, pc); err != nil {
		return nil, err
	}
	n := j.N()
	if k > n {
		k = n
	}
	if k > MaxTasksPerRound {
		return nil, ErrTooManyTasks
	}
	picked := make([]int, k)
	swap := make(map[int]int, k)
	r.mu.Lock()
	for i := 0; i < k; i++ {
		t := i + r.rng.Intn(n-i)
		vt, ok := swap[t]
		if !ok {
			vt = t
		}
		vi, ok := swap[i]
		if !ok {
			vi = i
		}
		picked[i] = vt
		swap[t] = vi
	}
	r.mu.Unlock()
	sort.Ints(picked)
	return picked, nil
}
