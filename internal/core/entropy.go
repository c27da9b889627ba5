// Package core implements the CrowdFusion system of Section III of the
// paper: computing the entropy H(T) of the crowd-answer distribution for a
// candidate task set, selecting task sets (brute-force OPT, the greedy
// (1-1/e)-approximation of Algorithm 1, its pruning and preprocessing
// accelerations, and a random baseline), merging crowd answers back into the
// output distribution (Equation 3), the query-based variant of Section IV,
// and the NP-hardness reduction of Theorem 1.
//
// The entropy kernel is built for the hot path: the answer-channel
// convolution runs as a k-stage butterfly in O(|O| + k·2^k) instead of the
// textbook O(|O|·2^k) popcount loop, grouping is sort-based over pooled
// scratch buffers instead of per-call maps, and the reference
// implementations are retained in reference_test.go as differential-test
// oracles.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"crowdfusion/internal/dist"
	"crowdfusion/internal/info"
)

// MaxTasksPerRound bounds the size k of a selected task set. The answer
// space has 2^k patterns, so selection cost grows exponentially in k; the
// paper's experiments stop at k = 10.
const MaxTasksPerRound = 20

var (
	// ErrTooManyTasks is returned when k exceeds MaxTasksPerRound.
	ErrTooManyTasks = errors.New("core: task set too large (limit 20 per round)")
	// ErrBadAccuracy is returned for crowd accuracies outside [0.5, 1].
	ErrBadAccuracy = errors.New("core: crowd accuracy must be in [0.5, 1]")
	// ErrNoTasks is returned when a selector is asked for k <= 0 tasks.
	ErrNoTasks = errors.New("core: requested task count must be positive")
)

// bscWeights returns the per-disagreement-count channel weights
// w[d] = pc^(k-d) * (1-pc)^d for d = 0..k: the probability that a crowd with
// accuracy pc produces an answer vector at Hamming distance d from the true
// judgments of k independent tasks (Equation 2's Pc^#Same (1-Pc)^#Diff).
//
// Invariant: pc ∈ [0.5, 1]. Every caller sits behind a validation gate
// (checkTasks or the Preprocess accuracy check) that enforces it, so the
// pc = 0 degenerate case cannot arise and the ratio below is well-defined.
func bscWeights(k int, pc float64) []float64 {
	w := make([]float64, k+1)
	w[0] = 1
	for i := 0; i < k; i++ {
		w[0] *= pc
	}
	ratio := (1 - pc) / pc
	for d := 1; d <= k; d++ {
		w[d] = w[d-1] * ratio
	}
	return w
}

// patMass is one support world's task pattern with its probability mass —
// the unit of sort-based grouping.
type patMass struct {
	pat  uint64
	mass float64
}

// kernelScratch holds the reusable buffers of the entropy hot path: the
// dense 2^k answer vector, the pattern/mass pairs of sort-based grouping, a
// flat mass buffer for entropy input, and the index/offset double buffers
// of the preprocessing partition. Instances are pooled so concurrent
// selections (parallel sweeps) never share a buffer, and steady-state
// evaluation allocates nothing.
type kernelScratch struct {
	dense  []float64
	pairs  []patMass
	masses []float64
	// Partition double buffers (see partition): support indices grouped
	// contiguously, plus the group-boundary offsets, two of each so refine
	// can ping-pong without allocating.
	idxA, idxB   []int
	offsA, offsB []int
}

var kernelPool = sync.Pool{New: func() any { return new(kernelScratch) }}

func getScratch() *kernelScratch  { return kernelPool.Get().(*kernelScratch) }
func putScratch(s *kernelScratch) { kernelPool.Put(s) }

// denseZero returns a zeroed length-n view of the scratch dense buffer.
// Capacity is rounded up to a whole number of 64-byte cache lines (8
// float64s) so the butterfly's blocked passes always work over cache-line
// multiples.
func (s *kernelScratch) denseZero(n int) []float64 {
	if cap(s.dense) < n {
		s.dense = make([]float64, (n+7)&^7)
	}
	d := s.dense[:n]
	clear(d)
	return d
}

// pairBuf returns a length-n view of the pattern/mass pair buffer.
func (s *kernelScratch) pairBuf(n int) []patMass {
	if cap(s.pairs) < n {
		s.pairs = make([]patMass, n)
	}
	return s.pairs[:n]
}

// massesOf copies the grouped masses into the flat scratch buffer, the
// shape the entropy helpers take.
func (s *kernelScratch) massesOf(pairs []patMass) []float64 {
	if cap(s.masses) < len(pairs) {
		s.masses = make([]float64, len(pairs))
	}
	ms := s.masses[:len(pairs)]
	for i, pm := range pairs {
		ms[i] = pm.mass
	}
	return ms
}

// butterflyBlockBits bounds the span of butterfly stages that run
// back-to-back over one contiguous chunk of the dense vector: 2^12 float64s
// = 32 KB, sized to stay resident in a typical L1 data cache. A stage with
// step < blockSize only ever pairs indices inside one block, so applying
// all such stages to a block before moving to the next performs exactly the
// same pairwise operations in a different order — bit-identical output,
// with one cache-resident pass instead of k full-vector sweeps on large
// cubes (the preprocessing butterfly reaches 2^20 entries = 8 MB).
const butterflyBlockBits = 12

// bscButterfly applies the k-fold binary symmetric channel to a dense
// pattern-mass vector in place, one bit per stage: after stage b, dense
// holds the answer distribution over bit b's channel with the remaining
// bits still noiseless. Each stage mixes index pairs (i, i|1<<b) with
// weights pc/(1-pc), so the full pass costs O(k·2^k) — replacing the
// O(|O|·2^k) per-pattern popcount loop of the reference implementation.
// Stages below butterflyBlockBits are fused per cache-resident block.
//
// Invariant: pc ∈ [0.5, 1] (see bscWeights); len(dense) == 1<<k.
func bscButterfly(dense []float64, k int, pc float64) {
	qc := 1 - pc
	bb := butterflyBlockBits
	if bb > k {
		bb = k
	}
	block := 1 << uint(bb)
	for base := 0; base < len(dense); base += block {
		for b := 0; b < bb; b++ {
			step := 1 << uint(b)
			for lo := base; lo < base+block; lo += step << 1 {
				for i := lo; i < lo+step; i++ {
					x, y := dense[i], dense[i+step]
					dense[i] = pc*x + qc*y
					dense[i+step] = qc*x + pc*y
				}
			}
		}
	}
	for b := bb; b < k; b++ {
		step := 1 << uint(b)
		for base := 0; base < len(dense); base += step << 1 {
			for i := base; i < base+step; i++ {
				x, y := dense[i], dense[i+step]
				dense[i] = pc*x + qc*y
				dense[i+step] = qc*x + pc*y
			}
		}
	}
}

// scatterPatterns accumulates each support world's probability at its
// pattern index in the dense vector — the sparse-to-dense half of the
// butterfly kernel, O(|O|·k) for the pattern extraction.
func scatterPatterns(dense []float64, j *dist.Joint, tasks []int) {
	worlds := j.Worlds()
	probs := j.Probs()
	for i, w := range worlds {
		dense[w.Pattern(tasks)] += probs[i]
	}
}

// patternMasses groups the support of j by the judgments of the given tasks
// and returns the distinct patterns (ascending) with their total
// probabilities — the task-set marginal of the output distribution,
// sparsely. The returned slice is a view into the scratch and is valid
// only until its next use.
func (s *kernelScratch) patternMasses(j *dist.Joint, tasks []int) []patMass {
	worlds := j.Worlds()
	probs := j.Probs()
	pairs := s.pairBuf(len(worlds))
	for i, w := range worlds {
		pairs[i] = patMass{pat: w.Pattern(tasks), mass: probs[i]}
	}
	return groupPatternMasses(pairs)
}

// groupPatternMasses sorts the pairs by pattern and compacts runs of equal
// patterns into single entries with summed masses, in place. This is the
// allocation-free replacement for the map-based grouping the reference
// implementation uses (patternMassesRef): slices.SortFunc over the struct
// slice is a generic pdqsort with no closure boxing or interface
// conversion, so the steady state allocates nothing.
func groupPatternMasses(pairs []patMass) []patMass {
	slices.SortFunc(pairs, func(a, b patMass) int {
		switch {
		case a.pat < b.pat:
			return -1
		case a.pat > b.pat:
			return 1
		}
		return 0
	})
	out := 0
	for i := 0; i < len(pairs); {
		p := pairs[i].pat
		acc := pairs[i].mass
		for i++; i < len(pairs) && pairs[i].pat == p; i++ {
			acc += pairs[i].mass
		}
		pairs[out] = patMass{pat: p, mass: acc}
		out++
	}
	return pairs[:out]
}

// TaskEntropy returns H(T): the Shannon entropy, in bits, of the joint
// distribution of crowd answers to the given tasks (Section III-B). It is
// the quantity Algorithm 1 greedily maximizes, since
// ΔQ(F) = H(T) - k·H(Crowd) and the crowd term is constant for fixed k.
//
// With pc = 1 it degenerates to the fact entropy H({f_i | f_i in T}), the
// special case the paper discusses after Equation 4 — served sparsely in
// O(|O| log |O|) without touching the 2^k answer cube.
func TaskEntropy(j *dist.Joint, tasks []int, pc float64) (float64, error) {
	if err := checkTasks(j, tasks, pc); err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		return 0, nil
	}
	s := getScratch()
	defer putScratch(s)
	if pc == 1 {
		// Noiseless channel: the answer distribution is the pattern
		// marginal itself.
		return info.Entropy(s.massesOf(s.patternMasses(j, tasks))), nil
	}
	k := len(tasks)
	dense := s.denseZero(1 << uint(k))
	scatterPatterns(dense, j, tasks)
	bscButterfly(dense, k, pc)
	return info.Entropy(dense), nil
}

// UtilityGain returns ΔQ(F) = H(T) - |T|·H(Crowd), the expected utility
// improvement of asking the task set T (Definition 5 rearranged). A
// negative value means the crowd's noise outweighs the information gained.
func UtilityGain(j *dist.Joint, tasks []int, pc float64) (float64, error) {
	h, err := TaskEntropy(j, tasks, pc)
	if err != nil {
		return 0, err
	}
	return h - float64(len(tasks))*info.Binary(pc), nil
}

// checkAccuracy validates the crowd-accuracy invariant pc ∈ [0.5, 1] that
// bscWeights and the butterfly kernel rely on.
func checkAccuracy(pc float64) error {
	if pc < 0.5 || pc > 1 || math.IsNaN(pc) {
		return ErrBadAccuracy
	}
	return nil
}

// checkTasks validates a task set against a joint distribution. Duplicate
// detection uses a 64-bit mask — valid indices are below j.N() <= 64
// (dist.MaxFacts), so no map is needed on this per-evaluation path.
func checkTasks(j *dist.Joint, tasks []int, pc float64) error {
	if err := checkAccuracy(pc); err != nil {
		return err
	}
	if len(tasks) > MaxTasksPerRound {
		return ErrTooManyTasks
	}
	var seen uint64
	for _, t := range tasks {
		if t < 0 || t >= j.N() {
			return fmt.Errorf("core: task %d out of range [0, %d)", t, j.N())
		}
		if seen&(1<<uint(t)) != 0 {
			return fmt.Errorf("core: duplicate task %d in set", t)
		}
		seen |= 1 << uint(t)
	}
	return nil
}
