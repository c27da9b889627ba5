package core

import (
	"math/bits"

	"crowdfusion/internal/dist"
	"crowdfusion/internal/info"
)

// Reference implementations of the selection kernel, retained verbatim from
// the pre-butterfly code as differential-test oracles. They compute the
// same quantities as the fast paths in entropy.go / preprocess.go through
// structurally different algorithms (per-call maps, O(|O|·2^k) popcount
// convolution, sequential O(|O|²) preprocessing), so agreement within
// floating-point tolerance is strong evidence both are right. They live in a
// test file: only tests and benchmarks call them.

// patternMassesRef groups the support of j by the judgments of the given
// tasks with a per-call map, returning distinct patterns in first-seen
// order with their total probabilities.
func patternMassesRef(j *dist.Joint, tasks []int) (patterns []uint64, masses []float64) {
	worlds := j.Worlds()
	probs := j.Probs()
	acc := make(map[uint64]float64, len(worlds))
	order := make([]uint64, 0, len(worlds))
	for i, w := range worlds {
		p := w.Pattern(tasks)
		if _, seen := acc[p]; !seen {
			order = append(order, p)
		}
		acc[p] += probs[i]
	}
	masses = make([]float64, len(order))
	for i, p := range order {
		masses[i] = acc[p]
	}
	return order, masses
}

// answerDistributionRef computes the answer distribution with the direct
// O(|patterns|·2^k) popcount convolution the butterfly kernel replaces.
func answerDistributionRef(patterns []uint64, masses []float64, k int, pc float64) []float64 {
	weights := bscWeights(k, pc)
	out := make([]float64, 1<<uint(k))
	for qi, q := range patterns {
		m := masses[qi]
		if m == 0 {
			continue
		}
		for a := uint64(0); a < uint64(len(out)); a++ {
			d := bits.OnesCount64(a ^ q)
			out[a] += m * weights[d]
		}
	}
	return out
}

// taskEntropyRef is the reference H(T): map-based grouping composed with
// the popcount convolution.
func taskEntropyRef(j *dist.Joint, tasks []int, pc float64) (float64, error) {
	if err := checkTasks(j, tasks, pc); err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		return 0, nil
	}
	patterns, masses := patternMassesRef(j, tasks)
	return info.Entropy(answerDistributionRef(patterns, masses, len(tasks), pc)), nil
}

// preprocessRef is the reference Section III-F precomputation: the
// single-threaded row-major O(|O|²) pairwise loop.
func preprocessRef(j *dist.Joint, pc float64) (*Preprocessed, error) {
	if err := checkAccuracy(pc); err != nil {
		return nil, err
	}
	worlds := j.Worlds()
	probs := j.Probs()
	weights := bscWeights(j.N(), pc)
	a := make([]float64, len(worlds))
	var total float64
	for r, wr := range worlds {
		var acc float64
		for i, wi := range worlds {
			d := bits.OnesCount64(uint64(wr ^ wi))
			acc += probs[i] * weights[d]
		}
		a[r] = acc
		total += acc
	}
	return &Preprocessed{joint: j, pc: pc, answerP: a, total: total}, nil
}

// marginalizeRef is the reference Algorithm-2 marginalization: map-based
// grouping of the answer joint by task pattern, part masses in first-seen
// order.
func (p *Preprocessed) marginalizeRef(tasks []int) []float64 {
	worlds := p.joint.Worlds()
	acc := make(map[uint64]float64, len(worlds))
	order := make([]uint64, 0, len(worlds))
	for r, w := range worlds {
		pat := w.Pattern(tasks)
		if _, seen := acc[pat]; !seen {
			order = append(order, pat)
		}
		acc[pat] += p.answerP[r]
	}
	masses := make([]float64, len(order))
	for i, pat := range order {
		masses[i] = acc[pat]
	}
	return masses
}
