package core

import (
	"math/bits"

	"crowdfusion/internal/dist"
	"crowdfusion/internal/info"
	"crowdfusion/internal/parallel"
)

// Preprocessed holds the precomputed answer joint distribution of Section
// III-F: for every support world r (interpreted as a full answer vector over
// all n facts), the probability A[r] that the crowd, asked every fact,
// returns exactly that vector:
//
//	A[r] = sum_i P(o_i) * pc^(n - d(w_r, w_i)) * (1-pc)^d(w_r, w_i).
//
// The paper restricts the answer joint to the ids of the output support
// (its Table IV over the full 2^n cube is the special case of a dense
// support), which makes the precomputation O(|O|^2). Marginalizing A over a
// task set T with Algorithm 2 then costs O(|O|) per evaluation instead of
// O(2^|T|·|O|).
//
// When the support covers the whole cube the marginalization is exact
// (crowd noise on unselected facts sums out); on a sparse support it is an
// approximation whose quality the ablation benchmarks measure.
type Preprocessed struct {
	joint   *dist.Joint
	pc      float64
	answerP []float64 // A[r], parallel to joint.Worlds()
	total   float64   // sum of A[r]; < 1 on sparse supports
}

// maxPreprocessButterflyFacts caps the dense cube the preprocessing
// butterfly may allocate: 2^20 float64s = 8 MB, transient per call.
const maxPreprocessButterflyFacts = 20

// Preprocess computes the answer joint distribution for the given output
// distribution and crowd accuracy. Two strategies, chosen by instance
// shape only (so results never depend on the machine):
//
//   - Cube butterfly: A is the n-fold binary symmetric channel applied to
//     the support scattered into the full 2^n cube — the same kernel as
//     answerDistribution with every fact selected — costing O(n·2^n).
//     Used when n is small enough to allocate the cube and n·2^n < |O|²,
//     e.g. every dense-support instance.
//   - Pairwise: the direct O(|O|²) popcount loop, row-partitioned across
//     all CPUs; every row accumulates in the same index order regardless
//     of worker count, so the result is bit-identical to the sequential
//     reference (preprocessRef).
//
// The result may be reused for any number of task-set evaluations and
// selections, but is invalidated by answer merging (the posterior is a
// different distribution); each selection round preprocesses once, as the
// paper notes.
func Preprocess(j *dist.Joint, pc float64) (*Preprocessed, error) {
	return preprocessWorkers(j, pc, 0)
}

// preprocessWorkers is Preprocess with an explicit worker count (0 = all
// CPUs), split out so tests can exercise the parallel path on any machine.
func preprocessWorkers(j *dist.Joint, pc float64, workers int) (*Preprocessed, error) {
	if err := checkAccuracy(pc); err != nil {
		return nil, err
	}
	n := j.N()
	size := uint64(j.SupportSize())
	if n <= maxPreprocessButterflyFacts && uint64(n)<<uint(n) < size*size {
		return preprocessButterfly(j, pc), nil
	}
	return preprocessPairwise(j, pc, workers), nil
}

// preprocessButterfly computes the answer joint by scattering the support
// into the dense 2^n cube and applying the n-stage channel butterfly, then
// gathering the support rows back out: O(|O| + n·2^n) total, an
// asymptotic win over the pairwise loop whenever the support is within a
// square root of the cube.
func preprocessButterfly(j *dist.Joint, pc float64) *Preprocessed {
	worlds := j.Worlds()
	probs := j.Probs()
	n := j.N()
	s := getScratch()
	defer putScratch(s)
	dense := s.denseZero(1 << uint(n)) // transient: pooled, not allocated
	for i, w := range worlds {
		dense[w] = probs[i] // support worlds are distinct
	}
	bscButterfly(dense, n, pc)
	a := make([]float64, len(worlds)) // escapes into the Preprocessed
	var total float64
	for r, w := range worlds {
		a[r] = dense[w]
		total += dense[w]
	}
	return &Preprocessed{joint: j, pc: pc, answerP: a, total: total}
}

// preprocessPairwise is the direct O(|O|²) computation, row-partitioned
// across the bounded worker pool. Each row is an independent local
// accumulation in ascending index order, so any worker count produces
// bit-identical output.
func preprocessPairwise(j *dist.Joint, pc float64, workers int) *Preprocessed {
	worlds := j.Worlds()
	probs := j.Probs()
	weights := bscWeights(j.N(), pc)
	a := make([]float64, len(worlds))
	w := parallel.Workers(workers, len(worlds))
	parallel.Blocks(w, len(worlds), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			wr := worlds[r]
			var acc float64
			for i, wi := range worlds {
				d := bits.OnesCount64(uint64(wr ^ wi))
				acc += probs[i] * weights[d]
			}
			a[r] = acc
		}
	})
	// Plain ascending sum, matching the reference accumulation order so
	// CoveredMass is bit-identical too.
	var total float64
	for _, v := range a {
		total += v
	}
	return &Preprocessed{joint: j, pc: pc, answerP: a, total: total}
}

// Joint returns the output distribution the preprocessing was built from.
func (p *Preprocessed) Joint() *dist.Joint { return p.joint }

// Pc returns the crowd accuracy the preprocessing was built for.
func (p *Preprocessed) Pc() float64 { return p.pc }

// AnswerProb returns A[r] for the r-th support world: the probability that
// asking all facts yields that world's judgments as the answer vector. This
// regenerates the rows of the paper's Table IV when the support is dense.
func (p *Preprocessed) AnswerProb(r int) float64 { return p.answerP[r] }

// CoveredMass returns sum_r A[r] — the probability that the full crowd
// answer vector coincides with some support world. 1 for dense supports;
// the shortfall on sparse supports is exactly the mass the approximation
// ignores.
func (p *Preprocessed) CoveredMass() float64 { return p.total }

// TaskEntropy approximates H(T) by marginalizing the precomputed answer
// joint over the task set with Algorithm 2: partition the support by the
// judgments of T, sum A within each part, and take the entropy of the
// normalized part masses. Cost O(|O| log |O|) with pooled scratch — no
// allocation on the steady-state path. Safe for concurrent use.
func (p *Preprocessed) TaskEntropy(tasks []int) (float64, error) {
	if err := checkTasks(p.joint, tasks, p.pc); err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		return 0, nil
	}
	s := getScratch()
	defer putScratch(s)
	masses := p.marginalize(s, tasks)
	return info.EntropyNormalized(masses), nil
}

// marginalize implements Algorithm 2 (Compute Marginal Distribution): the
// support is separated into parts by the judgments of the selected facts
// and the answer-joint probabilities are summed within each part. Grouping
// is sort-based over the scratch pair buffer (see groupPatternMasses); the
// returned part masses are in ascending-pattern order and are views into
// the scratch, valid only until its next use.
func (p *Preprocessed) marginalize(s *kernelScratch, tasks []int) []float64 {
	worlds := p.joint.Worlds()
	pairs := s.pairBuf(len(worlds))
	for r, w := range worlds {
		pairs[r] = patMass{pat: w.Pattern(tasks), mass: p.answerP[r]}
	}
	return s.massesOf(groupPatternMasses(pairs))
}

// partition is the incremental state used by the greedy selector with
// preprocessing: the current grouping of support indices by the judgments of
// the already-selected tasks. Refining by one more fact splits each group in
// two with a single linear scan, the "separate each part ... into two new
// parts" step of Algorithm 2.
//
// The layout is flat and cache-contiguous: all support indices live in one
// []int, grouped as contiguous runs delimited by offs (group g is
// idx[offs[g]:offs[g+1]]) — replacing the per-refine [][]int of appends
// that dominated the selection path's allocations. idx/offs and their
// spares are borrowed from the selection's pooled kernel scratch, so
// refinement allocates nothing in the steady state.
type partition struct {
	idx       []int // support indices, grouped contiguously
	offs      []int // group boundaries; len = groups+1, offs[0] = 0
	spare     []int // double buffer for idx
	offsSpare []int // double buffer for offs
}

// newPartition returns the trivial partition with all support indices in
// one group ("initially, answer set has one part as a whole"), backed by
// the scratch's partition buffers. offs can grow to at most size+1 entries,
// so both offset buffers are sized once and never reallocate.
func newPartition(size int, s *kernelScratch) partition {
	if cap(s.idxA) < size {
		s.idxA = make([]int, size)
	}
	if cap(s.idxB) < size {
		s.idxB = make([]int, size)
	}
	if cap(s.offsA) < size+1 {
		s.offsA = make([]int, 0, size+1)
	}
	if cap(s.offsB) < size+1 {
		s.offsB = make([]int, 0, size+1)
	}
	idx := s.idxA[:size]
	for i := range idx {
		idx[i] = i
	}
	return partition{
		idx:       idx,
		offs:      append(s.offsA[:0], 0, size),
		spare:     s.idxB[:0],
		offsSpare: s.offsB[:0],
	}
}

// refine splits every group by whether the world at each support index
// judges fact f true, in place: the split runs are written to the spare
// buffers (no-half first, then yes-half, preserving index order within each
// half, exactly as the former slice-of-slices layout did) and the buffers
// are swapped.
func (pt *partition) refine(worlds []dist.World, f int) {
	next := pt.spare[:0]
	noffs := append(pt.offsSpare[:0], 0)
	for g := 0; g+1 < len(pt.offs); g++ {
		run := pt.idx[pt.offs[g]:pt.offs[g+1]]
		for _, idx := range run {
			if !worlds[idx].Has(f) {
				next = append(next, idx)
			}
		}
		split := len(next)
		for _, idx := range run {
			if worlds[idx].Has(f) {
				next = append(next, idx)
			}
		}
		if split > noffs[len(noffs)-1] && split < len(next) {
			noffs = append(noffs, split) // both halves non-empty
		}
		noffs = append(noffs, len(next))
	}
	pt.idx, pt.spare = next, pt.idx
	pt.offs, pt.offsSpare = noffs, pt.offs
}

// entropyAfter returns the Algorithm-2 entropy of the partition refined by
// fact f, without materializing the refined partition: each group's
// answer-joint mass is split by the judgment of f and the entropy of the
// normalized split masses is computed directly over the caller's scratch.
// The caller holds one scratch for its whole selection (as
// GreedySelector.Select does) so this per-candidate hot path pays no pool
// round-trip.
func (p *Preprocessed) entropyAfter(s *kernelScratch, pt *partition, f int) float64 {
	worlds := p.joint.Worlds()
	masses := s.masses[:0]
	for g := 0; g+1 < len(pt.offs); g++ {
		var yes, no float64
		for _, idx := range pt.idx[pt.offs[g]:pt.offs[g+1]] {
			if worlds[idx].Has(f) {
				yes += p.answerP[idx]
			} else {
				no += p.answerP[idx]
			}
		}
		if no > 0 {
			masses = append(masses, no)
		}
		if yes > 0 {
			masses = append(masses, yes)
		}
	}
	h := info.EntropyNormalized(masses)
	s.masses = masses[:0] // retain any growth for the next caller
	return h
}
