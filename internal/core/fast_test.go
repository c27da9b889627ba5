package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"crowdfusion/internal/dist"
	"crowdfusion/internal/info"
)

// Differential tests for the fast selection kernel: every accelerated path
// (butterfly answer channel, sort-based grouping, incremental pattern
// cache, parallel preprocessing) is checked against the retained reference
// implementations in reference_test.go on random sparse joints, including the
// degenerate single-world and full-cube supports.

const diffTol = 1e-12

// randomSparseJoint builds a joint over n facts with the given support
// size: distinct random worlds with continuous random masses (so exact
// entropy ties across candidates have probability zero).
func randomSparseJoint(tb testing.TB, rng *rand.Rand, n, support int) *dist.Joint {
	tb.Helper()
	seen := make(map[dist.World]bool, support)
	worlds := make([]dist.World, 0, support)
	probs := make([]float64, 0, support)
	limit := 1 << uint(n)
	if support > limit {
		support = limit
	}
	for len(worlds) < support {
		w := dist.World(rng.Intn(limit))
		if seen[w] {
			continue
		}
		seen[w] = true
		worlds = append(worlds, w)
		probs = append(probs, 0.05+rng.Float64())
	}
	j, err := dist.New(n, worlds, probs)
	if err != nil {
		tb.Fatal(err)
	}
	return j
}

func randomTasks(rng *rand.Rand, n, k int) []int {
	perm := rng.Perm(n)
	tasks := append([]int(nil), perm[:k]...)
	return tasks
}

// answerDistribution assembles the butterfly answer distribution the way
// TaskEntropy's hot path does (scatter + bscButterfly), over a fresh slice
// so the test can inspect it.
func answerDistribution(j *dist.Joint, tasks []int, pc float64) []float64 {
	dense := make([]float64, 1<<uint(len(tasks)))
	scatterPatterns(dense, j, tasks)
	bscButterfly(dense, len(tasks), pc)
	return dense
}

// TestButterflyMatchesReference: the k-stage butterfly channel produces
// the same dense answer distribution as the O(|O|·2^k) popcount loop.
func TestButterflyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct{ n, support int }{
		{4, 1},     // single world
		{4, 16},    // full cube
		{8, 5},     // sparse
		{10, 200},  // mid
		{12, 4096}, // dense cube
		{14, 300},  // wide facts, sparse support
	}
	for _, tc := range cases {
		j := randomSparseJoint(t, rng, tc.n, tc.support)
		for _, k := range []int{1, 2, 5, 8} {
			if k > tc.n {
				continue
			}
			tasks := randomTasks(rng, tc.n, k)
			for _, pc := range []float64{0.5, 0.62, 0.8, 0.97, 1} {
				got := answerDistribution(j, tasks, pc)
				pats, masses := patternMassesRef(j, tasks)
				want := answerDistributionRef(pats, masses, k, pc)
				if len(got) != len(want) {
					t.Fatalf("n=%d |O|=%d k=%d: len %d != %d", tc.n, tc.support, k, len(got), len(want))
				}
				for a := range got {
					if math.Abs(got[a]-want[a]) > diffTol {
						t.Fatalf("n=%d |O|=%d k=%d pc=%v: answer %d: butterfly %v != ref %v",
							tc.n, tc.support, k, pc, a, got[a], want[a])
					}
				}
			}
		}
	}
}

// TestBlockedButterflyBitIdentical: the cache-blocked butterfly is the
// same arithmetic as the naive stage-by-stage sweep, bit for bit, above
// and below the block size.
func TestBlockedButterflyBitIdentical(t *testing.T) {
	naive := func(dense []float64, k int, pc float64) {
		qc := 1 - pc
		for b := 0; b < k; b++ {
			step := 1 << uint(b)
			for base := 0; base < len(dense); base += step << 1 {
				for i := base; i < base+step; i++ {
					lo, hi := dense[i], dense[i+step]
					dense[i] = pc*lo + qc*hi
					dense[i+step] = qc*lo + pc*hi
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(103))
	for _, k := range []int{0, 1, 5, 11, 12, 13, 15} {
		a := make([]float64, 1<<uint(k))
		b := make([]float64, len(a))
		for i := range a {
			a[i] = rng.Float64()
			b[i] = a[i]
		}
		pc := 0.5 + rng.Float64()/2
		bscButterfly(a, k, pc)
		naive(b, k, pc)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("k=%d: blocked and naive butterflies diverge at %d: %v != %v",
					k, i, a[i], b[i])
			}
		}
	}
}

// TestGroupPatternMasses: sort-based compaction produces exactly one
// ascending entry per distinct pattern, with the summed mass, across
// adversarial input shapes.
func TestGroupPatternMasses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []func(i, n int) uint64{
		func(i, n int) uint64 { return uint64(rng.Intn(8)) },     // heavy duplicates
		func(i, n int) uint64 { return uint64(i) },               // already sorted
		func(i, n int) uint64 { return uint64(n - i) },           // reversed
		func(i, n int) uint64 { return 3 },                       // constant
		func(i, n int) uint64 { return rng.Uint64() },            // random wide
		func(i, n int) uint64 { return uint64(rng.Intn(n + 1)) }, // random narrow
	}
	for _, n := range []int{0, 1, 2, 11, 12, 13, 100, 5000} {
		for si, shape := range shapes {
			pairs := make([]patMass, n)
			want := make(map[uint64]float64, n)
			for i := range pairs {
				p := shape(i, n)
				m := rng.Float64()
				pairs[i] = patMass{pat: p, mass: m}
				want[p] += m
			}
			got := groupPatternMasses(pairs)
			if len(got) != len(want) {
				t.Fatalf("n=%d shape=%d: %d groups, want %d", n, si, len(got), len(want))
			}
			for i, pm := range got {
				if i > 0 && got[i-1].pat >= pm.pat {
					t.Fatalf("n=%d shape=%d: patterns not strictly ascending at %d", n, si, i)
				}
				if math.Abs(pm.mass-want[pm.pat]) > 1e-9 {
					t.Fatalf("n=%d shape=%d: pattern %d mass %v, want %v",
						n, si, pm.pat, pm.mass, want[pm.pat])
				}
			}
		}
	}
}

// TestPatternMassesMatchesReference: sort-based grouping and the map-based
// reference agree on the pattern → mass association.
func TestPatternMassesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		support := 1 + rng.Intn(1<<uint(min(n, 9)))
		j := randomSparseJoint(t, rng, n, support)
		k := 1 + rng.Intn(min(n, 8))
		tasks := randomTasks(rng, n, k)

		s := getScratch()
		pairs := s.patternMasses(j, tasks)
		got := make(map[uint64]float64, len(pairs))
		for i, pm := range pairs {
			if i > 0 && pairs[i-1].pat >= pm.pat {
				t.Fatalf("patterns not strictly ascending at %d", i)
			}
			got[pm.pat] = pm.mass
		}
		putScratch(s)

		refPats, refMasses := patternMassesRef(j, tasks)
		if len(refPats) != len(got) {
			t.Fatalf("distinct pattern counts differ: %d vs %d", len(got), len(refPats))
		}
		for i, p := range refPats {
			if math.Abs(got[p]-refMasses[i]) > diffTol {
				t.Fatalf("pattern %d: mass %v != ref %v", p, got[p], refMasses[i])
			}
		}
	}
}

// TestTaskEntropyMatchesReference: the full fast H(T) (scatter + butterfly
// over pooled scratch, sparse path at pc = 1) matches the reference within
// 1e-12 across random joints and the degenerate supports.
func TestTaskEntropyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type tc struct{ n, support int }
	cases := []tc{{3, 1}, {6, 64}, {10, 1024}}
	for trial := 0; trial < 40; trial++ {
		cases = append(cases, tc{2 + rng.Intn(13), 1 + rng.Intn(512)})
	}
	for _, c := range cases {
		j := randomSparseJoint(t, rng, c.n, c.support)
		k := 1 + rng.Intn(min(c.n, 10))
		tasks := randomTasks(rng, c.n, k)
		for _, pc := range []float64{0.5, 0.55, 0.8, 1} {
			got, err := TaskEntropy(j, tasks, pc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := taskEntropyRef(j, tasks, pc)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > diffTol {
				t.Fatalf("n=%d |O|=%d k=%d pc=%v: fast H(T)=%v ref=%v",
					c.n, c.support, k, pc, got, want)
			}
		}
	}
}

// TestPreprocessPairwiseBitIdentical: every row of the parallel pairwise
// strategy accumulates in ascending index order whatever the worker count,
// so it must equal the row-major reference bit for bit — not just within
// tolerance.
func TestPreprocessPairwiseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(14)
		support := 1 + rng.Intn(1<<uint(min(n, 10)))
		j := randomSparseJoint(t, rng, n, support)
		pc := 0.5 + rng.Float64()/2
		ref, err := preprocessRef(j, pc)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			got := preprocessPairwise(j, pc, workers)
			if !reflect.DeepEqual(got.answerP, ref.answerP) {
				t.Fatalf("workers=%d n=%d |O|=%d: answer joint not bit-identical to reference",
					workers, n, support)
			}
			if got.total != ref.total {
				t.Fatalf("workers=%d: CoveredMass %v != ref %v", workers, got.total, ref.total)
			}
		}
	}
}

// TestPreprocessMatchesReference: whatever strategy Preprocess picks (cube
// butterfly or pairwise), the answer joint matches the reference within
// 1e-12 — including the degenerate single-world and full-cube supports.
func TestPreprocessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	type tc struct{ n, support int }
	cases := []tc{{3, 1}, {6, 64}, {10, 1024}, {12, 4096}}
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(14)
		cases = append(cases, tc{n, 1 + rng.Intn(1<<uint(min(n, 11)))})
	}
	for _, c := range cases {
		j := randomSparseJoint(t, rng, c.n, c.support)
		pc := 0.5 + rng.Float64()/2
		ref, err := preprocessRef(j, pc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Preprocess(j, pc)
		if err != nil {
			t.Fatal(err)
		}
		for r := range ref.answerP {
			if math.Abs(got.answerP[r]-ref.answerP[r]) > diffTol {
				t.Fatalf("n=%d |O|=%d: A[%d] = %v, ref %v", c.n, c.support, r,
					got.answerP[r], ref.answerP[r])
			}
		}
		if math.Abs(got.total-ref.total) > diffTol {
			t.Fatalf("n=%d |O|=%d: CoveredMass %v != ref %v", c.n, c.support, got.total, ref.total)
		}
	}
}

// TestMarginalizeMatchesReference: sort-based Algorithm-2 marginalization
// groups the same masses as the map-based reference.
func TestMarginalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(10)
		j := randomSparseJoint(t, rng, n, 1+rng.Intn(1<<uint(min(n, 9))))
		pre, err := Preprocess(j, 0.5+rng.Float64()/2)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(min(n, 6))
		tasks := randomTasks(rng, n, k)

		s := getScratch()
		got := append([]float64(nil), pre.marginalize(s, tasks)...)
		putScratch(s)
		want := pre.marginalizeRef(tasks)
		sort.Float64s(got)
		sort.Float64s(want)
		if len(got) != len(want) {
			t.Fatalf("part counts differ: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > diffTol {
				t.Fatalf("part mass %d: %v != ref %v", i, got[i], want[i])
			}
		}
	}
}

// TestPatternCacheMatchesTaskEntropy: the incremental per-candidate cache
// returns exactly what a from-scratch TaskEntropy over the extended set
// would, at every depth of a simulated selection.
func TestPatternCacheMatchesTaskEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(10)
		j := randomSparseJoint(t, rng, n, 1+rng.Intn(1<<uint(min(n, 9))))
		pc := []float64{0.5, 0.7, 0.9, 1}[rng.Intn(4)]
		cache := newPatternCache(j, pc)
		var selected []int
		inSet := make([]bool, n)
		for depth := 0; depth < min(n, 6); depth++ {
			for f := 0; f < n; f++ {
				if inSet[f] {
					continue
				}
				got := cache.entropyWith(f)
				want, err := TaskEntropy(j, append(append([]int(nil), selected...), f), pc)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want) > diffTol {
					t.Fatalf("depth=%d f=%d pc=%v: cache %v != TaskEntropy %v",
						depth, f, pc, got, want)
				}
			}
			// Extend by a random unselected fact.
			f := rng.Intn(n)
			for inSet[f] {
				f = rng.Intn(n)
			}
			cache.pick(f)
			selected = append(selected, f)
			inSet[f] = true
		}
		cache.release()
	}
}

// referenceGreedySelect mirrors the plain-greedy loop of
// GreedySelector.Select (no prune, no preprocess) with the reference
// entropy kernel — the oracle for selection-identity tests.
func referenceGreedySelect(tb testing.TB, j *dist.Joint, k int, pc float64) []int {
	tb.Helper()
	n := j.N()
	if k > n {
		k = n
	}
	noiseFloor := info.Binary(pc)
	selected := make([]int, 0, k)
	inSet := make([]bool, n)
	currentH := 0.0
	for len(selected) < k {
		bestFact := -1
		bestH := math.Inf(-1)
		for f := 0; f < n; f++ {
			if inSet[f] {
				continue
			}
			h, err := taskEntropyRef(j, append(append([]int(nil), selected...), f), pc)
			if err != nil {
				tb.Fatal(err)
			}
			if h > bestH {
				bestH = h
				bestFact = f
			}
		}
		if bestFact < 0 || bestH-currentH-noiseFloor <= gainTolerance {
			break
		}
		selected = append(selected, bestFact)
		inSet[bestFact] = true
		currentH = bestH
	}
	sort.Ints(selected)
	return selected
}

// TestGreedySelectionsUnchanged: the rebuilt kernel (butterfly + pattern
// cache, with and without lazy pruning) selects exactly the same task sets
// as the reference greedy, and the selected sets' exact entropies agree
// within 1e-12.
func TestGreedySelectionsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(10)
		j := randomSparseJoint(t, rng, n, 1+rng.Intn(1<<uint(min(n, 9))))
		k := 1 + rng.Intn(min(n, 6))
		pc := []float64{0.6, 0.8, 0.95}[rng.Intn(3)]
		want := referenceGreedySelect(t, j, k, pc)
		for _, sel := range []Selector{NewGreedy(), NewGreedyPrune()} {
			got, err := sel.Select(j, k, pc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s(n=%d k=%d pc=%v): selected %v, reference %v",
					trial, sel.Name(), n, k, pc, got, want)
			}
			hGot, err := taskEntropyRef(j, got, pc)
			if err != nil {
				t.Fatal(err)
			}
			hWant, err := taskEntropyRef(j, want, pc)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(hGot-hWant) > diffTol {
				t.Fatalf("%s: H(selection) %v != %v", sel.Name(), hGot, hWant)
			}
		}
	}
}

// TestRandomSelectorDraw: the partial Fisher–Yates draw returns k distinct
// in-range facts, is deterministic for a fixed seed, covers the k = n
// edge, and is safe for concurrent use.
func TestRandomSelectorDraw(t *testing.T) {
	j := randomSparseJoint(t, rand.New(rand.NewSource(1)), 12, 40)

	a := NewRandom(99)
	b := NewRandom(99)
	for i := 0; i < 20; i++ {
		k := 1 + i%12
		sa, err := a.Select(j, k, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.Select(j, k, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("same seed diverged: %v vs %v", sa, sb)
		}
		if len(sa) != k {
			t.Fatalf("k=%d: got %d tasks", k, len(sa))
		}
		for x := 1; x < len(sa); x++ {
			if sa[x] <= sa[x-1] {
				t.Fatalf("k=%d: not strictly ascending: %v", k, sa)
			}
		}
		if sa[0] < 0 || sa[len(sa)-1] >= j.N() {
			t.Fatalf("k=%d: out of range: %v", k, sa)
		}
	}

	// k = n must return every fact.
	full, err := NewRandom(3).Select(j, j.N(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range full {
		if f != i {
			t.Fatalf("k=n draw missed a fact: %v", full)
		}
	}

	// Concurrent draws from one selector: exercised under -race.
	shared := NewRandom(7)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := shared.Select(j, 3, 0.8); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Uniformity sanity: over many draws of k=1 from n facts, every fact
	// appears (a frozen or biased stream would leave gaps).
	counts := make([]int, j.N())
	r := NewRandom(5)
	for i := 0; i < 2000; i++ {
		s, err := r.Select(j, 1, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		counts[s[0]]++
	}
	for f, c := range counts {
		if c == 0 {
			t.Errorf("fact %d never drawn in 2000 single draws", f)
		}
	}
}

// TestGreedySelectConcurrent: goroutines running a mixed workload — random
// joints of different sizes over a few (pc, k) groups and all four greedy
// configurations — through shared selectors get exactly their sequential
// results. Run under -race this also checks that the pooled scratch is
// sound when calls of different shapes interleave.
func TestGreedySelectConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	selectors := []*GreedySelector{
		NewGreedy(), NewGreedyPrune(), NewGreedyPre(), NewGreedyPrunePre(),
	}
	pcs := []float64{0.6, 0.75, 0.9}
	ks := []int{1, 2, 3, 5}
	type call struct {
		sel   *GreedySelector
		joint *dist.Joint
		k     int
		pc    float64
		want  []int
	}
	calls := make([]call, 12)
	for i := range calls {
		n := 4 + rng.Intn(9)
		c := call{
			sel:   selectors[rng.Intn(len(selectors))],
			joint: randomSparseJoint(t, rng, n, 1+rng.Intn(1<<uint(min(n, 9)))),
			k:     ks[rng.Intn(len(ks))],
			pc:    pcs[rng.Intn(len(pcs))],
		}
		var err error
		if c.want, err = c.sel.Select(c.joint, c.k, c.pc); err != nil {
			t.Fatal(err)
		}
		calls[i] = c
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i := range calls {
					c := calls[(i+g)%len(calls)]
					got, err := c.sel.Select(c.joint, c.k, c.pc)
					if err != nil {
						t.Errorf("call %d: %v", (i+g)%len(calls), err)
						return
					}
					if !reflect.DeepEqual(got, c.want) {
						t.Errorf("call %d: concurrent %v != sequential %v", (i+g)%len(calls), got, c.want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGreedySelectConcurrentSharedJoint: many goroutines selecting on one
// shared joint through shared selectors match the sequential result
// exactly — the -race proof that the pooled kernel scratch and the
// immutable posterior carry no shared mutable state. Both preprocessing
// shapes are covered: the cube butterfly (n=10) and the parallel pairwise
// loop (n=14, sparse support).
func TestGreedySelectConcurrentSharedJoint(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	selectors := []*GreedySelector{
		NewGreedy(), NewGreedyPrune(), NewGreedyPre(), NewGreedyPrunePre(),
	}
	for _, shape := range []struct{ n, support int }{{10, 200}, {14, 200}} {
		j := randomSparseJoint(t, rng, shape.n, shape.support)
		type call struct {
			sel  *GreedySelector
			k    int
			pc   float64
			want []int
		}
		var calls []call
		for _, sel := range selectors {
			for _, k := range []int{1, 3, 5} {
				for _, pc := range []float64{0.7, 0.9} {
					want, err := sel.Select(j, k, pc)
					if err != nil {
						t.Fatal(err)
					}
					calls = append(calls, call{sel, k, pc, want})
				}
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					for i := range calls {
						c := calls[(i+g)%len(calls)] // stagger the goroutines
						got, err := c.sel.Select(j, c.k, c.pc)
						if err != nil {
							t.Error(err)
							return
						}
						if !reflect.DeepEqual(got, c.want) {
							t.Errorf("n=%d %s k=%d pc=%v: concurrent %v != sequential %v",
								shape.n, c.sel.Name(), c.k, c.pc, got, c.want)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
