package core

import (
	"fmt"
	"math/rand"
	"testing"

	"crowdfusion/internal/dist"
)

// Before/after benchmarks for the selection kernel. Each fast path is
// benchmarked side by side with the retained reference implementation it
// replaced, so `make bench-json` captures the speedup in one run:
//
//	BenchmarkTaskEntropyKernel/Butterfly/...  vs  .../Reference/...
//	BenchmarkPreprocessKernel/Fast            vs  .../Reference
//	BenchmarkGreedySelectKernel/PatternCache  vs  .../Reference

// benchDenseJoint builds the paper's own support regime: a dense 2^n-world
// joint from independent marginals — the regime where |O| ≫ k and the
// butterfly's O(|O| + k·2^k) beats the O(|O|·2^k) popcount loop hardest.
func benchDenseJoint(b *testing.B, n int) *dist.Joint {
	b.Helper()
	marginals := make([]float64, n)
	for i := range marginals {
		marginals[i] = 0.3 + 0.4*float64(i)/float64(n-1)
	}
	j, err := dist.Independent(marginals)
	if err != nil {
		b.Fatal(err)
	}
	return j
}

// benchSparseJoint draws a random sparse support, the regime of the book
// instances.
func benchSparseJoint(b *testing.B, n, support int) *dist.Joint {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return randomSparseJoint(b, rng, n, support)
}

func BenchmarkTaskEntropyKernel(b *testing.B) {
	j := benchDenseJoint(b, 12)
	for _, k := range []int{4, 8, 10} {
		tasks := make([]int, k)
		for i := range tasks {
			tasks[i] = i
		}
		b.Run(fmt.Sprintf("Butterfly/dense/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TaskEntropy(j, tasks, 0.8); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Reference/dense/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := taskEntropyRef(j, tasks, 0.8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	sparse := benchSparseJoint(b, 16, 256)
	tasks := []int{0, 3, 5, 7, 9, 11, 13, 15}
	b.Run("Butterfly/sparse/k=8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := TaskEntropy(sparse, tasks, 0.8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Reference/sparse/k=8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := taskEntropyRef(sparse, tasks, 0.8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPreprocessKernel(b *testing.B) {
	for _, support := range []int{256, 1024, 4096} {
		j := benchSparseJoint(b, 14, support)
		b.Run(fmt.Sprintf("Fast/support=%d", support), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Preprocess(j, 0.8); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Reference/support=%d", support), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := preprocessRef(j, 0.8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// referenceGreedyBench is plain greedy over the reference kernel with the
// pre-rebuild evaluation pattern (recompute World.Pattern over the whole
// extended set per candidate) — the before side of the selector benchmark.
func referenceGreedyBench(b *testing.B, j *dist.Joint, k int, pc float64) {
	b.Helper()
	if _, err := (&referenceGreedySelector{}).Select(j, k, pc); err != nil {
		b.Fatal(err)
	}
}

// referenceGreedySelector adapts referenceGreedySelect to the Selector
// shape for benchmarking.
type referenceGreedySelector struct{}

func (referenceGreedySelector) Name() string { return "ReferenceGreedy" }

func (referenceGreedySelector) Select(j *dist.Joint, k int, pc float64) ([]int, error) {
	return referenceGreedySelect(benchTB{}, j, k, pc), nil
}

// benchTB is a minimal testing.TB stand-in for referenceGreedySelect's
// helper signature inside benchmarks; the reference kernel cannot error on
// the valid inputs used here.
type benchTB struct{ testing.TB }

func (benchTB) Helper()                   {}
func (benchTB) Fatal(args ...interface{}) { panic(fmt.Sprint(args...)) }
func (benchTB) Fatalf(f string, a ...any) { panic(fmt.Sprintf(f, a...)) }

func BenchmarkGreedySelectKernel(b *testing.B) {
	j := benchDenseJoint(b, 12)
	for _, k := range []int{4, 8} {
		b.Run(fmt.Sprintf("PatternCache/k=%d", k), func(b *testing.B) {
			sel := NewGreedy()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(j, k, 0.8); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Reference/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				referenceGreedyBench(b, j, k, 0.8)
			}
		})
	}
}
