package main

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile: a p99 needs at least 1,000 samples, a p50 at least 20.
const minBeyond = 10

// minSamples returns the sample count percentile pm (in per mille) needs.
func minSamples(pm int) int {
	// n - ceil(pm*n/1000) >= minBeyond  ⇔  n >= minBeyond*1000/(1000-pm).
	return (minBeyond*1000 + (1000 - pm) - 1) / (1000 - pm)
}

// percentile returns the nearest-rank percentile pm (in per mille, 990 for
// p99) of xs. It refuses a percentile with fewer than minBeyond samples
// beyond it. xs is sorted in place.
func percentile(xs []float64, pm int) (float64, error) {
	n := len(xs)
	rank := (pm*n + 999) / 1000 // ceil(pm/1000 * n), 1-based
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			float64(pm)/10, n, n-rank, minBeyond)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// median is the middle value of xs (mean of the two middle values for an
// even count). xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// maxChunks is how many consecutive chunks a phase's samples are split
// into. A timing is reported as the median of the chunks' values, so a
// burst of outside interference that hits one chunk does not move it.
const maxChunks = 8

// chunkedPercentile splits samples, in completion order, into up to
// maxChunks equal consecutive chunks that each satisfy the percentile
// rule, and returns the median of the chunks' percentiles and the chunks'
// percentiles in order.
func chunkedPercentile(samples []sample, pm int) (float64, []float64, error) {
	xs := slices.Clone(samples)
	sort.SliceStable(xs, func(i, j int) bool { return xs[i].end < xs[j].end })
	n := len(xs)
	k := min(maxChunks, n/minSamples(pm))
	if k == 0 {
		_, err := percentile(msOf(xs), pm)
		return 0, nil, err
	}
	vals := make([]float64, k)
	for c := range vals {
		v, err := percentile(msOf(xs[c*n/k:(c+1)*n/k]), pm)
		if err != nil {
			return 0, nil, err
		}
		vals[c] = v
	}
	return median(slices.Clone(vals)), vals, nil
}

// hostScale is the factor that brings r's timings to the calibration's
// reference speed: calRef over the median of the calibrations from the end
// of the warm-up on. One calibration can meet a collection still running
// at the pause; the median over the run is the speed the run was given.
func hostScale(r *loadResult) float64 {
	var cals []float64
	for _, m := range r.marks {
		if m.stop >= r.warmup {
			cals = append(cals, float64(m.cal))
		}
	}
	if len(cals) == 0 {
		cals = append(cals, float64(r.marks[len(r.marks)-1].cal))
	}
	return float64(calRef) / median(cals)
}

// sliceOf is the load slice a sample that ended at end belongs to: the
// one between calibrations j and j+1.
func sliceOf(marks []calMark, end time.Duration) int {
	j := sort.Search(len(marks), func(j int) bool { return marks[j].resume > end })
	return max(0, min(j-1, len(marks)-2))
}

// scaled drops the samples that ended in the warm-up and scales the rest
// to the calibration's reference speed.
func scaled(samples []sample, r *loadResult) []sample {
	k := hostScale(r)
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if s.end >= r.warmup {
			s.ms *= k
			out = append(out, s)
		}
	}
	return out
}

// throughput is the median over maxChunks runs of consecutive load slices
// within the timed window of the rounds completed per second of load time,
// scaled to the calibration's reference speed; it also returns the chunks'
// rates in order. A slice's load time runs from the calibration that opens
// it to the moment every client is parked for the one that closes it.
func throughput(rounds []sample, r *loadResult) (float64, []float64) {
	var in []int
	for j := 0; j+1 < len(r.marks); j++ {
		if r.marks[j].resume >= r.warmup && r.marks[j+1].stop <= r.warmup+r.window {
			in = append(in, j)
		}
	}
	count := make(map[int]float64)
	for _, s := range rounds {
		count[sliceOf(r.marks, s.end)]++
	}
	scale := hostScale(r)
	k := min(maxChunks, len(in))
	rates := make([]float64, k)
	for c := range rates {
		var n, secs float64
		for _, j := range in[c*len(in)/k : (c+1)*len(in)/k] {
			n += count[j]
			secs += (r.marks[j+1].stop - r.marks[j].resume).Seconds()
		}
		rates[c] = n / secs / scale
	}
	return median(slices.Clone(rates)), rates
}

// unscaled is r as if every calibration had run at the reference speed:
// its figures are the raw wall-clock ones.
func unscaled(r *loadResult) *loadResult {
	u := *r
	u.marks = slices.Clone(r.marks)
	for i := range u.marks {
		u.marks[i].cal = calRef
	}
	return &u
}

func msOf(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
