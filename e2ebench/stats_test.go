package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		pm, n int
		ok    bool
	}{
		{990, 999, false}, {990, 1000, true},
		{500, 19, false}, {500, 20, true},
		{990, 0, false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		_, err := percentile(xs, tc.pm)
		if (err == nil) != tc.ok {
			t.Errorf("p%d of %d samples: err = %v, want ok=%v", tc.pm/10, tc.n, err, tc.ok)
		}
	}
	if got := minSamples(990); got != 1000 {
		t.Errorf("minSamples(p99) = %d, want 1000", got)
	}
	if got := minSamples(500); got != 20 {
		t.Errorf("minSamples(p50) = %d, want 20", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	got, err := percentile(xs, 990)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
}

func TestChunkedPercentile(t *testing.T) {
	// 4,000 samples make four chunks of 1,000; one chunk of slow samples
	// moves the median of the chunk p99s not at all.
	var s []sample
	for i := 0; i < 4000; i++ {
		ms := float64(i % 1000)
		if i/1000 == 2 {
			ms *= 100
		}
		s = append(s, sample{end: time.Duration(i), ms: ms})
	}
	got, vals, err := chunkedPercentile(s, 990)
	if err != nil || len(vals) != 4 || got != 989 {
		t.Fatalf("chunked p99 = %v over chunks %v (%v); want 989 over 4", got, vals, err)
	}
	if _, _, err := chunkedPercentile(s[:999], 990); err == nil {
		t.Fatal("chunked p99 of 999 samples was not refused")
	}
}

// evenLoad is a phase whose load slices are one second long, with a
// calibration of cal between each, and perSec rounds completing evenly in
// every second of secs seconds.
func evenLoad(secs int, perSec int, cal time.Duration) *loadResult {
	r := &loadResult{warmup: time.Second, window: time.Duration(secs-2) * time.Second}
	for j := 0; j <= secs; j++ {
		at := time.Duration(j) * time.Second
		r.marks = append(r.marks, calMark{stop: at, resume: at, cal: cal})
	}
	for i := 0; i < secs*perSec; i++ {
		end := time.Duration(i) * time.Second / time.Duration(perSec)
		r.round = append(r.round, sample{end: end, ms: 2})
	}
	return r
}

func TestThroughputIgnoresWarmupAndTail(t *testing.T) {
	r := evenLoad(10, 100, calRef)
	// Rounds outside the window must not count.
	for i := 0; i < 500; i++ {
		r.round = append(r.round, sample{end: 9*time.Second + time.Duration(i)})
		r.round = append(r.round, sample{end: time.Duration(i)})
	}
	if got, rates := throughput(r.round, r); got != 100 || len(rates) != maxChunks {
		t.Fatalf("throughput = %v over %v, want 100/s over %d chunks", got, rates, maxChunks)
	}
}

// TestScalingDividesOutHostSpeed: on a host that runs the calibration at
// half speed, the load runs at half speed too, and the scaled figures read
// as on the reference host.
func TestScalingDividesOutHostSpeed(t *testing.T) {
	fast, slow := evenLoad(10, 100, calRef), evenLoad(10, 50, 2*calRef)
	for i := range slow.round {
		slow.round[i].ms = 4
	}
	for _, r := range []*loadResult{fast, slow} {
		if got, _ := throughput(r.round, r); math.Abs(got-100) > 1e-9 {
			t.Errorf("throughput = %v, want 100/s", got)
		}
		xs := scaled(r.round, r)
		if len(xs) == len(r.round) {
			t.Error("scaled kept the warm-up's samples")
		}
		if p50, _, err := chunkedPercentile(xs, 500); err != nil || p50 != 2 {
			t.Errorf("scaled p50 = %v (%v), want 2 ms", p50, err)
		}
	}
}
