package main

import (
	"crypto/sha256"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: the speed it gives one thread
// swings by up to two times over tens of seconds as its other tenants come
// and go, and every wall-clock figure of a run swings with it. So the load
// is paused at short intervals to time a fixed calibration job, and a
// run's timings are scaled by how much slower or faster than its reference
// duration the job ran over the run. The job calls no program code and
// allocates nothing, so a change to the program moves the scaled figures
// exactly as it moves the raw ones; only the host's speed is divided out.

// calRef is the calibration job's reference duration. Scaled timings read
// as on a host that runs the job in calRef; a quiet 2-vCPU Xeon VM at
// 2.1 GHz runs it in about that.
const calRef = 350 * time.Microsecond

// calibrator holds one thread's calibration scratch, allocated once so the
// job itself allocates nothing and never triggers the collector.
type calibrator struct {
	vec   []float64 // butterfly passes, as the selection kernel makes
	chase []int32   // a random cycle: dependent loads past the L2 cache
	text  []byte    // number formatting and parsing, as JSON bodies need
	sink  float64
}

const (
	calVecBits  = 13
	calChaseLen = 1 << 18 // 1 MiB of int32
	calChaseHop = 12000
)

func newCalibrator() *calibrator {
	c := &calibrator{
		vec:   make([]float64, 1<<calVecBits),
		chase: make([]int32, calChaseLen),
		text:  make([]byte, 0, 64),
	}
	for i := range c.vec {
		c.vec[i] = 1 / float64(i+1)
	}
	// Sattolo's shuffle: one cycle through every entry.
	rng := rand.New(rand.NewSource(1))
	for i := range c.chase {
		c.chase[i] = int32(i)
	}
	for i := len(c.chase) - 1; i > 0; i-- {
		j := rng.Intn(i)
		c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
	}
	return c
}

// job runs the fixed calibration work once.
func (c *calibrator) job() {
	v := c.vec
	for s := 0; s < calVecBits; s++ {
		h := 1 << s
		for b := 0; b < len(v); b += 2 * h {
			for i := b; i < b+h; i++ {
				x, y := v[i], v[i+h]
				v[i], v[i+h] = 0.5*(x+y), 0.5*(x-y)+1e-3
			}
		}
	}
	p := int32(0)
	for i := 0; i < calChaseHop; i++ {
		p = c.chase[p]
	}
	acc := float64(p)
	for i := 0; i < 400; i++ {
		c.text = strconv.AppendFloat(c.text[:0], v[i]*float64(i+1), 'g', -1, 64)
		f, _ := strconv.ParseFloat(string(c.text), 64)
		acc += f
	}
	sum := sha256.Sum256(c.text)
	acc += float64(sum[0])
	c.sink += acc // kept, so the work cannot be optimised away
}

// calReps is how many times a calibration runs the job on each thread.
const calReps = 5

// calibrate runs the job calReps times on each calibrator's goroutine at
// once, one per thread the load uses, and returns the median run: a run
// meets the host's jitter as often as a request does, so the median slows
// with it as the load does.
func calibrate(cs []*calibrator) time.Duration {
	ds := make([]time.Duration, len(cs)*calReps)
	var wg sync.WaitGroup
	for g, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < calReps; r++ {
				start := time.Now()
				c.job()
				ds[g*calReps+r] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	slices.Sort(ds)
	return ds[len(ds)/2]
}
