// Command e2ebench is crowdfusion's end-to-end benchmark. One process
// starts service.NewServer over a store.SessionStore and drives full
// refinement rounds through the Go client over loopback HTTP (create,
// then select and answers until done) as a closed loop of two clients.
// It prints every metric by name and unit and, as its last line, one JSON
// object with the run's outcome and metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"crowdfusion/internal/service"
)

// setupReps is how many times a measured run sets up; setup_s is the
// median.
const setupReps = 31

// watchdog bounds the whole process.
const watchdog = 175 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the machine-readable result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: crowd-stream or dense-kernel")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "length of the timed window in seconds")
	traced := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintln(stderr, "e2ebench: watchdog: run exceeded", watchdog)
		os.Exit(1)
	})
	defer timer.Stop()

	// The closed loop is two clients; the process uses at most as many
	// threads as the machine has, and no more than the loop's width.
	runtime.GOMAXPROCS(min(clients, runtime.NumCPU()))

	b := &bench{w: w, seed: *seed, out: stdout, log: stderr}
	var rep *report
	if *traced == 1 {
		rep, err = b.traced(*seconds)
	} else {
		rep, err = b.measured(*seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs one workload at one seed.
type bench struct {
	w    workload
	seed int64
	out  io.Writer
	log  io.Writer
}

// phaseOut is one timed phase with its checks.
type phaseOut struct {
	load         *loadResult
	failures     int // failed ops plus check mismatches
	f1, bits     float64
	allocKB      float64 // per round
	gcPerKRound  float64
	metrics      map[string]float64
	layers       *layerTimes
	store        *timedStore
	handler      *handlerTimer
	qualityRound int // rounds committed by the quality set
}

// setup generates the inputs and starts a server carrying probe p.
func (b *bench) setup(p probe) ([]prior, *server, error) {
	pool := independentPriors(b.w.Facts, b.seed)
	srv, err := startServer(p)
	if err != nil {
		return nil, nil, err
	}
	return pool, srv, nil
}

// phase runs the closed loop against srv, closes it, and runs every check.
func (b *bench) phase(pool []prior, srv *server, seconds float64, n need) (*phaseOut, error) {
	ctx := context.Background()
	instrumented := srv.handler != nil
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	verify := b.w.Model == service.WorkerModelFixed
	load, err := drive(ctx, b.w, pool, b.seed, srv, seconds, n, verify || instrumented)
	if err != nil {
		srv.close()
		return nil, err
	}
	runtime.ReadMemStats(&after)
	out := &phaseOut{load: load, failures: load.failed, store: srv.store, handler: srv.handler}
	for _, e := range load.errs {
		fmt.Fprintln(b.log, "e2ebench: op failed:", e)
	}
	if load.rounds == 0 {
		srv.close()
		return nil, fmt.Errorf("no round committed")
	}
	out.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(load.rounds)
	out.gcPerKRound = float64(after.NumGC-before.NumGC) * 1000 / float64(load.rounds)
	if instrumented {
		if out.metrics, err = scrapeMetrics(ctx, srv.base); err != nil {
			srv.close()
			return nil, err
		}
	}
	if err := srv.close(); err != nil {
		return nil, err
	}

	// Untimed checks.
	if verify || instrumented {
		res, lt := replay(b.w, pool, load.recs, verify, instrumented)
		if verify {
			b.note("replay", res)
		}
		out.failures += res.failures
		out.layers = lt
	}
	if out.f1, out.bits, err = quality(b.w, pool, load.recs); err != nil {
		return nil, err
	}
	for _, r := range load.recs[:b.w.Quality] {
		out.qualityRound += len(r.Rounds)
	}
	return out, nil
}

// note prints a check's outcome.
func (b *bench) note(name string, c *checkResult) {
	if c.failures == 0 {
		fmt.Fprintf(b.out, "check %-10s ok\n", name)
		return
	}
	fmt.Fprintf(b.out, "check %-10s FAILED: %d mismatches\n", name, c.failures)
	for _, m := range c.msgs {
		fmt.Fprintln(b.out, "  ", m)
	}
}

// measured is the untraced run: setup several times, one timed phase, the
// end-to-end metrics. Every timing is scaled to the calibration's
// reference speed (calib.go).
func (b *bench) measured(seconds float64) (*report, error) {
	var setups []float64
	var pool []prior
	var srv *server
	cals := make([]*calibrator, clients)
	for i := range cals {
		cals[i] = newCalibrator()
	}
	// A set-up takes a millisecond, and all of them a fraction of a
	// second, in which the host's speed holds: every set-up is scaled by
	// the median of the calibrations around them.
	setupCals := []float64{float64(calibrate(cals))}
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		p, s, err := b.setup(bare)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		setupCals = append(setupCals, float64(calibrate(cals)))
		if rep < setupReps-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
			continue
		}
		pool, srv = p, s
	}
	ph, err := b.phase(pool, srv, seconds, need{ops: minSamples(990), creates: minSamples(500)})
	if err != nil {
		return nil, err
	}
	l := ph.load
	rep := &report{Attempted: l.attempted, Failed: ph.failures, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64, note string) {
		rep.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(b.out, "%-14s %12.6f %-5s %s\n", name, v, unit, note)
	}
	chunks := func(n int, vals []float64) string {
		s := fmt.Sprintf("n=%d, median of", n)
		for _, v := range vals {
			s += fmt.Sprintf(" %.4g", v)
		}
		return s
	}
	raw := unscaled(l)
	// pct reports percentile pm of xs as metric name, or with report
	// unset only prints it.
	pct := func(name string, xs []sample, pm int, report bool) error {
		v, vals, err := chunkedPercentile(scaled(xs, l), pm)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r, _, err := chunkedPercentile(scaled(xs, raw), pm)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		note := fmt.Sprintf("unscaled %.4g; %s", r, chunks(len(xs), vals))
		if !report {
			fmt.Fprintf(b.out, "%-14s %12.6f %-5s %s (printed, not reported)\n", name, v, "ms", note)
			return nil
		}
		put(name, "ms", v, note)
		return nil
	}
	fmt.Fprintf(b.out, "workload %s seed %d: %d sessions, %d rounds in %.3fs, closed loop of %d clients\n",
		b.w.Name, b.seed, len(l.recs), l.rounds, l.elapsed.Seconds(), clients)
	var calMS []float64
	for _, m := range l.marks {
		calMS = append(calMS, float64(m.cal.Nanoseconds())/1e6)
	}
	slices.Sort(calMS)
	fmt.Fprintf(b.out, "calibration    %d runs, min %.4f median %.4f max %.4f ms (reference %v); timings below are scaled to the reference\n",
		len(calMS), calMS[0], median(calMS), calMS[len(calMS)-1], calRef)
	setupScale := float64(calRef) / median(setupCals)
	for i := range setups {
		setups[i] *= setupScale
	}
	put("setup_s", "s", median(slices.Clone(setups)), fmt.Sprintf("scaled by %.4g; %s", setupScale, chunks(len(setups), setups)))
	rate, rates := throughput(l.round, l)
	rawRate, _ := throughput(l.round, raw)
	put("rounds_per_s", "1/s", rate, fmt.Sprintf("unscaled %.4g; %s", rawRate, chunks(l.rounds, rates)))
	for _, p := range []struct {
		name   string
		xs     []sample
		pm     int
		report bool
	}{
		{"round_p50_ms", l.round, 500, true}, {"round_p90_ms", l.round, 900, true}, {"round_p99_ms", l.round, 990, false},
		{"select_p50_ms", l.sel, 500, true}, {"select_p90_ms", l.sel, 900, true}, {"select_p99_ms", l.sel, 990, false},
		{"answer_p50_ms", l.answer, 500, true}, {"answer_p90_ms", l.answer, 900, true}, {"answer_p99_ms", l.answer, 990, false},
		{"create_p50_ms", l.create, 500, true},
	} {
		if err := pct(p.name, p.xs, p.pm, p.report); err != nil {
			return nil, err
		}
	}
	put("success_rate", "ratio", 1-float64(l.failed)/float64(l.attempted), fmt.Sprintf("%d ops", l.attempted))
	put("f1", "ratio", ph.f1, fmt.Sprintf("%d quality-set sessions", b.w.Quality))
	put("bits_per_task", "bit", ph.bits, fmt.Sprintf("%d quality-set sessions", b.w.Quality))
	put("rss_peak_mb", "MB", l.rssMB, "VmHWM at the end of the window; server and load generator share the process")
	rep.Correct = ph.failures == 0
	return rep, nil
}

// traced is the per-layer run: three phases of a third of the window
// each, on the same seed, whose quality must repeat exactly. The bare
// phase gives the runtime counters; the instruments phase gives every
// other layer metric; the spans phase differs from it only in recording
// spans, and the difference in round p50 is the tracing overhead.
func (b *bench) traced(seconds float64) (*report, error) {
	third := need{ops: minSamples(500), creates: minSamples(500)}
	var phases [3]*phaseOut
	for i, p := range []probe{bare, instruments, spans} {
		pool, srv, err := b.setup(p)
		if err != nil {
			return nil, err
		}
		if phases[i], err = b.phase(pool, srv, seconds/3, third); err != nil {
			return nil, err
		}
	}
	plain, instr, traced := phases[0], phases[1], phases[2]
	rep := &report{Metrics: map[string]metric{}}
	repeats := true
	for _, ph := range phases {
		rep.Attempted += ph.load.attempted
		rep.Failed += ph.failures
		if math.Float64bits(ph.f1) != math.Float64bits(plain.f1) || math.Float64bits(ph.bits) != math.Float64bits(plain.bits) {
			fmt.Fprintf(b.out, "check quality    FAILED: f1 %v then %v, bits %v then %v on one seed\n",
				plain.f1, ph.f1, plain.bits, ph.bits)
			rep.Failed++
			repeats = false
		}
	}
	if repeats {
		fmt.Fprintln(b.out, "check quality    ok (repeats exactly)")
	}
	var overhead float64
	if p0, _, err := chunkedPercentile(scaled(instr.load.round, instr.load), 500); err != nil {
		return nil, fmt.Errorf("round p50 without spans: %w", err)
	} else if p1, _, err := chunkedPercentile(scaled(traced.load.round, traced.load), 500); err != nil {
		return nil, fmt.Errorf("round p50 with spans: %w", err)
	} else {
		overhead = (p1 - p0) * 1e3
	}
	m, err := layerMetrics(b.w, plain, instr, overhead)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b.out, "%-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	rep.Metrics = m
	rep.Correct = rep.Failed == 0
	return rep, nil
}
