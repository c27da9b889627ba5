package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"crowdfusion/internal/service"
)

// smokeBench is a one-session version of workload w: the quality set is
// session 0, and the phase stops as soon as it is done.
func smokeBench(t *testing.T, w workload) (*bench, *bytes.Buffer) {
	t.Helper()
	w.Quality = 1
	var log bytes.Buffer
	return &bench{w: w, seed: 5, out: &log, log: &log}, &log
}

// TestSmoke runs one session of each workload through every check: the
// correctness replay (fixed-model workloads) and exact repetition of the
// quality numbers across a bare and an instrumented phase. The replay must
// also catch a tampered record.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			b, log := smokeBench(t, w)
			var outs []*phaseOut
			for _, p := range []probe{bare, instruments} {
				pool, srv, err := b.setup(p)
				if err != nil {
					t.Fatal(err)
				}
				ph, err := b.phase(pool, srv, 1e-9, need{})
				if err != nil {
					t.Fatal(err)
				}
				if ph.failures != 0 {
					t.Fatalf("probe %d: %d failures:\n%s", p, ph.failures, log)
				}
				r := ph.load.recs[0]
				if r.Failed || len(r.Rounds) == 0 || !r.Done {
					t.Fatalf("session 0: failed=%v rounds=%d done=%v", r.Failed, len(r.Rounds), r.Done)
				}
				outs = append(outs, ph)
			}
			if math.Float64bits(outs[0].f1) != math.Float64bits(outs[1].f1) ||
				math.Float64bits(outs[0].bits) != math.Float64bits(outs[1].bits) {
				t.Fatalf("quality did not repeat: f1 %v/%v bits %v/%v", outs[0].f1, outs[1].f1, outs[0].bits, outs[1].bits)
			}
			lt := outs[1].layers
			if lt == nil || len(lt.sel) == 0 || len(lt.merge) == 0 {
				t.Fatal("the instrumented phase replayed no layer timings")
			}
			if refits := len(lt.refit) > 0; refits != (w.Model != service.WorkerModelFixed) {
				t.Fatalf("%s sessions: replayed refits %v", w.Model, refits)
			}

			pool := independentPriors(b.w.Facts, b.seed)
			tampered := *outs[1].load.recs[0]
			tampered.Last.Marginals = append([]float64(nil), tampered.Last.Marginals...)
			tampered.Last.Marginals[0] = math.Nextafter(tampered.Last.Marginals[0], 2)
			recs := []*sessionRec{&tampered}
			if w.Model == service.WorkerModelFixed {
				if res, _ := replay(b.w, pool, recs, true, false); res.failures == 0 {
					t.Error("the correctness replay accepted a tampered final marginal")
				}
			}
		})
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func reportNames(r *report) []string {
	var names []string
	for n, m := range r.Metrics {
		names = append(names, n+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("reported %v\nBENCHMARK.json declares %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reported %v\nBENCHMARK.json declares %v", got, want)
		}
	}
}

// TestReportsDeclaredMetrics checks that both passes print exactly the
// metrics, with the units, that BENCHMARK.json declares.
func TestReportsDeclaredMetrics(t *testing.T) {
	w, err := findWorkload("crowd-stream")
	if err != nil {
		t.Fatal(err)
	}
	b, log := smokeBench(t, w)
	b.w.Quality = 60
	rep, err := b.measured(1e-9)
	if err != nil {
		t.Fatalf("%v\n%s", err, log)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("measured pass incorrect:\n%s", log)
	}
	sameNames(t, reportNames(rep), benchmarkNames(t, "end_to_end"))

	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			b, log := smokeBench(t, w)
			b.w.Quality = 4 // enough replayed rounds for the layer p50s
			rep, err := b.traced(1e-9)
			if err != nil {
				t.Fatalf("%v\n%s", err, log)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced pass incorrect:\n%s", log)
			}
			sameNames(t, reportNames(rep), benchmarkNames(t, "per_layer"))
		})
	}
}
