package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var obsTime = time.Unix(2000, 0).UTC()

// attributed builds a merge or partial op whose judgments are attributed
// to workers (sources optional).
func attributed(kind string, v int, tasks []int, answers []bool, workers, sources []string) Op {
	return Op{
		Kind: kind, Version: v,
		Tasks: tasks, Answers: answers, Workers: workers, Sources: sources,
		Time: obsTime,
	}
}

// legacyObserveLine renders an observe op as an older binary journaled it.
const legacyObserveLine = `{"op":"observe","version":2,"tasks":[0,1],"answers":[true,false],"workers":["w1","w2"],"sources":["mturk","mturk"],"time":"1970-01-01T00:33:20Z"}` + "\n"

// TestConformanceObserveFoldsIntoGet: an attributed merge op folds its
// judgments into the record's observations, in op order, and advances the
// version exactly once — the observations ride in the op that commits them.
func TestConformanceObserveFoldsIntoGet(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := testRecord("sess-observe")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		// testRecord has two folded merges, so the live version is 2.
		if err := s.Append(rec.ID, attributed(OpMerge, 2,
			[]int{1, 0, 2}, []bool{false, true, true},
			[]string{"w2", "w1", "w1"}, []string{"mturk", "mturk", ""})); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := []Observation{
			{Task: 1, Answer: false, Worker: "w2", Source: "mturk", Version: 2, Time: obsTime},
			{Task: 0, Answer: true, Worker: "w1", Source: "mturk", Version: 2, Time: obsTime},
			{Task: 2, Answer: true, Worker: "w1", Version: 2, Time: obsTime},
		}
		if !reflect.DeepEqual(got.Observations, want) {
			t.Fatalf("observations:\n got %+v\nwant %+v", got.Observations, want)
		}
		if len(got.Ops) != 3 {
			t.Fatalf("merge folded into %d ops, want 3", len(got.Ops))
		}
		// The attribution lives on in Observations; the folded op keeps
		// only the answer set.
		if m := got.Ops[2]; m.Workers != nil || m.Sources != nil ||
			!reflect.DeepEqual(m.Tasks, []int{1, 0, 2}) {
			t.Fatalf("folded merge op = %+v", m)
		}
		// An unattributed merge records no observation.
		if err := s.Append(rec.ID, Op{Kind: OpMerge, Version: 3, Tasks: []int{0}, Answers: []bool{true}}); err != nil {
			t.Fatal(err)
		}
		got, err = s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Ops) != 4 || len(got.Observations) != 3 {
			t.Fatalf("after unattributed merge: %d ops, %d observations", len(got.Ops), len(got.Observations))
		}
	})
}

// TestConformanceObserveSeqGate: observe ops are legacy and read-only.
// Neither store admits one at Append, whatever its Seq — the observation
// sequence is now fixed by the merge/partial op order alone — and a refused
// observe leaves the record untouched.
func TestConformanceObserveSeqGate(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := testRecord("sess-observe-seq")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		for _, seq := range []int{0, 1} {
			op := attributed(OpObserve, 2, []int{0}, []bool{true}, []string{"w1"}, nil)
			op.Seq = seq
			if err := s.Append(rec.ID, op); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("observe seq %d: err = %v, want ErrCorrupt", seq, err)
			}
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Observations) != 0 || len(got.Ops) != 2 {
			t.Fatalf("refused observe leaked: %d ops, %+v", len(got.Ops), got.Observations)
		}
		// The store still extends in order after the refusals.
		if err := s.Append(rec.ID, attributed(OpMerge, 2, []int{0}, []bool{true}, []string{"w1"}, nil)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConformanceObserveShapeRejected: merge and partial ops with
// malformed attribution — anonymous workers, unpaired workers or sources,
// sources without workers — are corrupt, in both stores.
func TestConformanceObserveShapeRejected(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := testRecord("sess-observe-shape")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		batch := []int{0, 1, 2}
		var bad []Op
		for _, kind := range []string{OpMerge, OpPartial} {
			bad = append(bad,
				attributed(kind, 2, []int{0}, []bool{true}, []string{""}, nil),                  // anonymous
				attributed(kind, 2, []int{0, 1}, []bool{true, false}, []string{"w1"}, nil),      // unpaired workers
				attributed(kind, 2, []int{0}, []bool{true}, []string{"w1"}, []string{"a", "b"}), // unpaired sources
				attributed(kind, 2, []int{0}, []bool{true}, nil, []string{"a"}),                 // sources without workers
				attributed(kind, 2, []int{-1}, []bool{true}, []string{"w1"}, nil),               // negative task
			)
		}
		for i := range bad {
			if bad[i].Kind == OpPartial {
				bad[i].Batch = batch
			}
		}
		for i, op := range bad {
			if err := s.Append(rec.ID, op); !errors.Is(err, ErrCorrupt) {
				t.Errorf("bad op %d (%s): err = %v, want ErrCorrupt", i, op.Kind, err)
			}
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Ops) != 2 || len(got.Observations) != 0 || got.PendingBatch != nil {
			t.Fatalf("refused ops leaked: %d ops, %+v, ledger %v", len(got.Ops), got.Observations, got.PendingBatch)
		}
	})
}

// TestConformanceObserveOrderingWithPartialLedger: during an incremental
// round each partial op records its own judgments; the committing merge
// carries the whole batch but records observations only for the tasks its
// ledger had not yet recorded, in op order. The merge clears the ledger
// but never the observation history.
func TestConformanceObserveOrderingWithPartialLedger(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		rec := testRecord("sess-observe-partial")
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		batch := []int{3, 4, 5, 6}
		p1 := attributed(OpPartial, 2, []int{4}, []bool{true}, []string{"w1"}, nil)
		p1.Batch = batch
		p2 := attributed(OpPartial, 2, []int{3}, []bool{false}, []string{"w2"}, []string{"sim"})
		p2.Batch = batch
		for i, op := range []Op{p1, p2} {
			if err := s.Append(rec.ID, op); err != nil {
				t.Fatalf("partial %d: %v", i, err)
			}
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.PendingTasks, []int{4, 3}) {
			t.Fatalf("ledger = %v", got.PendingTasks)
		}
		if len(got.Observations) != 2 || got.Observations[0].Worker != "w1" ||
			got.Observations[1].Worker != "w2" || got.Observations[1].Source != "sim" {
			t.Fatalf("observations = %+v", got.Observations)
		}
		// The batch completes in one merge op, in batch order.
		if err := s.Append(rec.ID, attributed(OpMerge, 2,
			batch, []bool{false, true, true, false},
			[]string{"w2", "w1", "w3", "w1"}, nil)); err != nil {
			t.Fatal(err)
		}
		got, err = s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.PendingBatch != nil || got.PendingTasks != nil {
			t.Fatalf("merge left a ledger: %v / %v", got.PendingBatch, got.PendingTasks)
		}
		var order []int
		for _, o := range got.Observations {
			order = append(order, o.Task)
		}
		if !reflect.DeepEqual(order, []int{4, 3, 5, 6}) || got.Observations[2].Worker != "w3" {
			t.Fatalf("observations after commit = %+v", got.Observations)
		}
	})
}

// TestConformancePutValidatesObservations: snapshots with corrupt
// observation histories are refused up front.
func TestConformancePutValidatesObservations(t *testing.T) {
	eachStore(t, func(t *testing.T, s SessionStore) {
		for name, obs := range map[string][]Observation{
			"anonymous":          {{Task: 0, Answer: true, Version: 0}},
			"negative task":      {{Task: -1, Answer: true, Worker: "w1", Version: 0}},
			"version beyond ops": {{Task: 0, Answer: true, Worker: "w1", Version: 3}},
			"decreasing versions": {
				{Task: 0, Answer: true, Worker: "w1", Version: 2},
				{Task: 1, Answer: true, Worker: "w1", Version: 1},
			},
		} {
			rec := testRecord("sess-observe-put")
			rec.Observations = obs
			if err := s.Put(rec); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
			}
		}
		// A well-formed history round-trips, including through snapshots.
		rec := testRecord("sess-observe-put")
		rec.WorkerModel = "em"
		rec.Observations = []Observation{
			{Task: 0, Answer: true, Worker: "w1", Source: "sim", Version: 1},
			{Task: 2, Answer: false, Worker: "w2", Version: 2},
		}
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.WorkerModel != "em" || !reflect.DeepEqual(got.Observations, rec.Observations) {
			t.Fatalf("round trip:\n got %q %+v\nwant %q %+v",
				got.WorkerModel, got.Observations, rec.WorkerModel, rec.Observations)
		}
	})
}

// TestFileObserveSurvivesRestart: an attributed op is fsynced before
// Append acknowledges, so its observations survive SIGKILL (simulated by
// reopening the directory without Close).
func TestFileObserveSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fs := reopen(t, dir, 0)
	rec := testRecord("sess-observe-kill")
	if err := fs.Put(rec); err != nil {
		t.Fatal(err)
	}
	p := attributed(OpPartial, 2, []int{0, 2}, []bool{true, false}, []string{"w1", "w2"}, []string{"sim", "sim"})
	p.Batch = []int{0, 1, 2}
	if err := fs.Append(rec.ID, p); err != nil {
		t.Fatal(err)
	}
	// No Close: the reopened store must see the synced log alone.
	got, err := reopen(t, dir, 0).Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Observations) != 2 || got.Observations[1].Worker != "w2" || got.Observations[1].Source != "sim" {
		t.Fatalf("restart lost observations: %+v", got.Observations)
	}
}

// TestFileObserveTornTailRecovers: a log written by an older binary keeps
// folding its observe ops read-only, and a torn, gapped or malformed
// observe line at its tail is truncated like any other bad op — every
// previously acknowledged observation recovers and a fresh attributed
// append extends the repaired log.
func TestFileObserveTornTailRecovers(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail string
	}{
		{"torn observe", `{"op":"observe","version":2,"seq":2,"tasks":[1],"answ`},
		{"gapped seq", `{"op":"observe","version":2,"seq":5,"tasks":[1],"answers":[true],"workers":["w9"]}` + "\n"},
		{"anonymous worker", `{"op":"observe","version":2,"seq":2,"tasks":[1],"answers":[true],"workers":[""]}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := reopen(t, dir, 0)
			rec := testRecord("sess-observe-torn")
			if err := fs.Put(rec); err != nil {
				t.Fatal(err)
			}
			logPath := filepath.Join(dir, rec.ID+".log")
			if err := os.WriteFile(logPath, []byte(legacyObserveLine+tc.tail), 0o644); err != nil {
				t.Fatal(err)
			}

			fs2 := reopen(t, dir, 0)
			got, err := fs2.Get(rec.ID)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if len(got.Observations) != 2 || got.Observations[1].Worker != "w2" || got.Observations[1].Source != "mturk" {
				t.Fatalf("recovered observations: %+v", got.Observations)
			}
			data, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != legacyObserveLine {
				t.Fatalf("bad tail not truncated: %q", data)
			}
			// The tail was repaired: the next attributed merge extends it.
			if err := fs2.Append(rec.ID, attributed(OpMerge, 2,
				[]int{0, 1}, []bool{true, false}, []string{"w1", "w3"}, nil)); err != nil {
				t.Fatal(err)
			}
			got, err = reopen(t, dir, 0).Get(rec.ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Observations) != 4 || len(got.Ops) != 3 || got.Observations[3].Worker != "w3" {
				t.Fatalf("append after repair: %d ops, %+v", len(got.Ops), got.Observations)
			}
		})
	}
}
