package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"crowdfusion/internal/store"
)

// journalV1 holds session files written by the previous journal format,
// where an attributed submission journaled an observe op ahead of its
// merge or partial op. expected.json records, per session, the state that
// format's own replay restored, as float64 bits:
//
//   - em-ledger: two attributed batch merges and an attributed partial in
//     flight;
//   - ds-cut: a dawid-skene log cut after an observe op whose merge was
//     lost;
//   - em-compacted: three rounds compacted into the snapshot, an attributed
//     partial in the log;
//   - fixed-legacy: unattributed parallel-array merges and a partial.
const journalV1 = "testdata/journal-v1"

// goldenWorker is one worker's smoothed channel and raw accuracy, as bits.
type goldenWorker struct {
	Sens uint64 `json:"sens"`
	Spec uint64 `json:"spec"`
	Raw  uint64 `json:"raw"`
}

// goldenPending is the in-flight ledger, with the provisional posterior's
// probabilities as bits.
type goldenPending struct {
	Batch       []int          `json:"batch"`
	Tasks       []int          `json:"tasks"`
	Answers     []bool         `json:"answers"`
	Workers     map[int]string `json:"workers,omitempty"`
	TaskEntropy uint64         `json:"task_entropy"`
	Provisional []uint64       `json:"provisional"`
}

// goldenState is everything replay must reproduce bit for bit.
type goldenState struct {
	Version      int                     `json:"version"`
	Spent        int                     `json:"spent"`
	Done         bool                    `json:"done"`
	Worlds       []uint64                `json:"worlds"`
	Probs        []uint64                `json:"probs"`
	Pending      *goldenPending          `json:"pending,omitempty"`
	Observations []store.Observation     `json:"observations"`
	Refits       int                     `json:"refits"`
	Workers      map[string]goldenWorker `json:"workers,omitempty"`
}

func bitsOf(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

func captureGolden(s *Session) goldenState {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := goldenState{
		Version:      s.version,
		Spent:        s.spent,
		Done:         s.done,
		Probs:        bitsOf(s.posterior.Probs()),
		Observations: append([]store.Observation{}, s.observations...),
		Refits:       s.refits,
	}
	for _, w := range s.posterior.Worlds() {
		g.Worlds = append(g.Worlds, uint64(w))
	}
	if s.pendBatch != nil {
		p := &goldenPending{
			Batch:       append([]int(nil), s.pendBatch...),
			TaskEntropy: math.Float64bits(s.pendTaskH),
			Provisional: bitsOf(s.pendPost.Probs()),
		}
		for _, t := range s.pendBatch {
			if a, ok := s.pendAns[t]; ok {
				p.Tasks = append(p.Tasks, t)
				p.Answers = append(p.Answers, a)
			}
		}
		if len(s.pendWorkers) > 0 {
			p.Workers = make(map[int]string, len(s.pendWorkers))
			for t, w := range s.pendWorkers {
				p.Workers[t] = w
			}
		}
		g.Pending = p
	}
	if len(s.workerSens) > 0 {
		g.Workers = make(map[string]goldenWorker, len(s.workerSens))
		for w, sn := range s.workerSens {
			g.Workers[w] = goldenWorker{
				Sens: math.Float64bits(sn),
				Spec: math.Float64bits(s.workerSpec[w]),
				Raw:  math.Float64bits(s.workerRaw[w]),
			}
		}
	}
	return g
}

// logOps reads a session's op log line by line.
func logOps(t *testing.T, dir, id string) []store.Op {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, id+".log"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var ops []store.Op
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var op store.Op
		if err := json.Unmarshal(sc.Bytes(), &op); err != nil {
			t.Fatalf("log line %q: %v", sc.Text(), err)
		}
		ops = append(ops, op)
	}
	return ops
}

// nextRound submits one new-format round: it completes the pending ledger
// when one is in flight, else selects and answers a whole batch. Judgments
// are attributed unless the session is fixed.
func nextRound(t *testing.T, s *Session, now time.Time) {
	t.Helper()
	info := s.Info(now, false)
	var tasks []int
	if info.Pending != nil {
		tasks = info.Pending.Remaining
	} else {
		sel, _, err := s.Select(context.Background(), now, 0)
		if err != nil || len(sel.Tasks) == 0 {
			t.Fatalf("select: %+v, %v", sel, err)
		}
		tasks = sel.Tasks
	}
	v := info.Version
	req := &AnswersRequest{Version: &v, Partial: info.Pending != nil}
	answers := make([]bool, len(tasks))
	for i, f := range tasks {
		answers[i] = f%3 == 0
	}
	if info.WorkerModel == WorkerModelFixed {
		req.Tasks, req.Answers = tasks, answers
	} else {
		crew := []string{"w3", "w1", "w4"}
		for i, f := range tasks {
			req.Judgments = append(req.Judgments, Judgment{Task: f, Answer: answers[i], Worker: crew[i%len(crew)], Source: "sim"})
		}
	}
	if resp, err := s.Merge(context.Background(), now, req); err != nil || !resp.Merged {
		t.Fatalf("new-format round: %+v, %v", resp, err)
	}
}

// TestJournalV1FixturesReplayBitIdentical restores every old-format
// session bit-identically to what the old format's own replay produced,
// then appends one new-format round onto the legacy log — exactly one op,
// carrying its observations — and checks a restart replays the mixed log
// to the live state bit for bit.
func TestJournalV1FixturesReplayBitIdentical(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(journalV1, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenState
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != 4 {
		t.Fatalf("expected.json names %d sessions, want 4", len(want))
	}
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	cfg := ManagerConfig{now: func() time.Time { return now }}
	for id, exp := range want {
		t.Run(id, func(t *testing.T) {
			dir := t.TempDir()
			for _, ext := range []string{".json", ".log"} {
				b, err := os.ReadFile(filepath.Join(journalV1, id+ext))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, id+ext), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			legacy := logOps(t, dir, id)

			m1 := newFileManager(t, dir, cfg)
			s1, err := m1.Get(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if got := captureGolden(s1); !reflect.DeepEqual(got, exp) {
				t.Fatalf("restored state differs from the old format's replay:\n got %+v\nwant %+v", got, exp)
			}

			nextRound(t, s1, now)
			fixed := s1.Info(now, false).WorkerModel == WorkerModelFixed
			ops := logOps(t, dir, id)
			if len(ops) != len(legacy)+1 {
				t.Fatalf("new round appended %d ops, want 1", len(ops)-len(legacy))
			}
			if op := ops[len(ops)-1]; op.Kind != store.OpMerge || (len(op.Workers) > 0) == fixed {
				t.Fatalf("new round journaled %+v", op)
			}
			live := captureGolden(s1)
			if !fixed && len(live.Observations) == len(exp.Observations) {
				t.Fatal("attributed round recorded no observations")
			}

			// No Close: the restart sees only what was fsynced.
			m2 := newFileManager(t, dir, cfg)
			defer m2.Close()
			s2, err := m2.Get(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if got := captureGolden(s2); !reflect.DeepEqual(got, live) {
				t.Fatalf("mixed-log replay differs from the live session:\n got %+v\nwant %+v", got, live)
			}
		})
	}
}
