package service

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"crowdfusion/internal/store"
)

// errRefused is the failure journalProbe injects.
var errRefused = errors.New("journal probe: append refused")

// journalProbe wraps a store, recording every Append it is asked for and
// refusing ops of kind refuse ("" refuses none) without passing them on.
type journalProbe struct {
	store.SessionStore

	mu      sync.Mutex
	appends []store.Op
	refuse  string
}

func (p *journalProbe) Append(id string, op store.Op) error {
	p.mu.Lock()
	p.appends = append(p.appends, op)
	refused := op.Kind == p.refuse
	p.mu.Unlock()
	if refused {
		return errRefused
	}
	return p.SessionStore.Append(id, op)
}

func (p *journalProbe) setRefuse(kind string) {
	p.mu.Lock()
	p.refuse = kind
	p.mu.Unlock()
}

// since returns the appends recorded after the first n.
func (p *journalProbe) since(n int) []store.Op {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]store.Op(nil), p.appends[n:]...)
}

func (p *journalProbe) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.appends)
}

func sessionObservations(s *Session) []store.Observation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]store.Observation{}, s.observations...)
}

// TestRefusedSubmissionLeavesObservationsUnchanged: a batch merge or a
// partial the store refuses (ErrStore) leaves the observation log exactly
// as it was — in memory, in the store, and after a restart — so refused
// judgments never feed a later refit. A corrected resubmission then
// records only its own judgments.
func TestRefusedSubmissionLeavesObservationsUnchanged(t *testing.T) {
	for _, model := range []string{WorkerModelEM, WorkerModelDawidSkene} {
		t.Run(model, func(t *testing.T) {
			dir := t.TempDir()
			now := time.Unix(1000, 0).UTC()
			fs, err := store.NewFile(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			probe := &journalProbe{SessionStore: fs}
			m := NewManager(ManagerConfig{Store: probe, now: func() time.Time { return now }})
			defer m.Close()
			s, err := m.Create(context.Background(), workerCreateReq(6, model))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()

			// One committed round gives the refits evidence.
			sel, _, err := s.Select(ctx, now, 0)
			if err != nil {
				t.Fatal(err)
			}
			v := sel.Version
			first := &AnswersRequest{Version: &v, Judgments: judge(sel.Tasks, []bool{true, false}, []string{"w1", "w2"})}
			if resp, err := s.Merge(ctx, now, first); err != nil || !resp.Merged {
				t.Fatalf("first round: %+v, %v", resp, err)
			}
			before := sessionObservations(s)
			beforeInfo := s.Info(now, false)
			requireObservations := func(stage string, want []store.Observation) {
				t.Helper()
				if got := sessionObservations(s); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: in-memory observations\n got %+v\nwant %+v", stage, got, want)
				}
				rec, err := probe.Get(s.ID())
				if err != nil {
					t.Fatal(err)
				}
				if got := append([]store.Observation{}, rec.Observations...); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: stored observations\n got %+v\nwant %+v", stage, got, want)
				}
			}

			sel, _, err = s.Select(ctx, now, 0)
			if err != nil {
				t.Fatal(err)
			}
			v = sel.Version
			wrong := &AnswersRequest{Version: &v, Judgments: judge(sel.Tasks, []bool{false, false}, []string{"w1", "w3"})}
			probe.setRefuse(store.OpMerge)
			if _, err := s.Merge(ctx, now, wrong); !errors.Is(err, ErrStore) {
				t.Fatalf("refused merge: err = %v, want ErrStore", err)
			}
			requireObservations("refused merge", before)

			probe.setRefuse(store.OpPartial)
			partial := &AnswersRequest{Version: &v, Partial: true, Judgments: judge(sel.Tasks[:1], []bool{false}, []string{"w3"})}
			if _, err := s.Merge(ctx, now, partial); !errors.Is(err, ErrStore) {
				t.Fatalf("refused partial: err = %v, want ErrStore", err)
			}
			requireObservations("refused partial", before)
			if got := s.Info(now, false); !reflect.DeepEqual(got, beforeInfo) {
				t.Fatalf("refused submissions changed the session:\n got %+v\nwant %+v", got, beforeInfo)
			}

			// Restart over the same directory: nothing refused was journaled.
			m2 := newFileManager(t, dir, ManagerConfig{now: func() time.Time { return now }})
			s2, err := m2.Get(ctx, s.ID())
			if err != nil {
				t.Fatal(err)
			}
			if got := sessionObservations(s2); !reflect.DeepEqual(got, before) {
				t.Fatalf("restart: observations\n got %+v\nwant %+v", got, before)
			}
			m2.Close()

			probe.setRefuse("")
			corrected := &AnswersRequest{Version: &v, Judgments: judge(sel.Tasks, []bool{true, true}, []string{"w1", "w3"})}
			if resp, err := s.Merge(ctx, now, corrected); err != nil || !resp.Merged {
				t.Fatalf("corrected resubmission: %+v, %v", resp, err)
			}
			want := append(append([]store.Observation{}, before...),
				store.Observation{Task: sel.Tasks[0], Answer: true, Worker: "w1", Version: v, Time: now},
				store.Observation{Task: sel.Tasks[1], Answer: true, Worker: "w3", Version: v, Time: now},
			)
			requireObservations("corrected resubmission", want)
		})
	}
}

// TestOneAppendPerSubmission: every state-changing answers submission —
// fixed or worker-model session, legacy arrays or judgments, batch or
// partial — journals exactly one op, and an idempotent replay journals
// none.
func TestOneAppendPerSubmission(t *testing.T) {
	for _, model := range []string{WorkerModelFixed, WorkerModelEM, WorkerModelDawidSkene} {
		for _, form := range []string{"legacy", "judgments"} {
			t.Run(model+"/"+form, func(t *testing.T) {
				now := time.Unix(1000, 0).UTC()
				probe := &journalProbe{SessionStore: store.NewMemory()}
				m := NewManager(ManagerConfig{Store: probe, now: func() time.Time { return now }})
				defer m.Close()
				s, err := m.Create(context.Background(), workerCreateReq(6, model))
				if err != nil {
					t.Fatal(err)
				}
				// Unattributed judgments on a fixed session carry no workers;
				// everything else is attributed (em/dawid-skene attribute
				// legacy arrays to the anonymous worker).
				attributed := model != WorkerModelFixed || form == "judgments"
				submit := func(stage string, tasks []int, partial bool, version int, wantKind string) {
					t.Helper()
					answers := make([]bool, len(tasks))
					for i, f := range tasks {
						answers[i] = f%2 == 0
					}
					req := &AnswersRequest{Version: &version, Partial: partial}
					if form == "legacy" {
						req.Tasks, req.Answers = tasks, answers
					} else {
						workers := make([]string, len(tasks))
						for i := range workers {
							workers[i] = "w1"
						}
						req.Judgments = judge(tasks, answers, workers)
					}
					n := probe.count()
					if _, err := s.Merge(context.Background(), now, req); err != nil {
						t.Fatalf("%s: %v", stage, err)
					}
					ops := probe.since(n)
					if wantKind == "" {
						if len(ops) != 0 {
							t.Fatalf("%s: idempotent replay journaled %+v", stage, ops)
						}
						return
					}
					if len(ops) != 1 || ops[0].Kind != wantKind || (len(ops[0].Workers) > 0) != attributed {
						t.Fatalf("%s: journaled %+v, want one %s op (attributed=%v)", stage, ops, wantKind, attributed)
					}
				}
				selectBatch := func() *SelectResponse {
					t.Helper()
					sel, _, err := s.Select(context.Background(), now, 0)
					if err != nil || len(sel.Tasks) != 2 {
						t.Fatalf("select: %+v, %v", sel, err)
					}
					return sel
				}

				sel := selectBatch()
				submit("batch", sel.Tasks, false, sel.Version, store.OpMerge)
				submit("batch replay", sel.Tasks, false, sel.Version, "")

				sel = selectBatch()
				submit("first partial", sel.Tasks[:1], true, sel.Version, store.OpPartial)
				submit("partial replay", sel.Tasks[:1], true, sel.Version, "")
				submit("completing partial", sel.Tasks[1:], true, sel.Version, store.OpMerge)
				submit("committed prefix replay", sel.Tasks[:1], true, sel.Version, "")
			})
		}
	}
}
