package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"
)

// createConcurrencySessions creates n sessions over HTTP on distinct
// independent priors, mixing pc and k, and returns their ids.
func createConcurrencySessions(t *testing.T, url string, n int) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	pcs := []float64{0.7, 0.8, 0.9}
	ks := []int{2, 3, 4}
	ids := make([]string, n)
	for i := range ids {
		m := make([]float64, 10)
		for f := range m {
			m[f] = 0.2 + 0.6*rng.Float64()
		}
		req := &CreateSessionRequest{
			Marginals: m,
			Selector:  "Approx+Prune+Pre",
			Pc:        pcs[i%len(pcs)],
			K:         ks[i%len(ks)],
			Budget:    1 << 30,
		}
		var info SessionInfo
		if s := doJSON(t, http.MethodPost, url+"/v1/sessions", req, &info); s != http.StatusCreated {
			t.Fatalf("create status %d", s)
		}
		ids[i] = info.ID
	}
	return ids
}

// sequentialSelect is the batch a session's own selector computes on its
// current posterior, with no server in the way.
func sequentialSelect(t *testing.T, svc *Server, id string) []int {
	t.Helper()
	s, err := svc.mgr.Get(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := s.selector.Select(s.Posterior(), s.k, s.pc)
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

// postSelect issues POST …/select without touching t, so handler
// goroutines can report failures through t.Error.
func postSelect(url, id string) (SelectResponse, error) {
	var sel SelectResponse
	resp, err := http.Post(url+"/v1/sessions/"+id+"/select", "application/json", nil)
	if err != nil {
		return sel, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sel, fmt.Errorf("select status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&sel)
	return sel, err
}

// TestConcurrentSelectBitIdentical: concurrent POST …/select requests on
// different sessions each return exactly the batch the session's own
// selector computes sequentially. Under -race this checks that the
// off-lock sweeps share no mutable state across handler goroutines.
func TestConcurrentSelectBitIdentical(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxConcurrent: 16})
	ids := createConcurrencySessions(t, ts.URL, 12)
	want := make([][]int, len(ids))
	for i, id := range ids {
		want[i] = sequentialSelect(t, svc, id)
	}

	for rep := 0; rep < 3; rep++ {
		for _, id := range ids {
			s, err := svc.mgr.Get(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			s.sel = nil // defeat the cache so every rep recomputes
			s.mu.Unlock()
		}
		var wg sync.WaitGroup
		got := make([]SelectResponse, len(ids))
		errs := make([]error, len(ids))
		for i, id := range ids {
			wg.Add(1)
			go func(i int, id string) {
				defer wg.Done()
				got[i], errs[i] = postSelect(ts.URL, id)
			}(i, id)
		}
		wg.Wait()
		for i := range ids {
			if errs[i] != nil {
				t.Fatalf("rep %d session %d: %v", rep, i, errs[i])
			}
			if got[i].Cached {
				t.Fatalf("rep %d session %d: served from cache, want a fresh sweep", rep, i)
			}
			if !reflect.DeepEqual(got[i].Tasks, want[i]) {
				t.Fatalf("rep %d session %d: concurrent select %v != sequential %v",
					rep, i, got[i].Tasks, want[i])
			}
		}
	}
}

// TestConcurrentSelectSameSession checks concurrent selects against ONE
// session: every caller gets the same batch at the same version, whether
// it computed the sweep itself or was served the cache a concurrent
// request committed.
func TestConcurrentSelectSameSession(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxConcurrent: 16})
	id := createConcurrencySessions(t, ts.URL, 1)[0]
	want := sequentialSelect(t, svc, id)

	const callers = 8
	var wg sync.WaitGroup
	resps := make([]SelectResponse, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = postSelect(ts.URL, id)
		}(i)
	}
	wg.Wait()
	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(resp.Tasks, want) || resp.Version != 0 {
			t.Fatalf("caller %d: got %v at v%d, want %v at v0", i, resp.Tasks, resp.Version, want)
		}
	}
}
