package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fingerprint renders everything a seed decides: the prior pool, the first
// sessions' create bodies and their crowd answers.
func fingerprint(t *testing.T, w workload, seed int64) []byte {
	t.Helper()
	pool := independentPriors(w.Facts, seed)
	type session struct {
		Req     any
		Answers []bool
		Workers []string
	}
	var sessions []session
	for i := 0; i < 4; i++ {
		s := session{Req: createRequest(w, pool, seed, i)}
		sim := newCrowd(w, pool, seed, i)
		for task := 0; task < 8; task++ {
			a, wk := sim.judge(task)
			s.Answers = append(s.Answers, a)
			s.Workers = append(s.Workers, wk)
		}
		sessions = append(sessions, s)
	}
	b, err := json.Marshal(struct {
		Pool     []prior
		Sessions []session
	}{pool, sessions})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, b := fingerprint(t, w, 42), fingerprint(t, w, 42)
			if !bytes.Equal(a, b) {
				t.Fatal("one seed generated different inputs")
			}
			if bytes.Equal(a, fingerprint(t, w, 43)) {
				t.Fatal("two seeds generated identical inputs")
			}
		})
	}
}

func TestSessionSeedsNonZeroAndDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for _, seed := range []int64{0, 1, -1} {
		for i := 0; i < 1000; i++ {
			s := sessionSeed(seed, i)
			if s == 0 || seen[s] {
				t.Fatalf("sessionSeed(%d, %d) = %d repeats or is zero", seed, i, s)
			}
			seen[s] = true
		}
	}
}
