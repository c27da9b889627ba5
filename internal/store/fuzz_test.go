package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzFileLogReplay feeds arbitrary bytes to the file store as a session's
// op log behind a valid snapshot (with or without an open pending ledger).
// Get must never panic or fail, must return a record that passes validate,
// must truncate the log to a prefix that refolds to the same record, and
// the next in-order Append must succeed and read back.
func FuzzFileLogReplay(f *testing.F) {
	for _, seed := range []struct {
		log    string
		ledger bool
	}{
		{"", false},
		{`{"op":"merge","version":2,"tasks":[0,1],"answers":[true,false],"time":"1970-01-01T00:33:20Z"}` + "\n", false},
		{`{"op":"merge","version":2,"tasks":[1,0],"answers":[false,true],"workers":["w1","w2"],"sources":["mturk",""]}` + "\n", false},
		{`{"op":"done","version":2}` + "\n", false},
		{`{"op":"partial","version":2,"tasks":[1],"answers":[true],"batch":[0,1,2],"workers":["w1"]}` + "\n" +
			`{"op":"partial","version":2,"tasks":[0],"answers":[false],"batch":[0,1,2]}` + "\n", false},
		{`{"op":"partial","version":2,"tasks":[2],"answers":[true],"batch":[0,1,2],"workers":["w3"]}` + "\n" +
			`{"op":"merge","version":2,"tasks":[0,1,2],"answers":[true,true,true],"workers":["w1","w2","w3"]}` + "\n", true},
		{`{"op":"observe","version":2,"tasks":[0,1],"answers":[true,false],"workers":["w1","w2"]}` + "\n" +
			`{"op":"merge","version":2,"tasks":[0,1],"answers":[true,false]}` + "\n", false},
		{`{"op":"observe","version":2,"seq":5,"tasks":[1],"answers":[true],"workers":["w9"]}` + "\n", false},
		{`{"op":"merge","version":2,"tasks":[0,1],"answers":[true,false],"workers":["w1"]}` + "\n", false},
		{`{"op":"merge","version":2,"tasks":[0],"answers":[true],"workers":[""]}` + "\n", false},
		{`{"op":"partial","version":2,"tasks":[0],"answers":[true],"batch":[0,1,2],"workers":["w1","w2"]}` + "\n", true},
		{`{"op":"merge","version":1,"tasks":[0],"answers":[true]}` + "\n" + `{"op":"merge","version":9,"tasks":[0],"answers":[true]}` + "\n", false},
		{`{"op":"merge","version":2,"tasks":[0],"ans`, false},
		{"not json\n", true},
	} {
		f.Add([]byte(seed.log), seed.ledger)
	}
	f.Fuzz(func(t *testing.T, log []byte, ledger bool) {
		dir := t.TempDir()
		rec := testRecord("sess-fuzz")
		if ledger {
			rec.WorkerModel = "em"
			rec.PendingBatch = []int{0, 1, 2}
			rec.PendingTasks = []int{1}
			rec.PendingAnswers = []bool{true}
			rec.Observations = []Observation{{Task: 1, Answer: true, Worker: "w1", Version: 2}}
		}
		if err := reopen(t, dir, 0).Put(rec); err != nil {
			t.Fatal(err)
		}
		logPath := filepath.Join(dir, rec.ID+".log")
		if err := os.WriteFile(logPath, log, 0o644); err != nil {
			t.Fatal(err)
		}

		got, err := reopen(t, dir, 0).Get(rec.ID)
		if err != nil {
			t.Fatalf("Get over a valid snapshot: %v", err)
		}
		if err := got.validate(); err != nil {
			t.Fatalf("replayed record fails validate: %v", err)
		}
		kept, err := os.ReadFile(logPath)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(log, kept) || (len(kept) > 0 && kept[len(kept)-1] != '\n') {
			t.Fatalf("log not truncated to a whole-line prefix: kept %q of %q", kept, log)
		}
		fs := reopen(t, dir, 0)
		again, err := fs.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("truncated log refolds differently:\n got %+v\nwant %+v", again, got)
		}
		if after, _ := os.ReadFile(logPath); !bytes.Equal(after, kept) {
			t.Fatalf("a clean log was truncated again: %q -> %q", kept, after)
		}

		next := Op{Kind: OpMerge, Version: len(got.Ops), Tasks: []int{0}, Answers: []bool{true}, Workers: []string{"wf"}}
		if err := fs.Append(rec.ID, next); err != nil {
			t.Fatalf("in-order append after replay: %v", err)
		}
		back, err := reopen(t, dir, 0).Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		wantObs := append(append([]Observation(nil), got.Observations...), next.Observations(got.PendingTasks)...)
		if len(back.Ops) != len(got.Ops)+1 || back.PendingBatch != nil ||
			!reflect.DeepEqual(append([]Observation(nil), back.Observations...), wantObs) {
			t.Fatalf("appended merge did not read back: %d ops, %+v, ledger %v",
				len(back.Ops), back.Observations, back.PendingBatch)
		}
	})
}
