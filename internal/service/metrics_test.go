package service

// metrics_test.go — the /metrics exposition contract, checked by parsing
// the output the way a Prometheus scraper would: every sample belongs to a
// family that declared # HELP and # TYPE first, every name is legal, every
// histogram's buckets are cumulative and end at le="+Inf" with
// _count == the +Inf bucket, and a scrape racing live traffic stays
// well-formed (run under -race).

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// promFamily is one parsed metric family.
type promFamily struct {
	name    string
	help    string
	typ     string
	samples []promSample
}

type promSample struct {
	name   string // full sample name including _bucket/_sum/_count suffix
	labels string // raw label block, "" when absent
	value  float64
}

// parsePrometheus parses text exposition format strictly: unknown lines,
// samples before their family's HELP/TYPE, or malformed values fail the
// test immediately.
func parsePrometheus(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	families := make(map[string]*promFamily)
	var current *promFamily
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if families[name] != nil {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			current = &promFamily{name: name, help: help}
			families[name] = current
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if current == nil || current.name != name {
				t.Fatalf("line %d: TYPE for %s does not follow its HELP", ln+1, name)
			}
			if current.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary":
				current.typ = typ
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, typ)
			}
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unrecognized comment line %q", ln+1, line)
		default:
			nameAndLabels, valueStr, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("line %d: sample without value: %q", ln+1, line)
			}
			value, err := strconv.ParseFloat(valueStr, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, valueStr, err)
			}
			name, labels := nameAndLabels, ""
			if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
				name = nameAndLabels[:i]
				labels = nameAndLabels[i:]
				if !strings.HasSuffix(labels, "}") {
					t.Fatalf("line %d: unterminated label block: %q", ln+1, line)
				}
			}
			if current == nil {
				t.Fatalf("line %d: sample %s before any HELP/TYPE", ln+1, name)
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
				"_bucket"), "_sum"), "_count")
			if base != current.name && name != current.name {
				t.Fatalf("line %d: sample %s inside family %s", ln+1, name, current.name)
			}
			current.samples = append(current.samples, promSample{name: name, labels: labels, value: value})
		}
	}
	return families
}

// validMetricName is the Prometheus data-model name rule:
// [a-zA-Z_:][a-zA-Z0-9_:]*
func validMetricName(name string) bool {
	for i, r := range name {
		letter := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !letter && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return len(name) > 0
}

// TestMetricsExpositionRoundtrip drives real traffic through a server,
// scrapes /metrics, and holds the output to the exposition contract.
func TestMetricsExpositionRoundtrip(t *testing.T) {
	svc := NewServer(Config{})
	defer svc.Close()
	m := svc.Metrics()

	// Traffic so the histograms and counters are non-zero.
	ctx := context.Background()
	created, err := svc.Manager().Create(ctx, &CreateSessionRequest{
		Marginals: []float64{0.5, 0.63, 0.58, 0.49},
		Pc:        0.8, K: 2, Budget: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.Manager().Get(ctx, created.ID())
	if err != nil {
		t.Fatal(err)
	}
	sel, _, err := sess.Select(ctx, svc.Manager().Now(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m.SelectDuration.observe(3 * time.Millisecond)
	m.MergeDuration.observe(40 * time.Millisecond)
	m.MergeDuration.observe(10 * time.Second) // lands in +Inf
	_ = sel

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf, svc.Manager().Len(), svc.Manager().LeasesHeld(), svc.Manager().WorkersTracked()); err != nil {
		t.Fatal(err)
	}
	families := parsePrometheus(t, buf.String())
	if len(families) == 0 {
		t.Fatal("no metric families exposed")
	}

	for name, fam := range families {
		if !validMetricName(name) {
			t.Errorf("illegal metric name %q", name)
		}
		if fam.typ == "" {
			t.Errorf("family %s has HELP but no TYPE", name)
		}
		if len(fam.samples) == 0 {
			t.Errorf("family %s declared but has no samples", name)
		}
		for _, s := range fam.samples {
			if !validMetricName(s.name) {
				t.Errorf("illegal sample name %q in family %s", s.name, name)
			}
		}
		if strings.HasSuffix(name, "_total") && fam.typ != "counter" {
			t.Errorf("family %s ends in _total but has TYPE %s", name, fam.typ)
		}
		if fam.typ == "histogram" {
			checkHistogramFamily(t, fam)
		}
		if fam.typ == "summary" {
			t.Errorf("summary %s exposed; latencies are fixed-bucket histograms", name)
		}
	}

	// The four duration histograms must all be present.
	for _, want := range []string{
		"crowdfusion_select_duration_seconds",
		"crowdfusion_merge_duration_seconds",
		"crowdfusion_store_append_duration_seconds",
		"crowdfusion_lease_renew_duration_seconds",
	} {
		fam := families[want]
		if fam == nil {
			t.Fatalf("histogram family %s missing from exposition", want)
		}
		if fam.typ != "histogram" {
			t.Fatalf("family %s has TYPE %s, want histogram", want, fam.typ)
		}
	}

	// The observation past the last bound is only in +Inf and _count.
	merge := families["crowdfusion_merge_duration_seconds"]
	var lastFinite, inf, count float64
	for _, s := range merge.samples {
		switch {
		case s.name == "crowdfusion_merge_duration_seconds_bucket" && s.labels == `{le="+Inf"}`:
			inf = s.value
		case s.name == "crowdfusion_merge_duration_seconds_bucket":
			lastFinite = s.value
		case s.name == "crowdfusion_merge_duration_seconds_count":
			count = s.value
		}
	}
	if inf != 2 || count != 2 || lastFinite != 1 {
		t.Fatalf("merge histogram: last finite %g, +Inf %g, count %g; want 1, 2, 2",
			lastFinite, inf, count)
	}
}

// checkHistogramFamily asserts cumulative buckets ending at +Inf with
// _count equal to the +Inf bucket and a _sum sample present.
func checkHistogramFamily(t *testing.T, fam *promFamily) {
	t.Helper()
	var buckets []promSample
	var count, sum *promSample
	for i, s := range fam.samples {
		switch s.name {
		case fam.name + "_bucket":
			buckets = append(buckets, s)
		case fam.name + "_count":
			count = &fam.samples[i]
		case fam.name + "_sum":
			sum = &fam.samples[i]
		default:
			t.Errorf("histogram %s has stray sample %s", fam.name, s.name)
		}
	}
	if len(buckets) == 0 || count == nil || sum == nil {
		t.Errorf("histogram %s incomplete: %d buckets, count %v, sum %v",
			fam.name, len(buckets), count != nil, sum != nil)
		return
	}
	prev := -1.0
	prevLe := ""
	for _, b := range buckets {
		if b.value < prev {
			t.Errorf("histogram %s not cumulative: %s=%g after %s=%g",
				fam.name, b.labels, b.value, prevLe, prev)
		}
		prev, prevLe = b.value, b.labels
	}
	last := buckets[len(buckets)-1]
	if last.labels != `{le="+Inf"}` {
		t.Errorf("histogram %s buckets end at %s, want le=\"+Inf\"", fam.name, last.labels)
	}
	if count.value != last.value {
		t.Errorf("histogram %s _count %g != +Inf bucket %g", fam.name, count.value, last.value)
	}
}

// TestMetricsScrapeRaceClean scrapes continuously while observers hammer
// every histogram; under -race this proves the exposition path
// is safe against live traffic, and every scrape must still parse.
func TestMetricsScrapeRaceClean(t *testing.T) {
	var m Metrics
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			d := time.Duration(seed+1) * 37 * time.Microsecond
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.SelectDuration.observe(d)
				m.MergeDuration.observe(d * 2)
				m.StoreAppendDuration.observe(d * 3)
				m.LeaseRenewDuration.observe(d * 5)
				m.SelectsServed.Add(1)
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := m.WritePrometheus(&buf, 1, 1, 0); err != nil {
			t.Fatal(err)
		}
		families := parsePrometheus(t, buf.String())
		for _, fam := range families {
			if fam.typ == "histogram" {
				checkHistogramFamily(t, fam)
			}
		}
	}
	close(stop)
	wg.Wait()
}
