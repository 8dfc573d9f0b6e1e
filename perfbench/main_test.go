package main

import (
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"octopus/internal/core"
	"octopus/internal/server"
)

// tinyOptions runs a workload on a tiny corpus with the minimum work.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 3, seconds: 1, trace: trace, authors: 1500, out: t.TempDir()}
}

// TestEveryMetricWithItsUnit runs each workload on a tiny corpus,
// untraced and traced, and requires every declared metric with its
// unit (end-to-end metrics nonzero).
func TestEveryMetricWithItsUnit(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			opt := tinyOptions(t, w, trace)
			res, err := run(opt, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d in BENCHMARK.json, %d in the benchmark", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json names workloads %s, the benchmark runs %s", got, want)
	}
}

// realIM returns a genuine /api/im answer of a tiny system.
func realIM(t *testing.T) *answer {
	t.Helper()
	opt := tinyOptions(t, "scenarios-cold", false)
	ds, err := genCorpus(opt)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(ds.Graph, ds.Log, buildConfig(ds, ds.Truth))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWith(sys, serveOptions())
	t.Cleanup(srv.Close)
	b := &bench{opt: opt, out: io.Discard, digest: sha256.New()}
	g := newGen(ds, 1)
	a := b.serve(srv, b.newQuery("im", g.imTarget()), 0)
	if err := checkOK(a); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestChecksFireOnCorruptedAnswers corrupts genuine answers one way per
// check and requires each check to fail.
func TestChecksFireOnCorruptedAnswers(t *testing.T) {
	a := realIM(t)
	if _, err := checkIM(a.body, imK, false); err != nil {
		t.Fatalf("genuine answer rejected: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(a.body, &doc); err != nil {
		t.Fatal(err)
	}
	seeds := doc["seeds"].([]any)
	corrupt := func(f func(seeds []any) []any) []byte {
		var cp map[string]any
		json.Unmarshal(a.body, &cp)
		cp["seeds"] = f(append([]any(nil), cloneSeeds(seeds)...))
		out, _ := json.Marshal(cp)
		return out
	}
	cases := map[string][]byte{
		"repeated seed": corrupt(func(s []any) []any { s[1].(map[string]any)["id"] = s[0].(map[string]any)["id"]; return s }),
		"missing seed":  corrupt(func(s []any) []any { return s[:len(s)-1] }),
		"spread drops":  corrupt(func(s []any) []any { s[len(s)-1].(map[string]any)["spread"] = 0.5; return s }),
	}
	for name, body := range cases {
		if _, err := checkIM(body, imK, false); err == nil {
			t.Errorf("checkIM accepted an answer with a %s", name)
		}
	}
	if _, err := checkIM(a.body, imK, true); err == nil {
		t.Error("checkIM accepted cumulative spreads as a coordinator's ranked ones")
	}

	bad := *a
	bad.status = http.StatusInternalServerError
	if checkOK(&bad) == nil {
		t.Error("checkOK accepted a 500")
	}
	bad = *a
	bad.body = a.body[:len(a.body)/2]
	if checkOK(&bad) == nil {
		t.Error("checkOK accepted a truncated body")
	}
	bad = *a
	bad.missing = "1"
	if checkOK(&bad) == nil {
		t.Error("checkOK accepted a partial fleet answer")
	}

	flipped := append([]byte(nil), a.body...)
	flipped[len(flipped)/2] ^= 1
	if checkSameBody("heap vs mapped", a.body, flipped) == nil {
		t.Error("checkSameBody accepted a flipped byte")
	}
	if checkCache([]*answer{{q: a.q, cache: "miss"}}, "hit") == nil {
		t.Error("checkCache accepted a miss where a hit was due")
	}

	single := []byte(`{"Nodes":10,"Edges":20,"Topics":6,"Vocabulary":9,"Episodes":5,"Actions":30}`)
	if err := checkFleetStatus(single, []byte(`{"Nodes":10,"Edges":20,"Topics":6,"Vocabulary":9,"Episodes":7,"Actions":30}`)); err != nil {
		t.Errorf("episodes are replicated across shards and must not be compared: %v", err)
	}
	if checkFleetStatus(single, []byte(`{"Nodes":10,"Edges":19,"Topics":6,"Vocabulary":9,"Episodes":5,"Actions":30}`)) == nil {
		t.Error("checkFleetStatus accepted a lost edge")
	}

	prev := &record{Digest: "aa", Split: "version=3 action:incremental,edge:fallback"}
	if checkRepeat(prev, &record{Digest: "ab", Split: prev.Split}) == nil {
		t.Error("checkRepeat accepted another digest")
	}
	if checkRepeat(prev, &record{Digest: "aa", Split: "version=3 action:incremental,edge:incremental"}) == nil {
		t.Error("checkRepeat accepted another fold split")
	}
}

func cloneSeeds(seeds []any) []any {
	out := make([]any, len(seeds))
	for i, s := range seeds {
		m := map[string]any{}
		for k, v := range s.(map[string]any) {
			m[k] = v
		}
		out[i] = m
	}
	return out
}

// TestRepeatRunsAgree runs the live workload twice at one seed: the
// second run compares its digest and fold split with the first run's
// record, and fails once that record is tampered with.
func TestRepeatRunsAgree(t *testing.T) {
	opt := tinyOptions(t, "ingest-live", false)
	for i := 0; i < 2; i++ {
		if _, err := run(opt, io.Discard); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	b := &bench{opt: opt}
	path := b.recordPath(false)
	rec, ok := readRecord(path)
	if !ok || !strings.HasPrefix(rec.Split, "version=") {
		t.Fatalf("run record %s: %+v", path, rec)
	}
	rec.Split = strings.Replace(rec.Split, "incremental", "fallback", 1)
	raw, _ := json.Marshal(rec)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(opt, io.Discard); err == nil || !strings.Contains(err.Error(), "fold split") {
		t.Fatalf("run after a tampered record: %v, want a fold split failure", err)
	}
}
