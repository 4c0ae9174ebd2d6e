package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{210, 95, true},
		{200, 95, true},
		{199, 94, true},
		{1000, 99, true},
		{24, 58, true},
		{20, 50, true},
		{19, 0, false},
		{10, 0, false},
	} {
		p, ok := tailPercentile(tc.n, 10)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
			continue
		}
		if ok && (beyond(tc.n, p) < 10 || (p < 99 && beyond(tc.n, p+1) >= 10)) {
			t.Errorf("n=%d: p%v has %d beyond, p%v has %d", tc.n, p, beyond(tc.n, p), p+1, beyond(tc.n, p+1))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 95); got != 5 {
		t.Errorf("p95 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	a, err := makeSchedule(7, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeSchedule(7, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.reqs) != len(b.reqs) {
		t.Fatalf("request counts %d vs %d", len(a.reqs), len(b.reqs))
	}
	for i := range a.reqs {
		qa, qb := a.reqs[i], b.reqs[i]
		if qa.due != qb.due || qa.key != qb.key || qa.rung != qb.rung || !bytes.Equal(qa.body, qb.body) {
			t.Fatalf("request %d differs: %s@%v vs %s@%v", i, qa.key, qa.due, qb.key, qb.due)
		}
	}
	c, err := makeSchedule(8, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	if c.reqs[0].due == a.reqs[0].due && c.reqs[0].key == a.reqs[0].key && c.reqs[1].due == a.reqs[1].due {
		t.Error("seeds 7 and 8 produced the same schedule start")
	}
}

func TestScheduleMixAndNominalSamples(t *testing.T) {
	s, err := makeSchedule(3, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(classNames))
	for ri, idx := range s.rungs {
		if serveLadder[ri] == serveNominal && len(idx) < serveNominalMin {
			t.Errorf("nominal rung has %d requests, want ≥ %d", len(idx), serveNominalMin)
		}
		var prev time.Duration
		for _, i := range idx {
			if s.reqs[i].due < prev {
				t.Fatalf("rung %d: due times not increasing", ri)
			}
			prev = s.reqs[i].due
		}
	}
	hot := map[byte]int{}
	for _, q := range s.reqs {
		counts[q.class]++
		if q.class == classHot {
			hot[q.key[4]]++ // "hot/<topology>/<variant>"
		}
	}
	n := float64(len(s.reqs))
	for topo, c := range hot {
		if got := float64(c) / n; got < 0.175-0.02 || got > 0.175+0.02 {
			t.Errorf("hot topology %c share %.3f, want 0.175", topo, got)
		}
	}
	if len(hot) != 4 {
		t.Errorf("%d hot topologies, want 4", len(hot))
	}
	for c, want := range []float64{0.7, 0.2, 0.1} {
		if got := float64(counts[c]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("%s share %.3f, want %.2f", classNames[c], got, want)
		}
	}
	// An untraced run spends all its time on the nominal rung.
	u, err := makeSchedule(3, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	for ri, idx := range u.rungs {
		if nominal := serveLadder[ri] == serveNominal; nominal != (len(idx) > 0) {
			t.Errorf("untraced schedule: rung %v req/s has %d requests", serveLadder[ri], len(idx))
		}
	}
}

func TestSameSeedSameInstances(t *testing.T) {
	for _, s := range dagSeeds {
		a, _ := json.Marshal(dagInstance(s))
		b, _ := json.Marshal(dagInstance(s))
		if !bytes.Equal(a, b) {
			t.Fatalf("dag seed %d generates different instances", s)
		}
	}
}

func TestQueueWaitIsLatencyMinusElapsed(t *testing.T) {
	if got := queueWait(120*time.Millisecond, 45500*time.Microsecond); got != 74.5 {
		t.Errorf("queueWait = %v ms, want 74.5", got)
	}
	if got := queueWait(10*time.Millisecond, 10*time.Millisecond); got != 0 {
		t.Errorf("queueWait = %v ms, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "build", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "solve", Parent: 0, Start: 30 * ms, End: 80 * ms},
		{Name: "factor", Parent: 2, Start: 40 * ms, End: 60 * ms},
		{Name: "factor", Parent: 2, Start: 50 * ms, End: 70 * ms},  // overlaps its sibling
		{Name: "verify", Parent: 0, Start: 90 * ms, End: 120 * ms}, // ends after its parent
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"op":     100*ms - 20*ms - 50*ms - 10*ms,
		"build":  20 * ms,
		"solve":  50*ms - 30*ms,
		"factor": 40 * ms,
		"verify": 30 * ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables of this program in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], here %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eMetrics)
	check("per_layer", bj.PerLayer, layerMetrics)
}
