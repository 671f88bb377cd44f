package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so the helpers must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0: must refuse
	}{
		{999, 0.99, 0},
		{1000, 0.99, 990},
		{2000, 0.99, 1980},
		{19, 0.50, 0},
		{20, 0.50, 10},
		{21, 0.50, 11},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("percentile(%d samples, %v) = %v, want a refusal", tc.n, tc.q, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v", tc.n, tc.q, got, err, tc.want)
		}
	}
	if _, err := percentile(seq(100), 1); err == nil {
		t.Error("percentile accepted q = 1")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}}, // extrapolates, as Python does
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil || [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, %v; want %v", tc.xs, q1, q2, q3, err, tc.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles accepted one value")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validMetric(d) {
			t.Errorf("metric %q unit %q is not a valid name/unit", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, bad := range []metricDef{
		{"", "s"}, {"_lead", "s"}, {"sp ace", "s"}, {"a/b", "s"}, {strings.Repeat("a", 65), "s"},
		{"ok", ""}, {"ok", "µs"}, {"ok", strings.Repeat("u", 17)},
	} {
		if validMetric(bad) {
			t.Errorf("validMetric(%q, %q) = true", bad.name, bad.unit)
		}
	}
}

// TestBenchmarkJSONMatches pins the metric and workload lists the command
// emits to the ones BENCHMARK.json declares.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s/%s, command %s/%s", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestLedger(t *testing.T) {
	var l ledger
	l.add(ledger{attempted: 3, failed: 1})
	l.add(ledger{attempted: 1})
	if l.attempted != 4 || l.failed != 1 || l.failFrac() != 0.25 {
		t.Errorf("ledger = %+v, fail frac %v", l, l.failFrac())
	}
	if (ledger{}).failFrac() != 0 {
		t.Error("empty ledger has a failure fraction")
	}
	for status, ok := range map[int]bool{200: true, 204: true, 299: true, 429: false, 409: false, 503: false, 301: false} {
		if statusOK(status) != ok {
			t.Errorf("statusOK(%d) = %v", status, !ok)
		}
	}
}

// TestChildSums checks that a parent's parts are summed per parent and
// that other children and other parents' children are left out.
func TestChildSums(t *testing.T) {
	spans := []span{
		{name: "engine.restart", start: 0, end: 100, parent: -1},
		{name: "engine.new", start: 0, end: 10, parent: 0},
		{name: "snapshot.load", start: 10, end: 60, parent: 0},
		{name: "engine.restore", start: 60, end: 90, parent: 0},
		{name: "engine.restart", start: 200, end: 300, parent: -1},
		{name: "engine.restore", start: 200, end: 207, parent: 4},
		{name: "engine.restore", start: 400, end: 500, parent: -1},
	}
	got := childSums(spans, "engine.restart", "engine.new", "engine.restore")
	if want := []float64{40, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("childSums = %v, want %v", got, want)
	}
}
