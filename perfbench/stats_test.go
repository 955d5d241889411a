package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestQuantileAndSampleCount(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.1, 1.4}} {
		got, n := quantile(xs, c.q)
		if math.Abs(got-c.want) > 1e-12 || n != len(xs) {
			t.Errorf("quantile(%v) = %v, %d; want %v, %d", c.q, got, n, c.want, len(xs))
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if v, n := median(nil); !math.IsNaN(v) || n != 0 {
		t.Errorf("median(nil) = %v, %d; want NaN, 0", v, n)
	}
	if v, n := median([]float64{2, 4}); v != 3 || n != 2 {
		t.Errorf("median of two = %v, %d", v, n)
	}
}

func TestTailSupported(t *testing.T) {
	if tailSupported(0.99, 999) {
		t.Error("p99 over 999 samples has fewer than ten beyond it")
	}
	if !tailSupported(0.99, 1000) {
		t.Error("p99 over 1000 samples has ten beyond it")
	}
}

func TestPutRecordsSampleCount(t *testing.T) {
	r := newReport()
	r.put(r.e2e, "submit_p99_ms", "ms", 12.5, 1200)
	r.put(r.e2e, "peak_heap_mb", "MiB", 64, 0)
	if r.samples["submit_p99_ms"] != 1200 {
		t.Errorf("sample count not recorded: %v", r.samples)
	}
	if _, ok := r.samples["peak_heap_mb"]; ok {
		t.Error("a metric without samples got a sample count")
	}
}

func TestCheckNames(t *testing.T) {
	r := newReport()
	r.put(r.layer, "engine.events.sample", "count", 1, 0)
	if err := checkNames(r); err != nil {
		t.Fatal(err)
	}
	r.put(r.layer, "bad name{kind=x}", "count", 1, 0)
	if checkNames(r) == nil {
		t.Error("a name outside [A-Za-z0-9_.-] passed")
	}
	r = newReport()
	r.put(r.e2e, "setup_s", "s", math.NaN(), 0)
	if checkNames(r) == nil {
		t.Error("a NaN metric passed")
	}
}

// BENCHMARK.json declares exactly the metrics the benchmark reports, with
// the same units; every name is in the alphabet and declared once.
func TestDeclaredMetrics(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range []struct {
		kind     string
		manifest []struct{ Name, Unit string }
		code     []spec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		want := map[string]string{}
		for _, s := range c.code {
			want[s.name] = s.unit
		}
		for _, m := range c.manifest {
			if !metricName.MatchString(m.Name) {
				t.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q declared twice", m.Name)
			}
			seen[m.Name] = true
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s %s (%s): the benchmark reports unit %q", c.kind, m.Name, m.Unit, u)
			}
			delete(want, m.Name)
		}
		for name := range want {
			t.Errorf("%s: the benchmark reports %s, which BENCHMARK.json does not declare", c.kind, name)
		}
	}
}

// The result line carries exactly the declared metrics: a missing one, a
// wrong unit, or an undeclared one is an error.
func TestDeclaredRejectsMismatch(t *testing.T) {
	want := []spec{{"setup_s", "s"}, {"op_ms", "ms"}}
	good := map[string]metric{"setup_s": {1, "s"}, "op_ms": {2, "ms"}}
	if got, err := declared(good, want); err != nil || len(got) != 2 {
		t.Fatalf("declared(%v) = %v, %v", good, got, err)
	}
	for name, m := range map[string]map[string]metric{
		"missing": {"setup_s": {1, "s"}},
		"unit":    {"setup_s": {1, "s"}, "op_ms": {2, "s"}},
		"extra":   {"setup_s": {1, "s"}, "op_ms": {2, "ms"}, "read_p50_ms": {3, "ms"}},
	} {
		if _, err := declared(m, want); err == nil {
			t.Errorf("%s: accepted %v", name, m)
		}
	}
}
