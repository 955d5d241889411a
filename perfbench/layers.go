package main

import (
	"fmt"

	"powerstack/internal/fault"
	"powerstack/internal/obs"
)

// spec is one metric of the result line, with its unit.
type spec struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares. Every
// workload reports every one of them, so each must mean something on all
// three; figures that belong to one workload only go to the record's
// detail map. TestDeclaredMetrics keeps these lists and the manifest in
// step.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"ok_frac", "fraction"},
	{"op_ms", "ms"},
}

var perLayer = []spec{
	{"cluster.new_s", "s"},
	{"charz.characterize_s", "s"},
	{"facility.replans", "count"},
	{"facility.replan_s", "s"},
	{"facility.replan_ms_mean", "ms"},
	{"engine.events.arrival", "count"},
	{"engine.events.completion", "count"},
	{"engine.events.sample", "count"},
	{"engine.events.budget", "count"},
	{"engine.events.fault_crash", "count"},
	{"engine.events.fault_repair", "count"},
	{"rapl.limit_writes", "count"},
	{"rapl.msr_writes", "count"},
	{"fault.injected.node_crash", "count"},
	{"fault.injected.msr_write_fault", "count"},
	{"rm.quarantines", "count"},
	{"rm.cap_write_retries", "count"},
	{"telemetry.holds", "count"},
	{"facility.preemptions", "count"},
	{"facility.kills", "count"},
	{"facility.requeues", "count"},
	{"facility.budget_changes", "count"},
	{"charz.cache_hits", "count"},
	{"charz.cache_misses", "count"},
	{"go.alloc_mb", "MiB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
}

// declared returns exactly the metrics of want from got. A declared metric
// that is missing or carries another unit, or a metric in got that is not
// declared, is an error: the result line must hold the manifest's metrics
// and nothing else.
func declared(got map[string]metric, want []spec) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	for _, s := range want {
		m, ok := got[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not reported", s.name)
		}
		if m.Unit != s.unit {
			return nil, fmt.Errorf("metric %s in %s, declared in %s", s.name, m.Unit, s.unit)
		}
		out[s.name] = m
	}
	if len(got) != len(out) {
		for name := range got {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared; report it in the detail map", name)
			}
		}
	}
	return out, nil
}

// putCounters reports the layer counts every workload shares, read from
// the obs sink of one unit of work. A layer the workload does not drive
// (faults outside campaign-chaos, the characterization cache outside it)
// reads zero.
func (r *report) putCounters(s *obs.Sink) {
	for _, kind := range []string{"arrival", "completion", "sample", "budget", "fault_crash", "fault_repair"} {
		r.put(r.layer, "engine.events."+kind, "count", counter(s, obs.MetricEngineEvents, "kind", kind), 0)
	}
	r.put(r.layer, "rapl.limit_writes", "count", counter(s, obs.MetricLimitWrites), 0)
	r.put(r.layer, "rapl.msr_writes", "count", counter(s, obs.MetricMSRWrites), 0)
	for _, kind := range []fault.Kind{fault.NodeCrash, fault.MSRWriteFault} {
		r.put(r.layer, "fault.injected."+string(kind), "count", counter(s, obs.MetricFaults, "kind", string(kind)), 0)
	}
	// The program counts quarantines and budget changes only under a
	// label; sum the labels.
	quarantines := 0.0
	for _, reason := range []string{"cap_write", "release", "crash"} {
		quarantines += counter(s, obs.MetricQuarantines, "reason", reason)
	}
	r.put(r.layer, "rm.quarantines", "count", quarantines, 0)
	r.put(r.layer, "rm.cap_write_retries", "count", counter(s, obs.MetricCapRetries), 0)
	r.put(r.layer, "telemetry.holds", "count", counter(s, obs.MetricTelemetryHolds), 0)
	r.put(r.layer, "facility.preemptions", "count", counter(s, obs.MetricPreemptions), 0)
	r.put(r.layer, "facility.kills", "count", counter(s, obs.MetricJobKills), 0)
	r.put(r.layer, "facility.requeues", "count", counter(s, obs.MetricRequeues), 0)
	budgetChanges := 0.0
	for _, cause := range []string{"step", "drop", "recover"} {
		budgetChanges += counter(s, obs.MetricBudgetChanges, "cause", cause)
	}
	r.put(r.layer, "facility.budget_changes", "count", budgetChanges, 0)
	r.put(r.layer, "charz.cache_hits", "count", counter(s, obs.MetricCharzCacheHits), 0)
	r.put(r.layer, "charz.cache_misses", "count", counter(s, obs.MetricCharzCacheMisses), 0)
}

// putReplans reports the replans of one unit of work from the program's
// powerstack_replan_seconds histogram, one sink per unit: the count of
// the first unit (counts repeat exactly in facility-100k and
// campaign-chaos), and the median over units of the summed and the mean
// replan time.
func (r *report) putReplans(sinks []*obs.Sink) {
	var total, mean []float64
	for _, s := range sinks {
		h := s.Metrics.Histogram(obs.MetricReplanSeconds, obs.LatencySecondsBuckets)
		total = append(total, h.Sum())
		if h.Count() > 0 {
			mean = append(mean, h.Sum()/float64(h.Count())*1e3)
		}
	}
	first := sinks[0].Metrics.Histogram(obs.MetricReplanSeconds, obs.LatencySecondsBuckets)
	r.put(r.layer, "facility.replans", "count", float64(first.Count()), 0)
	v, n := median(total)
	r.put(r.layer, "facility.replan_s", "s", v, n)
	v, n = median(mean)
	r.put(r.layer, "facility.replan_ms_mean", "ms", v, n)
}
