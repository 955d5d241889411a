package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"powerstack"
	"powerstack/internal/campaign"
	"powerstack/internal/charz"
	"powerstack/internal/facility"
	"powerstack/internal/fault"
	"powerstack/internal/kernel"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/units"
	"powerstack/internal/workload"
)

// campaign-chaos: campaign.Runner.Run over a 64-node pool (below
// facility.ScaleThreshold, so the flat replan and the full telemetry
// sweep), matrix 24 h × 8 seeds × {StaticCaps, MixedAdaptive} ×
// {clean, chaos} × {preempt, kill}, 30-minute arrivals, 1-minute tick,
// checkpointing on, one worker. One unit is a fresh system, a cold-cache
// characterization, and one Runner.Run; units repeat until the
// measurement time is used.
const (
	campaignNodes = 64
	campaignSeeds = 8
	campaignSpan  = 24 * time.Hour
	// Jobs of 200k-800k iterations run for hours, so the 64-node pool
	// stays busy enough that crashes requeue jobs and budget drops force
	// preempt and kill responses.
	campaignMinIters = 200000
	campaignMaxIters = 800000
	campaignMinUnits = 3
	// campaignCharNodes and charz.DefaultOptions are the paper's
	// characterization scale (100 test nodes); the cache starts cold, so
	// set-up pays the full two-pass characterization.
	campaignCharNodes = 100
	// The scenario seeds (1-8, as cmd/campaign numbers them) and the
	// fault plan's seed (cmd/campaign's -faultseed default) are fixed, so
	// every run sweeps the same matrix; --seed draws the pool's hardware
	// variation. Deriving the scenario seeds from --seed changed the
	// amount of work enough to spread throughput by 13% over seeds 1-5.
	campaignFaultSeed = 7
)

// campaignWorkloads are cmd/campaign's workload population.
var campaignWorkloads = []kernel.Config{
	{Intensity: 0.25, Vector: kernel.YMM, Imbalance: 1},
	{Intensity: 8, Vector: kernel.YMM, Imbalance: 1},
	{Intensity: 32, Vector: kernel.YMM, Imbalance: 1},
	{Intensity: 1, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 2},
	{Intensity: 16, Vector: kernel.YMM, WaitingPct: 75, Imbalance: 3},
	{Intensity: 8, Vector: kernel.XMM, Imbalance: 1},
}

// campaignOutcome is the deterministic result of one Runner.Run.
type campaignOutcome struct {
	Scenarios   int     `json:"scenarios"`
	Submitted   int     `json:"submitted"`
	Completed   int     `json:"completed"`
	Preempted   int     `json:"preempted"`
	Killed      int     `json:"killed"`
	Requeued    int     `json:"requeued"`
	Quarantined int     `json:"quarantined"`
	EnergyJ     float64 `json:"energy_j"`
	PerScen     []int   `json:"completed_per_scenario"`
}

type campaignUnit struct {
	systemNew, characterize, run, report time.Duration
	outcome                              campaignOutcome
	sink                                 *obs.Sink
}

func runCampaign(rc runConfig) (*report, error) {
	rep := newReport()
	tr := newTracer(rc.trace)
	heap := watchHeap()
	g0 := readGoStats()

	var runs []*campaignUnit
	begin := time.Now()
	for len(runs) < campaignMinUnits || time.Since(begin) < rc.measure {
		runtime.GC()
		u, err := campaignRun(rc, tr, &rep.ops, len(runs))
		if err != nil {
			heap.Stop()
			return nil, err
		}
		runs = append(runs, u)
	}
	g1 := readGoStats()
	peak := heap.Stop()

	var setups, scenMs, rates []float64
	for i, u := range runs {
		setups = append(setups, (u.systemNew + u.characterize).Seconds())
		scenMs = append(scenMs, float64(u.run)/1e6/float64(u.outcome.Scenarios))
		rates = append(rates, float64(u.outcome.Scenarios)/u.run.Seconds())
		rep.ops.check(reflect.DeepEqual(u.outcome, runs[0].outcome),
			"unit %d outcome differs from unit 0", i)
	}
	rep.outcome = runs[0].outcome

	setup, n := median(setups)
	rep.put(rep.e2e, "setup_s", "s", setup, n)
	// One operation is one scenario of Runner.Run, its share of report
	// assembly included.
	op, n := median(scenMs)
	rep.put(rep.e2e, "op_ms", "ms", op, n)
	rep.put(rep.e2e, "peak_heap_mb", "MiB", peak, 0)
	rate, n := median(rates)
	rep.put(rep.detail, "scenarios_per_s", "1/s", rate, n)

	if rc.trace {
		// Write the snapshot before reading counters: reading a series
		// that was never recorded creates it.
		if err := rep.finishTrace(tr, runs[0].sink, rc); err != nil {
			return nil, err
		}
		putMedian := func(dst map[string]metric, name string, f func(*campaignUnit) time.Duration) {
			v, n := medianSeconds(runs, f)
			rep.put(dst, name, "s", v, n)
		}
		// powerstack.NewSystem is cluster.New plus splitting off the
		// characterization pool.
		putMedian(rep.layer, "cluster.new_s", func(u *campaignUnit) time.Duration { return u.systemNew })
		putMedian(rep.layer, "charz.characterize_s", func(u *campaignUnit) time.Duration { return u.characterize })
		putMedian(rep.detail, "campaign.run_s", func(u *campaignUnit) time.Duration { return u.run })
		putMedian(rep.detail, "campaign.report_s", func(u *campaignUnit) time.Duration { return u.report })

		// Scenario wall times come from the runner's own scenario spans.
		var scen []float64
		var sinks []*obs.Sink
		for _, u := range runs {
			sinks = append(sinks, u.sink)
			for _, sp := range u.sink.Spans.Snapshot() {
				if sp.Name == "scenario" {
					scen = append(scen, float64(sp.WallDur)/1e6)
				}
			}
		}
		p50, n := quantile(scen, 0.5)
		rep.put(rep.detail, "campaign.scenario_ms_p50", "ms", p50, n)
		// p90: a run holds a few hundred scenarios, too few for ten
		// beyond a p99.
		p90, n := quantile(scen, 0.9)
		rep.put(rep.detail, "campaign.scenario_ms_p90", "ms", p90, n)
		rep.putReplans(sinks)

		// Counts are exact and identical across units; report unit 0's.
		rep.putCounters(runs[0].sink)
		rep.putGo(g0, g1, len(runs))
	}
	return rep, nil
}

// campaignRun builds a fresh system, characterizes its workloads on a cold
// cache, and runs the campaign matrix once.
func campaignRun(rc runConfig, tr *tracer, ops *tally, unit int) (*campaignUnit, error) {
	ctx := context.Background()
	u := &campaignUnit{}
	root := tr.start(nil, "perfbench", "campaign_unit").scope(fmt.Sprint(unit))
	defer root.end()

	if rc.trace {
		// Metrics plus a span log large enough to keep every scenario
		// span; the journal stays off.
		u.sink = &obs.Sink{Metrics: obs.NewRegistry(), Spans: obs.NewSpanLog(1<<18, time.Time{})}
	}
	var sys *powerstack.System
	if err := tr.timed(root, "system", "powerstack.NewSystem", &u.systemNew, func() (err error) {
		sys, err = powerstack.NewSystem(powerstack.Options{
			ClusterSize: campaignNodes + campaignCharNodes, CharNodes: campaignCharNodes, Seed: derive(rc.seed, 1),
		})
		return err
	}); err != nil {
		return nil, err
	}
	cache := powerstack.NewCharacterizationCache()
	cache.Obs = u.sink
	if err := tr.timed(root, "charz", "System.CharacterizeCached", &u.characterize, func() error {
		return sys.CharacterizeCached(ctx, campaignWorkloads, charz.DefaultOptions(), cache)
	}); err != nil {
		return nil, err
	}

	var ids []string
	for _, n := range sys.Pool {
		ids = append(ids, n.ID)
	}
	chaos := fault.Generate(ids, fault.GenOptions{
		Seed:           campaignFaultSeed,
		Crashes:        4,
		RepairFraction: 0.5,
		MSRWriteFaults: 4,
		Dropouts:       4,
		BudgetDrops:    2,
		Horizon:        campaignSpan,
	})
	cfg := campaign.Config{
		Base: facility.Config{
			MinJobIterations: campaignMinIters,
			MaxJobIterations: campaignMaxIters,
			JobSizes:         []int{2, 4, 8, 16},
			Workloads:        campaignWorkloads,
			Duration:         campaignSpan,
			Tick:             time.Minute,
			CheckpointEvery:  workload.CheckpointInterval(campaignMinIters, campaignMaxIters),
		},
		Interarrivals: []time.Duration{30 * time.Minute},
		Budgets:       []units.Power{campaignNodes * 240 * units.Watt},
		Policies:      []policy.Policy{policy.StaticCaps{}, policy.MixedAdaptive{}},
		FaultPlans:    []campaign.NamedFaultPlan{{Name: "clean"}, {Name: "chaos", Plan: chaos}},
		Emergencies:   []facility.EmergencyPolicy{facility.EmergencyPreempt, facility.EmergencyKill},
		Parallelism:   1,
	}
	for i := uint64(1); i <= campaignSeeds; i++ {
		cfg.Seeds = append(cfg.Seeds, i)
	}
	runner := &campaign.Runner{Nodes: sys.Pool, DB: sys.DB, Obs: u.sink}
	var rp *campaign.Report
	if err := tr.timed(root, "campaign", "Runner.Run", &u.run, func() (err error) {
		rp, err = runner.Run(ctx, cfg)
		return err
	}); err != nil {
		return nil, err
	}

	want := campaignSeeds * 2 * 2 * 2
	ops.check(len(rp.Scenarios) == want && len(rp.Groups) > 0,
		"unit %d: report has %d scenarios (want %d), %d groups", unit, len(rp.Scenarios), want, len(rp.Groups))
	o := campaignOutcome{Scenarios: len(rp.Scenarios)}
	for _, sr := range rp.Scenarios {
		ops.check(sr.Completed <= sr.Submitted && sr.Submitted > 0,
			"unit %d scenario %d: submitted=%d completed=%d", unit, sr.Index, sr.Submitted, sr.Completed)
		o.Submitted += sr.Submitted
		o.Completed += sr.Completed
		o.Preempted += sr.Preempted
		o.Killed += sr.Killed
		o.Requeued += sr.Requeued
		o.Quarantined += sr.Quarantined
		o.EnergyJ += sr.TotalEnergy.Joules()
		o.PerScen = append(o.PerScen, sr.Completed)
	}
	u.outcome = o

	if rc.trace {
		// MergeReports reruns the bootstrap and t-test assembly over the
		// full scenario list; its output must match Run's byte for byte.
		var merged *campaign.Report
		if err := tr.timed(root, "campaign", "campaign.MergeReports", &u.report, func() (err error) {
			merged, err = campaign.MergeReports(rp)
			return err
		}); err != nil {
			return nil, err
		}
		var a, b bytes.Buffer
		if err := rp.WriteJSON(&a); err != nil {
			return nil, err
		}
		if err := merged.WriteJSON(&b); err != nil {
			return nil, err
		}
		ops.check(bytes.Equal(a.Bytes(), b.Bytes()), "unit %d: merged report differs from Run's report", unit)
	}
	return u, nil
}
