package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/facility"
	"powerstack/internal/kernel"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/units"
)

// facility-100k: the cmd/scalebench configuration (100k nodes, scale mode,
// MixedAdaptive, 3-minute Poisson arrivals, 700k-1M iteration jobs on
// 8/16/32 nodes, 30-minute telemetry, sequential replan), driven through
// facility.Instance one virtual hour at a time with a Snapshot after each
// hour. One unit is a fresh set-up plus facilitySpan of simulation; units
// repeat until the measurement time is used.
const (
	facilityNodes = 100000
	facilitySpan  = 24 * time.Hour
	facilityChunk = time.Hour
	// facilityMinUnits keeps set-up a median of several set-ups even on
	// a short measurement.
	facilityMinUnits = 3
	// facilityArrivalSeed is cmd/scalebench's default seed: every run
	// replays the same arrival stream, so figures compare with
	// BENCH_scale.json and across runs. --seed draws the 100k nodes'
	// hardware variation; a different arrival stream would change the
	// amount of work (seeds 1-5 spread throughput by 15%).
	facilityArrivalSeed = 7
)

// scaleWorkloads are cmd/scalebench's workload population.
var scaleWorkloads = []kernel.Config{
	{Intensity: 8, Vector: kernel.YMM, Imbalance: 1},
	{Intensity: 0.5, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 2},
	{Intensity: 32, Vector: kernel.XMM, Imbalance: 1},
}

// facilityOutcome is the deterministic result of one unit.
type facilityOutcome struct {
	Submitted int     `json:"submitted"`
	Completed int     `json:"completed"`
	Events    int     `json:"events"`
	EnergyJ   float64 `json:"energy_j"`
}

// facilityUnit is the timing of one unit.
type facilityUnit struct {
	clusterNew, characterize, instanceNew, start time.Duration
	step                                         time.Duration
	snapshots                                    []time.Duration
	outcome                                      facilityOutcome
	sink                                         *obs.Sink
}

func (u *facilityUnit) setup() time.Duration {
	return u.clusterNew + u.characterize + u.instanceNew + u.start
}

func runFacility(rc runConfig) (*report, error) {
	rep := newReport()
	tr := newTracer(rc.trace)
	heap := watchHeap()
	g0 := readGoStats()

	var runs []*facilityUnit
	begin := time.Now()
	for len(runs) < facilityMinUnits || time.Since(begin) < rc.measure {
		// The previous unit's 100k-node world is garbage; collect it
		// outside the timed regions.
		runtime.GC()
		u, err := facilityRun(rc, tr, &rep.ops, len(runs))
		if err != nil {
			heap.Stop()
			return nil, err
		}
		runs = append(runs, u)
	}
	g1 := readGoStats()
	peak := heap.Stop()

	var setups, hourMs, rates, snaps []float64
	for i, u := range runs {
		setups = append(setups, u.setup().Seconds())
		hourMs = append(hourMs, float64(u.step)/1e6/facilitySpan.Hours())
		rates = append(rates, facilityNodes*facilitySpan.Hours()/u.step.Seconds())
		for _, d := range u.snapshots {
			snaps = append(snaps, float64(d)/1e6)
		}
		rep.ops.check(u.outcome == runs[0].outcome,
			"unit %d outcome %+v differs from unit 0 %+v", i, u.outcome, runs[0].outcome)
	}
	rep.outcome = runs[0].outcome

	setup, n := median(setups)
	rep.put(rep.e2e, "setup_s", "s", setup, n)
	// One operation is one virtual hour of Step over 100k nodes.
	op, n := median(hourMs)
	rep.put(rep.e2e, "op_ms", "ms", op, n)
	rep.put(rep.e2e, "peak_heap_mb", "MiB", peak, 0)
	rate, n := median(rates)
	rep.put(rep.detail, "sim_node_hours_per_s", "node-h/s", rate, n)

	if rc.trace {
		// Write the snapshot before reading counters: reading a series
		// that was never recorded creates it.
		if err := rep.finishTrace(tr, runs[0].sink, rc); err != nil {
			return nil, err
		}
		putMedian := func(dst map[string]metric, name string, f func(*facilityUnit) time.Duration) {
			v, n := medianSeconds(runs, f)
			rep.put(dst, name, "s", v, n)
		}
		putMedian(rep.layer, "cluster.new_s", func(u *facilityUnit) time.Duration { return u.clusterNew })
		putMedian(rep.layer, "charz.characterize_s", func(u *facilityUnit) time.Duration { return u.characterize })
		putMedian(rep.detail, "facility.instance_new_s", func(u *facilityUnit) time.Duration { return u.instanceNew })
		putMedian(rep.detail, "facility.step_s", func(u *facilityUnit) time.Duration { return u.step })
		var sinks []*obs.Sink
		var between []float64
		for _, u := range runs {
			sinks = append(sinks, u.sink)
			h := u.sink.Metrics.Histogram(obs.MetricReplanSeconds, obs.LatencySecondsBuckets)
			between = append(between, u.step.Seconds()-h.Sum())
		}
		rep.putReplans(sinks)
		v, n := median(between)
		rep.put(rep.detail, "facility.between_replans_s", "s", v, n)
		snap, n := median(snaps)
		rep.put(rep.detail, "facility.snapshot_ms", "ms", snap, n)

		// Counts are exact and identical across units; report unit 0's.
		rep.putCounters(runs[0].sink)
		rep.putGo(g0, g1, len(runs))
	}
	return rep, nil
}

// facilityRun sets up one 100k-node world, steps it through facilitySpan
// in one-hour chunks with a Snapshot after each, and closes it.
func facilityRun(rc runConfig, tr *tracer, ops *tally, unit int) (*facilityUnit, error) {
	ctx := context.Background()
	u := &facilityUnit{}
	root := tr.start(nil, "perfbench", "facility_unit").scope(fmt.Sprint(unit))
	defer root.end()

	var c *cluster.Cluster
	if err := tr.timed(root, "cluster", "cluster.New", &u.clusterNew, func() (err error) {
		c, err = cluster.New(facilityNodes+4, cpumodel.Quartz(), cpumodel.QuartzVariation(), derive(rc.seed, 1))
		return err
	}); err != nil {
		return nil, err
	}
	nodes := c.Nodes()[:facilityNodes]
	var db *charz.DB
	if err := tr.timed(root, "charz", "charz.CharacterizeAll", &u.characterize, func() (err error) {
		db, err = charz.CharacterizeAll(ctx, scaleWorkloads, c.Nodes()[facilityNodes:], charz.Options{
			MonitorIters: 5, BalancerIters: 30, Seed: 3, NoiseSigma: 0,
		})
		return err
	}); err != nil {
		return nil, err
	}
	if rc.trace {
		u.sink = &obs.Sink{Metrics: obs.NewRegistry()}
	}
	cfg := facility.Config{
		Engine:           facility.EngineEvent,
		ScaleMode:        facility.ScaleOn,
		Nodes:            nodes,
		DB:               db,
		Policy:           policy.MixedAdaptive{},
		SystemBudget:     units.Power(facilityNodes) * 200 * units.Watt,
		MeanInterarrival: 3 * time.Minute,
		MinJobIterations: 700000,
		MaxJobIterations: 1000000,
		JobSizes:         []int{8, 16, 32},
		Workloads:        scaleWorkloads,
		Duration:         facilitySpan,
		Tick:             30 * time.Second,
		TelemetryEvery:   30 * time.Minute,
		Seed:             facilityArrivalSeed,
		Obs:              u.sink,
	}
	var in *facility.Instance
	if err := tr.timed(root, "facility", "facility.NewInstance", &u.instanceNew, func() (err error) {
		in, err = facility.NewInstance(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.timed(root, "facility", "Instance.Start", &u.start, in.Start); err != nil {
		return nil, err
	}

	var prev facility.Snapshot
	for at := facilityChunk; at <= facilitySpan; at += facilityChunk {
		var d time.Duration
		err := tr.timed(root, "facility", "Instance.Step", &d, func() error { return in.Step(ctx, at) })
		u.step += d
		if err != nil {
			return nil, fmt.Errorf("step to %v: %w", at, err)
		}
		var sn facility.Snapshot
		tr.timed(root, "facility", "Instance.Snapshot", &d, func() error { sn = in.Snapshot(); return nil }) //nolint:errcheck
		u.snapshots = append(u.snapshots, d)
		ops.check(sn.Now == at && sn.State == facility.InstanceRunning &&
			sn.Completed <= sn.Started && sn.Started <= sn.Submitted &&
			sn.Submitted >= prev.Submitted && sn.Completed >= prev.Completed &&
			sn.EventsDispatched >= prev.EventsDispatched && len(sn.Running) <= sn.Started,
			"unit %d hour %v: inconsistent snapshot now=%v state=%s submitted=%d started=%d completed=%d running=%d",
			unit, at, sn.Now, sn.State, sn.Submitted, sn.Started, sn.Completed, len(sn.Running))
		prev = sn
	}
	var res *facility.Result
	var d time.Duration
	if err := tr.timed(root, "facility", "Instance.Close", &d, func() (err error) {
		res, err = in.Close()
		return err
	}); err != nil {
		return nil, err
	}
	u.outcome = facilityOutcome{
		Submitted: res.Submitted, Completed: res.Completed,
		Events: res.EventsDispatched, EnergyJ: res.TotalEnergy.Joules(),
	}
	ops.check(res.Completed <= res.Submitted && res.Submitted == prev.Submitted && res.Submitted > 0,
		"unit %d: result submitted=%d completed=%d (last snapshot submitted=%d)",
		unit, res.Submitted, res.Completed, prev.Submitted)
	return u, nil
}

// derive maps the workload seed to an independent stream per input
// (splitmix64), so each generated input has its own seed.
func derive(seed, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
