package facility

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"powerstack/internal/fault"
	"powerstack/internal/units"
)

// TestConstantBudgetTimelineIsByteIdentical is the tentpole's no-op
// contract: a timeline that never changes the effective budget — same-value
// steps, an emergency policy, nothing else — must take the exact code paths
// of a run with no timeline at all, including EventsDispatched (no-op
// budget events are filtered, not dispatched). Faults are in play so the
// comparison covers the crash/requeue machinery too.
func TestConstantBudgetTimelineIsByteIdentical(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		run := func(mutate func(*Config)) *Result {
			cfg := goldenConfig(t)
			cfg.Faults = goldenFaults()
			if mutate != nil {
				mutate(&cfg)
			}
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		plain := run(nil)
		constant := run(func(c *Config) {
			c.BudgetSteps = []BudgetStep{
				{At: 0, Budget: c.SystemBudget},
				{At: 10 * time.Minute, Budget: c.SystemBudget},
			}
			c.Emergency = EmergencyPreempt
		})
		if !reflect.DeepEqual(plain, constant) {
			t.Errorf("constant timeline diverged from no timeline:\n  plain:    %+v\n  constant: %+v", plain, constant)
		}
	})
}

// TestBudgetStepAtZeroOverridesSystemBudget: a step at t=0 is the budget
// from the very beginning — byte-identical to configuring that value as
// SystemBudget directly.
func TestBudgetStepAtZeroOverridesSystemBudget(t *testing.T) {
	low := 1200 * units.Watt
	run := func(mutate func(*Config)) *Result {
		cfg := goldenConfig(t)
		mutate(&cfg)
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	direct := run(func(c *Config) { c.SystemBudget = low })
	stepped := run(func(c *Config) { c.BudgetSteps = []BudgetStep{{At: 0, Budget: low}} })
	if !reflect.DeepEqual(direct, stepped) {
		t.Errorf("step at t=0 diverged from direct SystemBudget:\n  direct:  %+v\n  stepped: %+v", direct, stepped)
	}
}

// TestBudgetStepBeyondHorizonIsInert: a step scheduled after the run ends
// never takes effect and never perturbs the run.
func TestBudgetStepBeyondHorizonIsInert(t *testing.T) {
	run := func(mutate func(*Config)) *Result {
		cfg := goldenConfig(t)
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	late := run(func(c *Config) {
		c.BudgetSteps = []BudgetStep{{At: c.Duration + time.Hour, Budget: 1 * units.Watt}}
	})
	if !reflect.DeepEqual(plain, late) {
		t.Errorf("beyond-horizon step perturbed the run:\n  plain: %+v\n  late:  %+v", plain, late)
	}
	if late.BudgetChanges != 0 {
		t.Errorf("beyond-horizon step counted as a change: %d", late.BudgetChanges)
	}
}

// TestBudgetStepsSameInstantLastWins pins the (time, declaration) tie-break
// on the timeline evaluation and the change-point filter.
func TestBudgetStepsSameInstantLastWins(t *testing.T) {
	nodes, db, workloads := facilityEnv(t, 4)
	cfg := baseConfig(nodes, db, workloads)
	cfg.BudgetSteps = []BudgetStep{
		{At: 5 * time.Minute, Budget: 700 * units.Watt},
		{At: 5 * time.Minute, Budget: 500 * units.Watt},
	}
	st, err := setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.scheduledBudget(5 * time.Minute); got != 500*units.Watt {
		t.Errorf("scheduledBudget(5m) = %v, want the last declaration 500 W", got)
	}
	if got := st.scheduledBudget(4 * time.Minute); got != cfg.SystemBudget {
		t.Errorf("scheduledBudget(4m) = %v, want SystemBudget %v", got, cfg.SystemBudget)
	}
	pts := st.budgetChangePoints()
	if len(pts) != 1 || pts[0] != 5*time.Minute {
		t.Errorf("budgetChangePoints = %v, want exactly [5m]", pts)
	}

	// Out-of-order declarations at distinct times sort stably by time.
	cfg2 := baseConfig(nodes, db, workloads)
	cfg2.BudgetSteps = []BudgetStep{
		{At: 10 * time.Minute, Budget: 600 * units.Watt},
		{At: 5 * time.Minute, Budget: 500 * units.Watt},
	}
	st2, err := setup(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.scheduledBudget(7 * time.Minute); got != 500*units.Watt {
		t.Errorf("scheduledBudget(7m) = %v, want 500 W", got)
	}
	if got := st2.scheduledBudget(11 * time.Minute); got != 600*units.Watt {
		t.Errorf("scheduledBudget(11m) = %v, want 600 W", got)
	}
}

// TestBudgetDropBelowInfeasibilityFloor drops the budget below every job's
// demand mid-run: the run must degrade (rejected submissions, shed jobs,
// journaled changes), never crash.
func TestBudgetDropBelowInfeasibilityFloor(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		nodes, db, workloads := facilityEnv(t, 6)
		cfg := baseConfig(nodes, db, workloads)
		cfg.BudgetSteps = []BudgetStep{{At: 10 * time.Minute, Budget: 1 * units.Watt}}
		cfg.CheckpointEvery = 50
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("infeasible drop crashed the run: %v", err)
		}
		if res.BudgetChanges == 0 {
			t.Error("drop never applied")
		}
		if res.Rejected == 0 {
			t.Error("no submission was rejected against the 1 W budget")
		}
		if res.Preempted == 0 {
			t.Error("no running job was preempted by the drop")
		}
	})
}

// TestEmergencyPreemptBeatsKill is the acceptance ranking: under the same
// shock plan, the same seeds, and the same checkpoint cadence, preemption
// completes strictly more jobs than killing — preempted jobs resume from
// their checkpoints when the budget recovers, killed jobs are gone.
func TestEmergencyPreemptBeatsKill(t *testing.T) {
	shock := func() *fault.Plan {
		return fault.NewPlan(fault.Injection{
			Kind: fault.BudgetDrop, At: 12 * time.Minute, Duration: 10 * time.Minute, Factor: 0.15,
		})
	}
	run := func(em EmergencyPolicy) *Result {
		nodes, db, workloads := facilityEnv(t, 8)
		cfg := baseConfig(nodes, db, workloads)
		cfg.Duration = 45 * time.Minute
		cfg.MeanInterarrival = 20 * time.Second
		cfg.Faults = shock()
		cfg.Emergency = em
		cfg.CheckpointEvery = 50
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	preempt := run(EmergencyPreempt)
	kill := run(EmergencyKill)
	throttle := run(EmergencyThrottle)
	if preempt.Preempted == 0 || kill.Killed == 0 {
		t.Fatalf("shock did not bite: preempted %d, killed %d", preempt.Preempted, kill.Killed)
	}
	if preempt.Resumed == 0 {
		t.Error("no preempted job ever resumed from its checkpoint")
	}
	if preempt.Completed <= kill.Completed {
		t.Errorf("preempt completed %d jobs, kill %d — preempt must strictly win", preempt.Completed, kill.Completed)
	}
	if throttle.Preempted != 0 || throttle.Killed != 0 {
		t.Errorf("throttle shed jobs: preempted %d, killed %d", throttle.Preempted, throttle.Killed)
	}
	// Both drop edges (onset and recovery) must be counted on every lane.
	for name, res := range map[string]*Result{"preempt": preempt, "kill": kill, "throttle": throttle} {
		if res.BudgetChanges != 2 {
			t.Errorf("%s: BudgetChanges = %d, want 2 (drop + recovery)", name, res.BudgetChanges)
		}
	}
}

// TestNonDivisibleDurationEnergyAgreement is the horizon-overshoot
// regression: with a Duration that is not a whole number of telemetry
// intervals, the run must stop exactly at Duration, take its final sample
// there, and integrate energy over the actual sample gaps — the last one
// partial — so TotalEnergy agrees with the trace and nothing is credited
// past the horizon.
func TestNonDivisibleDurationEnergyAgreement(t *testing.T) {
	odd := 30*time.Minute + 77*time.Second // 938.5 intervals of 2s
	cfg := goldenConfig(t)
	cfg.Duration = odd
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("empty trace")
	}
	epoch := time.Unix(0, 0).UTC()
	if last := res.Trace[len(res.Trace)-1].Time; !last.Equal(epoch.Add(odd)) {
		t.Errorf("final sample at %v, want exactly the horizon %v", last, epoch.Add(odd))
	}
	var energy units.Energy
	prev := epoch
	for _, s := range res.Trace {
		energy += units.EnergyOver(s.Power, s.Time.Sub(prev))
		prev = s.Time
	}
	if energy != res.TotalEnergy {
		t.Errorf("TotalEnergy %v, want the trace integral %v", res.TotalEnergy, energy)
	}
}

// TestFinalPartialWindowSamples is the cadence regression for the final
// partial telemetry window: Duration 90s at Tick 60s must produce exactly
// two samples — the 60s boundary and the 90s horizon.
func TestFinalPartialWindowSamples(t *testing.T) {
	nodes, db, workloads := facilityEnv(t, 6)
	cfg := baseConfig(nodes, db, workloads)
	cfg.Duration = 90 * time.Second
	cfg.Tick = time.Minute
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 2 {
		t.Fatalf("trace has %d samples, want 2 (60s boundary + 90s horizon)", len(res.Trace))
	}
	epoch := time.Unix(0, 0).UTC()
	if got := res.Trace[0].Time; !got.Equal(epoch.Add(time.Minute)) {
		t.Errorf("first sample at %v, want 60s", got)
	}
	if got := res.Trace[1].Time; !got.Equal(epoch.Add(90 * time.Second)) {
		t.Errorf("final sample at %v, want 90s", got)
	}
}

// TestValidateBudgetFields covers the new configuration knobs.
func TestValidateBudgetFields(t *testing.T) {
	nodes, db, workloads := facilityEnv(t, 4)
	base := func() Config { return baseConfig(nodes, db, workloads) }

	good := base()
	good.BudgetSteps = []BudgetStep{{At: time.Minute, Budget: 500 * units.Watt}}
	good.Emergency = EmergencyThrottle
	good.CheckpointEvery = 100
	if err := good.Validate(); err != nil {
		t.Errorf("valid budget config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"negative step time": func(c *Config) {
			c.BudgetSteps = []BudgetStep{{At: -time.Second, Budget: 500 * units.Watt}}
		},
		"non-positive step budget": func(c *Config) {
			c.BudgetSteps = []BudgetStep{{At: time.Minute}}
		},
		"infinite step budget": func(c *Config) {
			c.BudgetSteps = []BudgetStep{{At: time.Minute, Budget: units.Power(math.Inf(1))}}
		},
		"infinite system budget": func(c *Config) { c.SystemBudget = units.Power(math.Inf(1)) },
		"unknown emergency":      func(c *Config) { c.Emergency = "panic" },
		"negative checkpoint":    func(c *Config) { c.CheckpointEvery = -1 },
	} {
		bad := base()
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
