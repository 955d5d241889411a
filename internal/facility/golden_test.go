package facility

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"powerstack/internal/fault"
)

// goldenConfig is the pinned golden scenario: light enough that every job
// starts on arrival, long enough that completions, a crash, a repair, and a
// slow-node window all land well inside the horizon.
func goldenConfig(t *testing.T) Config {
	t.Helper()
	nodes, db, workloads := facilityEnv(t, 10)
	cfg := baseConfig(nodes, db, workloads)
	cfg.MeanInterarrival = 90 * time.Second
	cfg.MinJobIterations = 1000
	cfg.MaxJobIterations = 3000
	cfg.JobSizes = []int{2, 3}
	cfg.Duration = 30 * time.Minute
	cfg.Tick = 2 * time.Second
	cfg.Seed = 11
	return cfg
}

// goldenFaults is the non-empty plan the golden also runs under: a mid-run
// crash with a scheduled repair and a bounded slow-node window.
func goldenFaults() *fault.Plan {
	return fault.NewPlan(
		fault.Injection{Kind: fault.NodeCrash, Node: "quartz0001", At: 5 * time.Minute, RepairAfter: 10 * time.Minute},
		fault.Injection{Kind: fault.SlowNode, Node: "quartz0002", At: 7 * time.Minute, Duration: 8 * time.Minute, Factor: 1.4},
	)
}

// assertGolden runs cfg and compares the JSON of its Result byte for byte
// against a recorded file under testdata/. The files pin the event core's
// output — every trace sample, counter, and aggregate — so any change to
// what the simulation computes shows up here.
func assertGolden(t *testing.T, cfg Config, file string) *Result {
	t.Helper()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("Result diverged from %s at byte %d of %d (want %d bytes):\n got:  …%s\n want: …%s",
			file, i, len(got), len(want), excerpt(got, i), excerpt(want, i))
	}
	return res
}

// excerpt returns up to 80 bytes of b starting a little before offset i.
func excerpt(b []byte, i int) []byte {
	lo := max(i-20, 0)
	return b[lo:min(lo+80, len(b))]
}

func TestEventCoreGolden(t *testing.T) {
	assertGolden(t, goldenConfig(t), "event_golden.json")
}

func TestEventCoreGoldenUnderFaults(t *testing.T) {
	cfg := goldenConfig(t)
	cfg.Faults = goldenFaults()
	res := assertGolden(t, cfg, "event_golden_faults.json")
	// The plan must actually bite for the golden to cover faults.
	if res.Quarantined == 0 || res.Rejoined == 0 {
		t.Fatalf("golden fault plan did not fire: quarantined %d, rejoined %d", res.Quarantined, res.Rejoined)
	}
}

// TestEventEngineByteIdenticalBySeed asserts full Result equality — trace
// samples, counters, aggregates — across two event-engine runs with the
// same seed on fresh identical clusters, including under a fault plan.
func TestEventEngineByteIdenticalBySeed(t *testing.T) {
	run := func() *Result {
		cfg := goldenConfig(t)
		cfg.Faults = goldenFaults()
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("event-engine runs with the same seed differ:\n  a: %+v\n  b: %+v", a, b)
	}
}

// TestQueuedAtEndExcludedFromWait saturates a tiny pool so late arrivals
// never start, and asserts the Result's documented accounting: QueuedAtEnd
// is exactly the submitted-but-never-started count, and MeanQueueWait
// averages only over started jobs.
func TestQueuedAtEndExcludedFromWait(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		nodes, db, workloads := facilityEnv(t, 4)
		cfg := baseConfig(nodes, db, workloads)
		// Size-3 jobs on a 4-node pool: one runs, everything behind it
		// queues (a second would need 3 of the 1 free node).
		cfg.JobSizes = []int{3}
		cfg.MeanInterarrival = time.Minute
		cfg.MinJobIterations = 20000
		cfg.MaxJobIterations = 21000
		cfg.Duration = 20 * time.Minute
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.QueuedAtEnd == 0 {
			t.Fatal("saturated pool left no jobs queued; scenario broken")
		}
		if got, want := res.QueuedAtEnd, res.Submitted-res.Started; got != want {
			t.Errorf("QueuedAtEnd = %d, want Submitted-Started = %d", got, want)
		}
		if res.Started == 0 {
			t.Fatal("no job ever started")
		}
		// Waits reflect only the started jobs: with one job hogging the
		// pool for the whole run, the first start is immediate and the
		// mean wait must stay far below the queue age of the stuck jobs.
		if res.MeanQueueWait > cfg.Duration/2 {
			t.Errorf("MeanQueueWait %v looks like it averaged never-started jobs", res.MeanQueueWait)
		}
	})
}

// TestExpDurationNeverZero is the regression test for the arrival-chain
// stall: a mean so small that sampled gaps truncate to zero must clamp to
// at least 1ns, or each arrival schedules the next at the same instant and
// the chain spins forever.
func TestExpDurationNeverZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100000; i++ {
		if d := expDuration(rng, time.Nanosecond); d < time.Nanosecond {
			t.Fatalf("draw %d: gap %v below 1ns", i, d)
		}
	}
}

// TestValidateEngineFields covers the engine-selection field and the
// cadence knobs: the deprecated Engine accepts only the event core, and
// any positive telemetry or replan cadence is fine.
func TestValidateEngineFields(t *testing.T) {
	nodes, db, workloads := facilityEnv(t, 4)
	base := func() Config { return baseConfig(nodes, db, workloads) }

	for _, eng := range []string{"", EngineEvent} {
		good := base()
		good.Engine = eng
		good.TelemetryEvery = good.Tick/2 + time.Second
		good.ReplanEvery = good.Tick + time.Second
		if err := good.Validate(); err != nil {
			t.Errorf("valid config with engine %q rejected: %v", eng, err)
		}
	}
	for name, mutate := range map[string]func(*Config){
		"removed tick engine":        func(c *Config) { c.Engine = "tick" },
		"unknown engine":             func(c *Config) { c.Engine = "warp" },
		"negative telemetry cadence": func(c *Config) { c.TelemetryEvery = -time.Second },
		"negative replan cadence":    func(c *Config) { c.ReplanEvery = -time.Second },
	} {
		bad := base()
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
