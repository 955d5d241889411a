// Command scalebench gates the 100k-node scale push: it times the facility
// simulation's scale path (hierarchical replan rounds, incremental cap
// writes, incremental telemetry) against the compat path (ScaleCompat: the
// flat replan and recursive telemetry sampling) across cluster sizes, and
// writes the comparison to BENCH_scale.json. Both lanes run on the event
// core with the same cached cap encoding.
//
// The compat lane runs only up to -compatmax nodes (default 10000) — the
// point of the scale path is that the compat path stops being usable above
// that — while the scale lane runs every size, including 100000 nodes for a
// simulated week. The headline number is the speedup at the largest size
// both lanes ran.
//
// Usage:
//
//	scalebench [-sizes 1000,10000,100000] [-days 7] [-compatmax 10000]
//	           [-telemetry 30m] [-interarrival 3m] [-seed 7]
//	           [-out BENCH_scale.json] [-cpuprofile prof.out] [-memprofile mem.out]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/cliconf"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/facility"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/policy"
	"powerstack/internal/units"
)

type laneReport struct {
	Seconds          float64 `json:"seconds"`
	EventsDispatched int     `json:"events_dispatched"`
	Submitted        int     `json:"submitted"`
	Completed        int     `json:"completed"`
	MeanPowerW       float64 `json:"mean_power_watts"`
	TotalEnergyJ     float64 `json:"total_energy_joules"`
}

type sizeReport struct {
	Nodes   int         `json:"nodes"`
	Compat  *laneReport `json:"compat,omitempty"`
	Scale   *laneReport `json:"scale"`
	Speedup float64     `json:"speedup,omitempty"`
}

type report struct {
	DurationHours     float64 `json:"duration_hours"`
	TelemetrySeconds  float64 `json:"telemetry_every_seconds"`
	InterarrivalHours float64 `json:"interarrival_hours"`
	Seed              uint64  `json:"seed"`
	// GOMAXPROCS and NumCPU describe the host the wall clocks were taken
	// on.
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Sizes      []sizeReport `json:"sizes"`
	// SpeedupAtLargestCommon is the headline: compat seconds over scale
	// seconds at the largest size both lanes completed.
	SpeedupAtLargestCommon float64 `json:"speedup_at_largest_common"`
}

func env(nNodes int) ([]*node.Node, *charz.DB, []kernel.Config, error) {
	c, err := cluster.New(nNodes+4, cpumodel.Quartz(), cpumodel.QuartzVariation(), 41)
	if err != nil {
		return nil, nil, nil, err
	}
	scratch := c.Nodes()[nNodes:]
	workloads := []kernel.Config{
		{Intensity: 8, Vector: kernel.YMM, Imbalance: 1},
		{Intensity: 0.5, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 2},
		{Intensity: 32, Vector: kernel.XMM, Imbalance: 1},
	}
	db, err := charz.CharacterizeAll(context.Background(), workloads, scratch, charz.Options{
		MonitorIters: 5, BalancerIters: 30, Seed: 3, NoiseSigma: 0,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return c.Nodes()[:nNodes], db, workloads, nil
}

// runLane runs one lane and returns its timing and outcome.
func runLane(nNodes int, mode string, duration, telemetry, interarrival time.Duration, seed uint64) (*laneReport, error) {
	// Fresh pool per lane: the simulation mutates node state.
	nodes, db, workloads, err := env(nNodes)
	if err != nil {
		return nil, err
	}
	cfg := facility.Config{
		Engine:           facility.EngineEvent,
		ScaleMode:        mode,
		Nodes:            nodes,
		DB:               db,
		Policy:           policy.MixedAdaptive{},
		SystemBudget:     units.Power(nNodes) * 200 * units.Watt,
		MeanInterarrival: interarrival,
		// Long jobs at sizes that keep a large slice of the pool busy, so
		// every replan round re-caps a meaningful host set.
		MinJobIterations: 700000,
		MaxJobIterations: 1000000,
		JobSizes:         []int{8, 16, 32},
		Workloads:        workloads,
		Duration:         duration,
		Tick:             30 * time.Second,
		TelemetryEvery:   telemetry,
		Seed:             seed,
	}
	// The previous lane's discarded pool is garbage; collect it now so its
	// sweep cost doesn't land inside this lane's timed window.
	runtime.GC()
	log.Printf("%6d nodes, %-6s lane: simulating %v...", nNodes, mode, duration)
	start := time.Now()
	res, err := facility.Run(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	lr := &laneReport{
		Seconds:          wall.Seconds(),
		EventsDispatched: res.EventsDispatched,
		Submitted:        res.Submitted,
		Completed:        res.Completed,
		MeanPowerW:       res.MeanPower.Watts(),
		TotalEnergyJ:     res.TotalEnergy.Joules(),
	}
	log.Printf("%6d nodes, %-6s lane: %v wall, %d events, %d/%d jobs completed",
		nNodes, mode, wall.Round(time.Millisecond), lr.EventsDispatched, lr.Completed, lr.Submitted)
	return lr, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("scalebench: ")
	sizes := flag.String("sizes", "1000,10000,100000", "comma-separated cluster sizes")
	days := flag.Float64("days", 7, "simulated span in days")
	compatMax := flag.Int("compatmax", 10000, "largest size the compat lane runs at")
	telemetry := flag.Duration("telemetry", 30*time.Minute, "telemetry sampling cadence")
	interarrival := flag.Duration("interarrival", 3*time.Minute, "mean job inter-arrival time")
	seed := flag.Uint64("seed", 7, "random seed")
	out := flag.String("out", "BENCH_scale.json", "output JSON path")
	profiles := cliconf.RegisterProfiles(flag.CommandLine)
	flag.Parse()

	if err := profiles.Start(); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := profiles.Stop(); err != nil {
			log.Fatal(err)
		}
	}()

	var ns []int
	for _, f := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			log.Fatalf("-sizes: bad size %q", f)
		}
		ns = append(ns, n)
	}

	duration := time.Duration(*days * 24 * float64(time.Hour))
	rep := report{
		DurationHours:     *days * 24,
		TelemetrySeconds:  telemetry.Seconds(),
		InterarrivalHours: interarrival.Hours(),
		Seed:              *seed,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		NumCPU:            runtime.NumCPU(),
	}
	for _, n := range ns {
		sr := sizeReport{Nodes: n}
		if n <= *compatMax {
			lr, err := runLane(n, facility.ScaleCompat, duration, *telemetry, *interarrival, *seed)
			if err != nil {
				log.Fatal(err)
			}
			sr.Compat = lr
		}
		lr, err := runLane(n, facility.ScaleOn, duration, *telemetry, *interarrival, *seed)
		if err != nil {
			log.Fatal(err)
		}
		sr.Scale = lr
		if sr.Compat != nil && sr.Scale.Seconds > 0 {
			sr.Speedup = sr.Compat.Seconds / sr.Scale.Seconds
			rep.SpeedupAtLargestCommon = sr.Speedup
			log.Printf("%6d nodes: %.2fx speedup (compat %.2fs / scale %.2fs)",
				n, sr.Speedup, sr.Compat.Seconds, sr.Scale.Seconds)
		}
		rep.Sizes = append(rep.Sizes, sr)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}
