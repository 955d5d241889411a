// Command facility runs the machine-room simulation end to end: Poisson
// job arrivals, power-aware scheduling against node and watt budgets, a
// Section III policy distributing per-host caps, and facility-level
// telemetry — producing, bottom-up, the kind of power trace Figure 1 shows
// top-down, along with scheduler statistics.
//
// With chaos flags, a deterministic fault plan drives crashes, MSR faults,
// and telemetry dropouts through the run, exercising the stack's graceful
// degradation (quarantine, requeue, rejoin, sample holds).
//
// Usage:
//
//	facility [-nodes N] [-hours H] [-budget "50 kW"] [-policy MixedAdaptive]
//	         [-interarrival 45s] [-seed N] [-telemetry 5m]
//	         [-budgetsteps "2h=8 kW,3h=12 kW"] [-emergency preempt|throttle|kill]
//	         [-checkpoint K] [-budgetdrops N]
//	         [-crashes N] [-msrfaults N] [-dropouts N] [-slownodes N] [-faultseed N]
//	         [-metrics path] [-trace path] [-spans path] [-events path]
//	         [-debug addr]
//
// The simulation advances a virtual clock between arrivals, completions,
// faults, and telemetry samples; -telemetry sets the sampling cadence.
//
// -budgetsteps makes the system budget a timeline: comma-separated
// "offset=power" pairs schedule budget changes at those offsets from run
// start. -budgetdrops adds N randomized demand-response emergencies
// (temporary fractional budget drops) to the generated fault plan.
// -emergency picks the response when a drop strands running jobs above the
// new budget — preempt at the last checkpoint (default), throttle
// everyone, or kill — and -checkpoint sets the checkpoint cadence in
// iterations (0 disables; preempted jobs then restart from scratch).
//
// The artifact flags enable observability and dump the run's telemetry:
// -metrics writes a Prometheus snapshot, -trace a Chrome trace_event JSON
// whose events and spans are stamped with virtual (simulated) time, -spans
// the raw span log as JSONL (render with "obsdump spans"), and -events the
// decision-event journal. "-" writes to stdout.
//
// -debug serves the live observability surface (Prometheus /metrics, SSE
// streams, pprof) on the given address for the duration of the run and
// drains it — SSE clients included — before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"powerstack"
	"powerstack/internal/cliconf"
	"powerstack/internal/kernel"
	"powerstack/internal/report"
	"powerstack/internal/units"
	"powerstack/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("facility: ")
	nNodes := flag.Int("nodes", 64, "cluster size")
	hours := flag.Float64("hours", 4, "simulated span in hours")
	policyName := flag.String("policy", "MixedAdaptive", "power policy for the running set")
	interarrival := flag.Duration("interarrival", 45*time.Second, "mean job inter-arrival time")
	seed := flag.Uint64("seed", 1, "random seed")
	telemetry := flag.Duration("telemetry", 0, "telemetry sampling cadence (default: one sample per tick)")
	debugAddr := flag.String("debug", "", "serve the live debug surface (/metrics, /stream/*, pprof) here during the run (\":0\" picks a port)")
	budgetFlags := cliconf.RegisterBudget(flag.CommandLine, workload.CheckpointInterval(2000, 20000))
	faultFlags := cliconf.RegisterFaults(flag.CommandLine)
	artifacts := cliconf.RegisterArtifacts(flag.CommandLine)
	flag.Parse()
	ctx := context.Background()

	pol, err := powerstack.PolicyByName(*policyName)
	if err != nil {
		log.Fatal(err)
	}

	budget, err := budgetFlags.Power(units.Power(*nNodes) * 200 * units.Watt)
	if err != nil {
		log.Fatal(err)
	}

	sys, err := powerstack.NewSystem(powerstack.Options{ClusterSize: *nNodes + 8, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	workloads := []kernel.Config{
		{Intensity: 0.25, Vector: kernel.YMM, Imbalance: 1},
		{Intensity: 8, Vector: kernel.YMM, Imbalance: 1},
		{Intensity: 32, Vector: kernel.YMM, Imbalance: 1},
		{Intensity: 1, Vector: kernel.YMM, WaitingPct: 50, Imbalance: 2},
		{Intensity: 16, Vector: kernel.YMM, WaitingPct: 75, Imbalance: 3},
		{Intensity: 8, Vector: kernel.XMM, Imbalance: 1},
	}
	log.Printf("characterizing %d workloads...", len(workloads))
	if err := sys.Characterize(ctx, workloads, powerstack.QuickCharacterization()); err != nil {
		log.Fatal(err)
	}

	duration := time.Duration(*hours * float64(time.Hour))
	if artifacts.Enabled() {
		sys.EnableObservability()
	}
	if faultFlags.Any() {
		var ids []string
		for _, n := range sys.Pool {
			ids = append(ids, n.ID)
		}
		sys.Faults = faultFlags.Plan(ids, duration)
		log.Printf("fault plan: %s", faultFlags)
		sys.EnableObservability()
	}

	if *debugAddr != "" {
		srv, err := sys.ServeDebug(ctx, *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug surface on http://%s", srv.Addr())
		defer func() {
			drain, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(drain); err != nil {
				log.Printf("debug drain: %v", err)
			}
		}()
	}

	steps, err := budgetFlags.Steps()
	if err != nil {
		log.Fatal(err)
	}

	cfg := powerstack.FacilityConfig{
		Policy:           pol,
		SystemBudget:     budget,
		BudgetSteps:      steps,
		Emergency:        powerstack.EmergencyPolicy(budgetFlags.Emergency),
		CheckpointEvery:  budgetFlags.Checkpoint,
		MeanInterarrival: *interarrival,
		MinJobIterations: 2000,
		MaxJobIterations: 20000,
		JobSizes:         []int{2, 4, 8, 16},
		Workloads:        workloads,
		Duration:         duration,
		Tick:             time.Minute,
		TelemetryEvery:   *telemetry,
		Seed:             *seed,
	}
	log.Printf("simulating %v over %d nodes under %v (%s policy)...",
		cfg.Duration, len(sys.Pool), budget, pol.Name())
	start := time.Now()
	res, err := sys.RunFacility(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("done in %v wall time (%d events dispatched)",
		time.Since(start).Round(time.Millisecond), res.EventsDispatched)

	// Downsample the trace into a line chart.
	chart := report.LineChart{
		Title: fmt.Sprintf("facility power (budget %v)", budget),
		YUnit: " kW",
		Max:   budget.Kilowatts(),
		Width: 56,
	}
	buckets := 24
	if len(res.Trace) < buckets {
		buckets = len(res.Trace)
	}
	per := len(res.Trace) / buckets
	for b := 0; b < buckets; b++ {
		sum := 0.0
		for i := b * per; i < (b+1)*per; i++ {
			sum += res.Trace[i].Power.Kilowatts()
		}
		label := res.Trace[b*per].Time.Format("15:04")
		chart.Add(label, sum/float64(per))
	}
	fmt.Fprint(os.Stdout, chart.String())

	fmt.Printf("\njobs:  %d submitted, %d started, %d completed\n", res.Submitted, res.Started, res.Completed)
	fmt.Printf("queue: mean wait %v\n", res.MeanQueueWait.Round(time.Second))
	fmt.Printf("nodes: %.1f%% mean utilization\n", 100*res.MeanNodeUtilization)
	fmt.Printf("power: mean %v, peak %v (budget %v, %d violation ticks)\n",
		res.MeanPower, res.PeakPower, budget, res.BudgetViolationTicks)
	fmt.Printf("energy: %v CPU total\n", res.TotalEnergy)
	if res.Quarantined+res.Requeued+res.Rejoined > 0 {
		fmt.Printf("faults: %d nodes quarantined, %d rejoined, %d jobs requeued\n",
			res.Quarantined, res.Rejoined, res.Requeued)
	}
	if res.BudgetChanges > 0 {
		fmt.Printf("budget: %d changes, %d jobs preempted, %d killed, %d resumed from checkpoint, %d rejected\n",
			res.BudgetChanges, res.Preempted, res.Killed, res.Resumed, res.Rejected)
	}

	if artifacts.Enabled() {
		if err := artifacts.Dump(sys.Obs); err != nil {
			log.Fatal(err)
		}
	}
}
