// Command powerstackd is the power-management stack as a service: a
// long-running daemon hosting a facility simulation behind the versioned
// /v1 HTTP/JSON API (api/v1), with the obs debug surface (metrics,
// journal, traces, pprof) mounted on the same listener. Where cmd/facility
// runs a batch simulation to its horizon and exits, powerstackd paces the
// same re-entrant event core against the wall clock and accepts work over
// the wire: multi-tenant job submission under power quotas, live budget
// steps (with the full emergency preempt/throttle/kill machinery), live
// policy swaps, job and instance status, and SSE telemetry/event streams.
//
// Usage:
//
//	powerstackd [-addr localhost:8080] [-nodes N] [-policy MixedAdaptive]
//	            [-hours H] [-speedup X] [-quantum D]
//	            [-tick D] [-telemetry D] [-seed N]
//	            [-budget "12 kW"] [-budgetsteps "2h=8 kW"] [-emergency preempt]
//	            [-checkpoint K] [-tenants "acme=600 W,beta=1 kW"]
//	            [-interarrival D]
//	            [-crashes N] [-msrfaults N] [-dropouts N] [-slownodes N]
//	            [-budgetdrops N] [-faultseed N]
//	            [-metrics path] [-trace path] [-spans path] [-events path]
//
// -speedup sets the pacer's virtual-to-wall ratio (60 = one virtual minute
// per wall second); -quantum the virtual span advanced per pacer beat
// (default: one tick). -tenants installs power-quota admission partitions
// at boot (they can also be managed live via POST /v1/tenants).
//
// By default the Poisson arrival process is off and every job arrives via
// POST /v1/submit; -interarrival > 0 turns synthetic background traffic
// back on alongside external submissions. Chaos flags inject the usual
// deterministic fault plan into the hosted world — a service under crash
// and dropout chaos is the interesting demo.
//
// On SIGINT/SIGTERM the daemon drains HTTP (SSE clients included),
// finalizes the instance, prints the run summary, and dumps any requested
// observability artifacts.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"powerstack"
	"powerstack/internal/cliconf"
	"powerstack/internal/facility"
	"powerstack/internal/kernel"
	"powerstack/internal/obs"
	"powerstack/internal/service"
	"powerstack/internal/units"
	"powerstack/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("powerstackd: ")
	addr := flag.String("addr", "localhost:8080", "listen address (\":0\" picks a free port)")
	nNodes := flag.Int("nodes", 16, "cluster size")
	policyName := flag.String("policy", "MixedAdaptive", "initial power policy (swap live via POST /v1/policy)")
	hours := flag.Float64("hours", 168, "virtual horizon in hours")
	speedup := flag.Float64("speedup", 60, "pacer ratio: virtual seconds per wall second")
	quantum := flag.Duration("quantum", 0, "virtual span per pacer beat (default: one tick)")
	tick := flag.Duration("tick", time.Minute, "default telemetry cadence and pacer quantum")
	telemetry := flag.Duration("telemetry", 0, "telemetry sampling cadence (default: one sample per tick)")
	seed := flag.Uint64("seed", 1, "random seed")
	interarrival := flag.Duration("interarrival", 0, "mean arrival gap of synthetic background traffic (0 = external submissions only)")
	tenants := flag.String("tenants", "", "boot-time tenant quotas: comma-separated name=power pairs (e.g. \"acme=600 W,beta=1 kW\")")
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
	steps, err := budgetFlags.Steps()
	if err != nil {
		log.Fatal(err)
	}
	quotas, err := parseTenants(*tenants)
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
	sink := sys.EnableObservability()

	duration := time.Duration(*hours * float64(time.Hour))
	cfg := facility.Config{
		Nodes:           sys.Pool,
		DB:              sys.DB,
		Policy:          pol,
		SystemBudget:    budget,
		BudgetSteps:     steps,
		Emergency:       facility.EmergencyPolicy(budgetFlags.Emergency),
		CheckpointEvery: budgetFlags.Checkpoint,
		DisableArrivals: *interarrival <= 0,
		Duration:        duration,
		Tick:            *tick,
		TelemetryEvery:  *telemetry,
		Seed:            *seed,
		Obs:             sink,
	}
	if *interarrival > 0 {
		cfg.MeanInterarrival = *interarrival
		cfg.MinJobIterations = 2000
		cfg.MaxJobIterations = 20000
		cfg.JobSizes = []int{2, 4, 8}
		cfg.Workloads = workloads
	}
	if faultFlags.Any() {
		var ids []string
		for _, n := range sys.Pool {
			ids = append(ids, n.ID)
		}
		cfg.Faults = faultFlags.Plan(ids, duration)
		log.Printf("fault plan: %s", faultFlags)
	}

	host := service.NewHost(sink)
	if err := host.Add(service.InstanceConfig{
		Name: "main", Facility: cfg, Speedup: *speedup, Quantum: *quantum,
	}); err != nil {
		log.Fatal(err)
	}
	for _, q := range quotas {
		if err := host.SetTenantQuota("main", q.name, q.quota); err != nil {
			log.Fatal(err)
		}
		log.Printf("tenant %s: quota %v", q.name, q.quota)
	}

	srv, err := obs.ServeHandler(*addr, host.Handler())
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving /v1 on http://%s (%d nodes, %v budget, %s policy, %gx speedup, horizon %v)",
		srv.Addr(), len(sys.Pool), budget, pol.Name(), *speedup, duration)

	sigCtx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-sigCtx.Done()
	log.Print("shutting down...")

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("http drain: %v", err)
	}
	if err := host.Shutdown(drainCtx); err != nil {
		log.Printf("instance close: %v", err)
	}
	if res, err := host.Result("main"); err == nil {
		fmt.Printf("jobs:  %d submitted, %d started, %d completed, %d rejected\n",
			res.Submitted, res.Started, res.Completed, res.Rejected)
		if res.BudgetChanges > 0 {
			fmt.Printf("budget: %d changes, %d preempted, %d killed, %d resumed\n",
				res.BudgetChanges, res.Preempted, res.Killed, res.Resumed)
		}
	}
	if artifacts.Enabled() {
		if err := artifacts.Dump(sink); err != nil {
			log.Fatal(err)
		}
	}
}

type tenantQuota struct {
	name  string
	quota units.Power
}

// parseTenants parses the boot-time quota list, e.g. "acme=600 W,beta=1 kW".
func parseTenants(s string) ([]tenantQuota, error) {
	if s == "" {
		return nil, nil
	}
	var out []tenantQuota
	for _, part := range strings.Split(s, ",") {
		name, power, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("tenant quota %q: want name=power", part)
		}
		p, err := units.ParsePower(strings.TrimSpace(power))
		if err != nil {
			return nil, fmt.Errorf("tenant quota %q: %w", part, err)
		}
		out = append(out, tenantQuota{name: strings.TrimSpace(name), quota: p})
	}
	return out, nil
}
