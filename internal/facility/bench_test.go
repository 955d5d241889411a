package facility

import (
	"context"
	"testing"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
)

// benchEnv is facilityEnv without the *testing.T plumbing so benchmarks
// can rebuild a fresh pool per run — the simulation mutates node state, so
// pools cannot be reused across runs.
func benchEnv(nNodes int) ([]*node.Node, *charz.DB, []kernel.Config, error) {
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

// BenchmarkFacilityEvent runs the facility on a medium, lightly loaded
// machine room — the regime the event core is built for, where most of
// virtual time has nothing happening. events/op reports the dispatch work
// alongside the wall time.
func BenchmarkFacilityEvent(b *testing.B) {
	const nNodes = 128
	var events int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nodes, db, workloads, err := benchEnv(nNodes)
		if err != nil {
			b.Fatal(err)
		}
		cfg := baseConfig(nodes, db, workloads)
		cfg.MeanInterarrival = 3 * time.Minute
		cfg.MinJobIterations = 20000
		cfg.MaxJobIterations = 40000
		cfg.JobSizes = []int{2, 4}
		cfg.Duration = 6 * time.Hour
		cfg.Tick = 30 * time.Second
		cfg.TelemetryEvery = 30 * time.Minute
		b.StartTimer()
		res, err := Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.EventsDispatched
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
