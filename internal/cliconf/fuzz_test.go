package cliconf

import (
	"math"
	"testing"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/cluster"
	"powerstack/internal/cpumodel"
	"powerstack/internal/facility"
)

// FuzzParseBudgetSteps fuzzes the -budgetsteps trust boundary: for any
// input, ParseBudgetSteps either errors or returns steps that
// facility.Config.Validate accepts or rejects with an error — it never
// panics — and a timeline Validate accepts holds only non-negative offsets
// and finite, positive budgets.
func FuzzParseBudgetSteps(f *testing.F) {
	c, err := cluster.New(1, cpumodel.Quartz(), cpumodel.QuartzVariation(), 1)
	if err != nil {
		f.Fatal(err)
	}
	base := facility.Config{
		Nodes:           c.Nodes(),
		DB:              charz.NewDB(),
		SystemBudget:    1000,
		DisableArrivals: true,
		Duration:        time.Hour,
		Tick:            30 * time.Second,
	}
	if err := base.Validate(); err != nil {
		f.Fatalf("base config rejected: %v", err)
	}
	// The seed corpus lives in testdata/fuzz/FuzzParseBudgetSteps.
	f.Fuzz(func(t *testing.T, s string) {
		steps, err := ParseBudgetSteps(s)
		if err != nil {
			return
		}
		cfg := base
		cfg.BudgetSteps = steps
		if cfg.Validate() != nil {
			return
		}
		for i, st := range steps {
			b := st.Budget.Watts()
			if st.At < 0 || !(b > 0) || math.IsInf(b, 0) {
				t.Fatalf("Validate accepted step %d of %q: %+v", i, s, st)
			}
		}
	})
}
