package main

import (
	"strings"
	"testing"
	"time"
)

func TestCompareOutcome(t *testing.T) {
	want := map[string]any{"submitted": 468.0, "completed": 322.0, "energy_j": 1000.0, "per": []any{1.0, 2.0}}
	tol := map[string]float64{"energy_j": 1e-6}
	same := map[string]any{"submitted": 468.0, "completed": 322.0, "energy_j": 1000.0000001, "per": []any{1.0, 2.0}}
	if d := compareOutcome(want, same, tol); len(d) != 0 {
		t.Errorf("energy within tolerance rejected: %v", d)
	}
	for name, tampered := range map[string]map[string]any{
		"count":   {"submitted": 468.0, "completed": 323.0, "energy_j": 1000.0, "per": []any{1.0, 2.0}},
		"energy":  {"submitted": 468.0, "completed": 322.0, "energy_j": 1000.01, "per": []any{1.0, 2.0}},
		"list":    {"submitted": 468.0, "completed": 322.0, "energy_j": 1000.0, "per": []any{2.0, 1.0}},
		"missing": {"submitted": 468.0, "energy_j": 1000.0, "per": []any{1.0, 2.0}},
	} {
		if d := compareOutcome(want, tampered, tol); len(d) != 1 {
			t.Errorf("%s: tampered outcome gave diffs %v, want exactly one", name, d)
		}
	}
	// Without a tolerance, energy must match exactly.
	if d := compareOutcome(want, same, nil); len(d) != 1 {
		t.Errorf("comparison without a tolerance accepted a changed energy: %v", d)
	}
}

// The pinned default-seed outcomes reject a tampered facility outcome and
// accept the pinned one.
func TestCheckOutcomeAgainstExpected(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"facility-100k", "campaign-chaos"} {
		e, ok := exp[name]
		if !ok {
			t.Fatalf("expected.json has no outcome for %s", name)
		}
		var ops tally
		if err := checkOutcome(name, defaultSeed, e.Outcome, t.TempDir(), "build", &ops); err != nil {
			t.Fatal(err)
		}
		if ops.failed != 0 || ops.attempted != 1 {
			t.Errorf("%s: pinned outcome: %d of %d checks failed: %v", name, ops.failed, ops.attempted, ops.problems)
		}
	}

	f := exp["facility-100k"].Outcome
	pinned := facilityOutcome{
		Submitted: int(f["submitted"].(float64)),
		Completed: int(f["completed"].(float64)),
		Events:    int(f["events"].(float64)),
		EnergyJ:   f["energy_j"].(float64),
	}
	tampered := pinned
	tampered.Completed--
	var ops tally
	if err := checkOutcome("facility-100k", defaultSeed, tampered, t.TempDir(), "build", &ops); err != nil {
		t.Fatal(err)
	}
	if ops.failed != 1 || !strings.Contains(strings.Join(ops.problems, " "), "completed") {
		t.Errorf("tampered completed count passed: %d failed, problems %v", ops.failed, ops.problems)
	}

	// A rounding re-baseline within the energy tolerance passes both the
	// pinned check and the run-to-run check against the parent's build.
	dir := t.TempDir()
	ops = tally{}
	if err := checkOutcome("facility-100k", defaultSeed, pinned, dir, "parent", &ops); err != nil {
		t.Fatal(err)
	}
	rebased := pinned
	rebased.EnergyJ *= 1 + 1e-9
	for _, build := range []string{"parent", "child", "child"} {
		if err := checkOutcome("facility-100k", defaultSeed, rebased, dir, build, &ops); err != nil {
			t.Fatal(err)
		}
	}
	if ops.failed != 0 {
		t.Errorf("rounding re-baseline failed: %v", ops.problems)
	}
}

// For other seeds, the first run of a build records the outcome and later
// runs of that build must reproduce it; another build's record is not
// compared.
func TestCheckOutcomeRunToRun(t *testing.T) {
	dir := t.TempDir()
	first := facilityOutcome{Submitted: 10, Completed: 5, Events: 40, EnergyJ: 123.5}
	var ops tally
	if err := checkOutcome("facility-100k", 42, first, dir, "a", &ops); err != nil {
		t.Fatal(err)
	}
	if ops.attempted != 0 {
		t.Fatalf("the first run of a seed has nothing to compare, counted %d", ops.attempted)
	}
	if err := checkOutcome("facility-100k", 42, first, dir, "a", &ops); err != nil {
		t.Fatal(err)
	}
	if ops.attempted != 1 || ops.failed != 0 {
		t.Fatalf("identical rerun: %d of %d failed", ops.failed, ops.attempted)
	}
	second := first
	second.Events++
	if err := checkOutcome("facility-100k", 42, second, dir, "a", &ops); err != nil {
		t.Fatal(err)
	}
	if ops.failed != 1 {
		t.Errorf("changed event count passed the run-to-run check")
	}

	// A different build whose behaviour changed starts its own record.
	ops = tally{}
	if err := checkOutcome("facility-100k", 42, second, dir, "b", &ops); err != nil {
		t.Fatal(err)
	}
	if ops.attempted != 0 || ops.failed != 0 {
		t.Errorf("another build's outcome was compared: %d of %d failed: %v", ops.failed, ops.attempted, ops.problems)
	}
}

func TestBuildIDStable(t *testing.T) {
	a, err := buildID()
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildID()
	if err != nil {
		t.Fatal(err)
	}
	if a != b || len(a) != 16 {
		t.Errorf("buildID = %q then %q", a, b)
	}
}

// The default seed's generated service inputs are pinned; the digest does
// not depend on the measurement time or on tracing.
func TestServiceScheduleDigest(t *testing.T) {
	for _, c := range []struct {
		measure time.Duration
		status  bool
	}{{time.Second, false}, {30 * time.Second, false}, {30 * time.Second, true}} {
		if d := planService(defaultSeed, c.measure, c.status).digest(); d != defaultScheduleDigest {
			t.Errorf("measure %v status %v: digest %s, want %s", c.measure, c.status, d, defaultScheduleDigest)
		}
	}
	if planService(defaultSeed+1, time.Second, false).digest() == defaultScheduleDigest {
		t.Error("another seed generated the default seed's inputs")
	}
}
