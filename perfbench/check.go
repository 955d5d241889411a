package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
)

// expectedJSON pins, per workload, the simulated outcome of the default
// seed. Counts compare exactly; a field listed under rel_tol compares
// within that relative tolerance. Energy carries a tolerance so a
// documented rounding re-baseline (crediting split differently) can pass
// while a change in behaviour fails.
//
//go:embed expected.json
var expectedJSON []byte

type expectation struct {
	Outcome map[string]any     `json:"outcome"`
	RelTol  map[string]float64 `json:"rel_tol"`
}

func loadExpected() (map[string]expectation, error) {
	var m map[string]expectation
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// asMap renders an outcome as its JSON object form.
func asMap(v any) (map[string]any, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	err = json.Unmarshal(buf, &m)
	return m, err
}

// compareOutcome lists every field where got differs from want: exactly,
// or beyond relTol for the fields it names.
func compareOutcome(want, got map[string]any, relTol map[string]float64) []string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	var diffs []string
	for _, k := range names {
		w, g := want[k], got[k]
		if tol, ok := relTol[k]; ok {
			wf, wok := w.(float64)
			gf, gok := g.(float64)
			if wok && gok && math.Abs(gf-wf) <= tol*math.Abs(wf) {
				continue
			}
		} else if reflect.DeepEqual(w, g) {
			continue
		}
		diffs = append(diffs, fmt.Sprintf("%s: want %v, got %v", k, brief(w), brief(g)))
	}
	return diffs
}

// brief keeps long values (per-scenario lists) readable in problem lines.
func brief(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 120 {
		s = s[:117] + "..."
	}
	return s
}

// buildID fingerprints the running executable, so the run-to-run check
// compares only outcomes of the same code: a change that moves the
// outcome on purpose starts a fresh record instead of failing against the
// parent's.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkOutcome counts up to two operations: the outcome against
// expected.json (default seed only), and the outcome against the first run
// of the same seed by the same build in this output directory, which
// records it. Both comparisons apply expected.json's tolerances.
func checkOutcome(name string, seed uint64, outcome any, dir, build string, ops *tally) error {
	got, err := asMap(outcome)
	if err != nil {
		return err
	}
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	e, ok := exp[name]
	if seed == defaultSeed {
		if !ok {
			ops.fail("expected.json has no outcome for %s", name)
		} else {
			diffs := compareOutcome(e.Outcome, got, e.RelTol)
			ops.check(len(diffs) == 0, "seed %d outcome differs from expected.json: %v", seed, diffs)
		}
	}

	path := filepath.Join(dir, "outcomes", fmt.Sprintf("%s-seed%d-%s.json", name, seed, build))
	prev, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		buf, err := json.Marshal(got)
		if err != nil {
			return err
		}
		return os.WriteFile(path, buf, 0o644)
	}
	if err != nil {
		return err
	}
	var want map[string]any
	if err := json.Unmarshal(prev, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	diffs := compareOutcome(want, got, e.RelTol)
	ops.check(len(diffs) == 0, "seed %d outcome differs from an earlier run of this build: %v", seed, diffs)
	return nil
}
