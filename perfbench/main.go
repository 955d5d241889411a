// Command perfbench is the repository's benchmark: three workloads, each
// driving one way the power stack is used, measured end to end with
// tracing off and attributed layer by layer in a separate traced run.
//
//	facility-100k   facility.Instance over 100k nodes, stepped hour by hour
//	campaign-chaos  campaign.Runner over a 64-node clean/chaos matrix
//	service-paced   an in-process powerstackd host under open-loop HTTP load
//
// Usage (from the repository root, through perfbench/run.sh, which builds
// this module first):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result: one JSON object with
// the keys correct, attempted, failed, and metrics. With --trace 0 the
// metrics are the end-to-end metrics BENCHMARK.json declares; with
// --trace 1 they are its per-layer metrics. Every workload reports all of
// them. The line before it is the full record (host fingerprint, sample
// counts, outcome, the workload's own figures, files written), which is
// also written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed whose simulated outcome is pinned in
// expected.json.
const defaultSeed = 1

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	measure time.Duration
	trace   bool
	// outDir receives the spans file and the Prometheus snapshot of a
	// traced run.
	outDir string
	// stem prefixes every file the run writes.
	stem string
}

// report is what a workload returns: its metrics, the operation tally,
// the sample count behind every median and percentile, and the
// deterministic outcome the correctness check compares. e2e and layer
// hold the declared metrics; detail holds the figures that belong to this
// workload only, which go to the record.
type report struct {
	e2e     map[string]metric
	layer   map[string]metric
	detail  map[string]metric
	samples map[string]int
	ops     tally
	outcome any
	files   []string
	// note qualifies the run's figures in the record.
	note string
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, detail: map[string]metric{}, samples: map[string]int{}}
}

// workloadFunc runs one benchmark workload.
type workloadFunc func(rc runConfig) (*report, error)

var workloads = map[string]workloadFunc{
	"facility-100k":  runFacility,
	"campaign-chaos": runCampaign,
	"service-paced":  runService,
}

// record is the full result, written beside the traced files and printed
// on the line before the result.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   int                `json:"seconds"`
	Host      host               `json:"host"`
	Result    result             `json:"result"`
	Samples   map[string]int     `json:"samples"`
	Problems  []string           `json:"problems,omitempty"`
	Outcome   any                `json:"outcome,omitempty"`
	E2E       map[string]metric  `json:"end_to_end"`
	Detail    map[string]metric  `json:"detail"`
	Overhead  map[string]float64 `json:"tracing_overhead,omitempty"`
	Reference string             `json:"overhead_reference,omitempty"`
	Files     []string           `json:"files,omitempty"`
	Note      string             `json:"note,omitempty"`
}

// host is the fingerprint recorded with every result.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

func fingerprint() host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the processor name on Linux; elsewhere it is "unknown".
func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	name := flag.String("workload", "", "workload: facility-100k, campaign-chaos, or service-paced")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for records, spans, and metric snapshots")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, out string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: must be at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: must be 0 or 1", trace)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	rc := runConfig{
		seed:    seed,
		measure: time.Duration(seconds) * time.Second,
		trace:   trace == 1,
		outDir:  out,
		stem:    fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace),
	}
	rep, err := wl(rc)
	if err != nil {
		return err
	}
	if rep.outcome != nil {
		build, err := buildID()
		if err != nil {
			return err
		}
		if err := checkOutcome(name, seed, rep.outcome, out, build, &rep.ops); err != nil {
			return err
		}
	}
	rep.put(rep.e2e, "ok_frac", "fraction", rep.ops.okFrac(), rep.ops.attempted)
	if err := checkNames(rep); err != nil {
		return err
	}

	metrics, err := declared(rep.e2e, endToEnd)
	if rc.trace && err == nil {
		metrics, err = declared(rep.layer, perLayer)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}

	res := result{
		Correct:   rep.ops.failed == 0 && rep.ops.attempted > 0,
		Attempted: rep.ops.attempted,
		Failed:    rep.ops.failed,
		Metrics:   metrics,
	}
	rec := record{
		Workload: name, Seed: seed, Trace: rc.trace, Seconds: seconds,
		Host: fingerprint(), Samples: rep.samples, Problems: rep.ops.problems,
		Outcome: rep.outcome, E2E: rep.e2e, Detail: rep.detail, Files: rep.files, Note: rep.note,
	}
	if rc.trace {
		rec.Overhead, rec.Reference = tracingOverhead(out, name, seed, rep.e2e)
	}
	rec.Result = res

	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, rc.stem+".record.json"), append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println(string(buf))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// tracingOverhead compares a traced run's end-to-end numbers with the
// untraced record of the same workload and seed, and returns traced minus
// untraced per metric.
func tracingOverhead(dir, name string, seed uint64, traced map[string]metric) (map[string]float64, string) {
	p := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace0.record.json", name, seed))
	buf, err := os.ReadFile(p)
	var ref record
	if err != nil || json.Unmarshal(buf, &ref) != nil {
		return nil, "none: run the workload untraced with the same seed first"
	}
	diff := map[string]float64{}
	for k, m := range traced {
		if r, ok := ref.E2E[k]; ok {
			diff[k] = m.Value - r.Value
		}
	}
	return diff, filepath.Base(p)
}
