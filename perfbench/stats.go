package main

import (
	"fmt"
	"math"
	"regexp"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks) and the number of samples it rests on. An empty input
// yields NaN.
func quantile(xs []float64, q float64) (float64, int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	return v, len(s)
}

// median is quantile(xs, 0.5).
func median(xs []float64) (float64, int) { return quantile(xs, 0.5) }

// medianSeconds is the median over units of one timing, in seconds.
func medianSeconds[U any](units []U, f func(U) time.Duration) (float64, int) {
	xs := make([]float64, len(units))
	for i, u := range units {
		xs[i] = f(u).Seconds()
	}
	return median(xs)
}

// tailSupported reports whether a q-quantile over n samples has at least
// ten samples beyond it — the bar a reported tail percentile must meet.
func tailSupported(q float64, n int) bool {
	return float64(n)*(1-q) >= 10
}

// put stores one metric and, when n > 0, the sample count behind it.
func (r *report) put(dst map[string]metric, name, unit string, v float64, n int) {
	dst[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		r.samples[name] = n
	}
}

// tally counts operations and keeps the first few problems verbatim.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

const maxProblems = 20

// ok counts one operation that passed.
func (t *tally) ok() { t.mu.Lock(); t.attempted++; t.mu.Unlock() }

// fail counts one operation that failed or did not pass its check.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one operation, failed when cond is false.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.ok()
		return
	}
	t.fail(format, args...)
}

// okFrac is the share of operations that passed.
func (t *tally) okFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames rejects a report whose metric names fall outside the
// benchmark's name alphabet.
func checkNames(r *report) error {
	for _, m := range []map[string]metric{r.e2e, r.layer, r.detail} {
		for name, v := range m {
			if !metricName.MatchString(name) {
				return fmt.Errorf("metric name %q outside [A-Za-z0-9_.-]", name)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				return fmt.Errorf("metric %s is %v", name, v.Value)
			}
		}
	}
	return nil
}

// heapWatch samples the live heap (as marked by the latest GC) in the
// background and keeps the peak. Reading a runtime/metrics sample does
// not stop the world.
type heapWatch struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

const liveHeap = "/gc/heap/live:bytes"

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			w.sample()
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *heapWatch) sample() {
	s := []metrics.Sample{{Name: liveHeap}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	w.mu.Lock()
	if v > w.peak {
		w.peak = v
	}
	w.mu.Unlock()
}

// Stop ends sampling and returns the peak live heap in MiB.
func (w *heapWatch) Stop() float64 {
	close(w.stop)
	<-w.done
	w.sample()
	return float64(w.peak) / (1 << 20)
}

// goStats is a snapshot of the Go runtime's allocation and GC counters.
type goStats struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNs    uint64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// putGo reports the runtime's allocation and GC work between two
// snapshots, divided over units repetitions of the measured work.
func (r *report) putGo(from, to goStats, units int) {
	if units < 1 {
		units = 1
	}
	u := float64(units)
	r.put(r.layer, "go.alloc_mb", "MiB", float64(to.allocBytes-from.allocBytes)/(1<<20)/u, 0)
	r.put(r.layer, "go.gc_cycles", "count", float64(to.gcCycles-from.gcCycles)/u, 0)
	r.put(r.layer, "go.gc_pause_s", "s", float64(to.pauseNs-from.pauseNs)/1e9/u, 0)
}
