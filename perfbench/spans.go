package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"powerstack/internal/obs"
)

// tracer keeps benchmark-side spans in memory: one span around each public
// call the benchmark makes into a layer. Spans of one request share a
// trace ID. The log is written once, when the run ends, as the JSONL span
// format `obsdump spans` renders. A nil *tracer records nothing.
type tracer struct {
	mu        sync.Mutex
	epoch     time.Time
	spans     []obs.SpanRecord
	nextTrace uint64
	nextSpan  uint64
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{epoch: time.Now()}
}

// bspan is an open benchmark span.
type bspan struct {
	t     *tracer
	rec   obs.SpanRecord
	start time.Time
}

// start opens a span at the current instant; see startAt.
func (t *tracer) start(parent *bspan, layer, name string) *bspan {
	return t.startAt(parent, layer, name, time.Now())
}

// startAt opens a span beginning at the given instant (a request's due
// time, which may precede the call). A nil parent starts a new trace.
func (t *tracer) startAt(parent *bspan, layer, name string, at time.Time) *bspan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextSpan++
	rec := obs.SpanRecord{ID: obs.SpanID(t.nextSpan), Name: name, Layer: layer, Wall: at.Sub(t.epoch)}
	if parent != nil {
		rec.Trace, rec.Parent = parent.rec.Trace, parent.rec.ID
	} else {
		t.nextTrace++
		rec.Trace = obs.TraceID(t.nextTrace)
	}
	t.mu.Unlock()
	return &bspan{t: t, rec: rec, start: at}
}

// timed runs f inside a span under parent and stores its wall time in
// *dst, traced or not.
func (t *tracer) timed(parent *bspan, layer, name string, dst *time.Duration, f func() error) error {
	sp := t.start(parent, layer, name)
	t0 := time.Now()
	err := f()
	*dst = time.Since(t0)
	sp.end()
	return err
}

// scope annotates the span with the entity it covers.
func (s *bspan) scope(v string) *bspan {
	if s != nil {
		s.rec.Scope = v
	}
	return s
}

// end closes the span now.
func (s *bspan) end() { s.endAt(time.Now()) }

// endAt closes the span at the given instant.
func (s *bspan) endAt(at time.Time) {
	if s == nil {
		return
	}
	s.rec.WallDur = at.Sub(s.start)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// write stores the spans as JSONL and returns the path.
func (t *tracer) write(dir, stem string) (string, error) {
	path := filepath.Join(dir, stem+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, rec := range t.spans {
		if err := enc.Encode(rec); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// writeProm stores the sink's Prometheus snapshot and returns the path.
func writeProm(sink *obs.Sink, dir, stem string) (string, error) {
	path := filepath.Join(dir, stem+".prom")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := sink.WritePrometheus(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finishTrace writes the spans and the metric snapshot of a traced run and
// lists them in the report.
func (r *report) finishTrace(t *tracer, sink *obs.Sink, rc runConfig) error {
	if t == nil {
		return nil
	}
	sp, err := t.write(rc.outDir, rc.stem)
	if err != nil {
		return err
	}
	r.files = append(r.files, sp)
	if sink != nil {
		pp, err := writeProm(sink, rc.outDir, rc.stem)
		if err != nil {
			return err
		}
		r.files = append(r.files, pp)
	}
	return nil
}

// counter reads a counter series from a sink's registry (zero when the
// series was never recorded).
func counter(sink *obs.Sink, name string, labels ...string) float64 {
	if sink == nil {
		return 0
	}
	return sink.Metrics.Counter(name, labels...).Value()
}
