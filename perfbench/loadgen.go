package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// The open-loop load generator. Requests follow a schedule of due times
// fixed in advance; a dispatcher releases each one at its due time
// whatever the server is doing, and a fixed set of workers (one keep-alive
// connection each) send them in due order. Latency is measured from the
// due time, so when the server stalls, the wait that the stall imposes on
// every request queued behind it is counted too.

// opKind is what a scheduled request does.
type opKind uint8

const (
	opSubmit opKind = iota
	opRead
	opStatus
)

// route is the server route the request takes, as powerstackd labels it.
func (k opKind) route() string {
	switch k {
	case opSubmit:
		return "POST /v1/submit"
	case opRead:
		return "GET /v1/jobs/{id}"
	default:
		return "GET /v1/instances/{name}"
	}
}

// op is one scheduled request.
type op struct {
	// due is the offset from the start of the schedule.
	due  time.Duration
	kind opKind
	// job indexes the job a submit creates or a read asks for.
	job int
	// measured marks requests inside the measurement window; the rest
	// are warm-up.
	measured bool
}

// sample is one request's timeline, as offsets from the schedule start.
type sample struct {
	op
	// released is when the dispatcher handed the request to the
	// workers; sent is when a worker began sending it; done is when the
	// response was checked.
	released, sent, done time.Duration
	err                  error
}

// latency is the due-time latency: done minus due.
func (s sample) latency() time.Duration { return s.done - s.due }

// late is how far behind schedule the dispatcher released the request.
func (s sample) late() time.Duration { return s.released - s.due }

// jitteredDues returns due times at a constant rate (per second) over
// [from, to), each placed uniformly at random within its own 1/rate slot.
// Arrivals stay unsynchronised with the server's pacer, but bursts and
// gaps (which a Poisson stream has, and which made the latency tail
// differ from seed to seed) are bounded.
func jitteredDues(rng *rand.Rand, rate float64, from, to time.Duration) []time.Duration {
	var out []time.Duration
	for k := 0; ; k++ {
		t := from + time.Duration((float64(k)+rng.Float64())/rate*float64(time.Second))
		if t >= to {
			return out
		}
		out = append(out, t)
	}
}

// drive runs the schedule open loop: ops must be sorted by due time. do
// performs one request and returns its error; workers bounds how many run
// at once. drive returns one sample per op, in schedule order, once every
// request has finished, and the wall instant the schedule started.
func drive(ops []op, workers int, do func(op) error) ([]sample, time.Time) {
	samples := make([]sample, len(ops))
	queue := make(chan int, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.sent = time.Since(start)
				s.err = do(s.op)
				s.done = time.Since(start)
			}
		}()
	}
	for i, o := range ops {
		if d := o.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		samples[i].op = o
		samples[i].released = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples, start
}
