package main

import (
	"math/rand/v2"
	"testing"
	"time"
)

// A stalled request delays everything queued behind it; latency counted
// from the due time must include that wait, while the dispatcher itself
// stays on schedule.
func TestDriveCountsStallFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var ops []op
	for i := 0; i < 5; i++ {
		ops = append(ops, op{due: time.Duration(i) * 10 * time.Millisecond, job: i})
	}
	samples, _ := drive(ops, 1, func(o op) error {
		if o.job == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(samples) != len(ops) {
		t.Fatalf("got %d samples for %d ops", len(samples), len(ops))
	}
	for i, s := range samples {
		if s.job != i {
			t.Fatalf("sample %d is op %d: samples must keep schedule order", i, s.job)
		}
		// Every request finishes after the stall ends, so its latency
		// is at least the stall minus how much later than op 0 it was due.
		if min := stall - s.due; s.latency() < min {
			t.Errorf("op %d: latency %v, want >= %v (the wait behind the stall)", i, s.latency(), min)
		}
		if s.sent < s.released || s.done < s.sent {
			t.Errorf("op %d: timeline out of order: released %v sent %v done %v", i, s.released, s.sent, s.done)
		}
		// The dispatcher never waits for a worker, so it runs on time
		// even while the server is stalled.
		if s.late() > 50*time.Millisecond {
			t.Errorf("op %d: dispatcher %v late during a stall", i, s.late())
		}
	}
	if q := samples[4].sent - samples[4].released; q < stall-60*time.Millisecond {
		t.Errorf("op 4 queued %v for a connection, want about %v", q, stall-40*time.Millisecond)
	}
}

// With a responsive server, latency is the service time plus scheduling
// noise, and two workers serve overlapping requests.
func TestDriveTwoWorkersOverlap(t *testing.T) {
	ops := []op{{due: 0, job: 0}, {due: 0, job: 1}}
	start := time.Now()
	samples, _ := drive(ops, 2, func(op) error { time.Sleep(100 * time.Millisecond); return nil })
	if el := time.Since(start); el > 180*time.Millisecond {
		t.Fatalf("two 100ms requests on two workers took %v", el)
	}
	for _, s := range samples {
		if s.latency() < 100*time.Millisecond {
			t.Errorf("op %d: latency %v below its service time", s.job, s.latency())
		}
	}
}

func TestJitteredDuesDeterministicAndRated(t *testing.T) {
	a := jitteredDues(rand.New(rand.NewPCG(1, 2)), 100, 0, 100*time.Second)
	b := jitteredDues(rand.New(rand.NewPCG(1, 2)), 100, 0, 100*time.Second)
	if len(a) != 10000 || len(b) != len(a) {
		t.Fatalf("rate 100/s over 100s gave %d and %d arrivals, want 10000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
		slot := time.Duration(i) * 10 * time.Millisecond
		if a[i] < slot || a[i] >= slot+10*time.Millisecond {
			t.Fatalf("arrival %d at %v outside its slot [%v, %v)", i, a[i], slot, slot+10*time.Millisecond)
		}
	}
}

// The service schedule is a function of the seed alone, and reads only
// target jobs whose submit was due well before them.
func TestPlanServiceDeterministic(t *testing.T) {
	p1 := planService(7, 5*time.Second, false)
	p2 := planService(7, 5*time.Second, false)
	p3 := planService(8, 5*time.Second, false)
	if p1.digest() != p2.digest() {
		t.Fatal("same seed gave different schedules")
	}
	if p1.digest() == p3.digest() {
		t.Fatal("different seeds gave the same schedule")
	}
	if p1.digest() != planService(7, 9*time.Second, false).digest() {
		t.Fatal("schedule digest depends on the measurement time")
	}
	if p1.digest() != planService(7, 5*time.Second, true).digest() {
		t.Fatal("schedule digest depends on tracing")
	}
	for _, o := range p1.main {
		if o.kind != opRead {
			continue
		}
		if j := p1.jobs[o.job]; j.due > o.due-readLag && j.due != 0 {
			t.Fatalf("read at %v targets %s due at %v", o.due, j.id, j.due)
		}
	}
}
