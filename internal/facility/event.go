package facility

// The discrete-event facility core. Rather than paying for every instant of
// virtual time — a real BSP iteration per running job, a fault-window scan,
// a telemetry sample — whether or not anything happened, the core schedules
// each concern as its own event stream on internal/engine and lets the
// virtual clock jump between them:
//
//	arrival     Poisson arrivals at their exact sampled times (the next
//	            arrival is scheduled when the current one fires).
//	completion  each running job's end, computed from a probed steady-state
//	            iteration time and re-scheduled whenever caps change.
//	fault       the fault plan's Timeline entries (crashes, repairs,
//	            slow-node windows) at their exact onsets.
//	budget      budget-timeline changes (scheduled steps, fault-plan drop
//	            edges) at their exact effective instants.
//	replan      the optional periodic policy replan (ReplanEvery).
//	sample      telemetry on its own cadence (TelemetryEvery).
//
// Between events a job's progress is analytic: one real iteration probes
// the operating point after every (re)plan, and bsp.CreditSteadyState
// credits the repetitions the probe implies. Determinism is inherited from
// the engine's (time, sequence) dispatch order — two runs with the same
// seed dispatch the same events in the same order.

import (
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/engine"
	"powerstack/internal/fault"
	"powerstack/internal/rm"
	"powerstack/internal/telemetry"
	"powerstack/internal/units"
)

// evJob is one running job.
type evJob struct {
	sj        *rm.ScheduledJob
	remaining int       // iterations still to run (including uncredited)
	submitted time.Time // absolute submit time
	started   time.Time // absolute start time

	// iter is the probed steady-state iteration at the current operating
	// point; credited is the virtual time the job's accounting has reached
	// (energy and iteration counters are settled up to it).
	iter     bsp.IterationResult
	credited time.Duration
	// comp is the pending completion event (0 when none).
	comp engine.EventID
}

// eventSim runs one facility simulation on the discrete-event engine.
type eventSim struct {
	*simState
	eng    *engine.Scheduler
	active []*evJob

	// Node-utilization accounting is a time integral: busyIntegral accrues
	// busyNodes over the span since busyAt every time the active set is
	// about to change.
	busyNodes    int
	busyAt       time.Duration
	busyIntegral float64

	// lastSample is the previous telemetry sample's virtual time: energy
	// integrates over the actual gap, which is telEvery everywhere except
	// the final sample of a non-cadence-multiple horizon.
	lastSample time.Duration
}

func newEventCore(st *simState) *eventSim {
	return &eventSim{simState: st, eng: engine.New()}
}

// prime installs the virtual clock and schedules every event stream the
// configuration implies.
func (s *eventSim) prime() {
	st := s.simState
	// The engine advances its clock before dispatching a handler, so its
	// Now is the correct virtual timestamp for everything recorded inside
	// handlers (and for the engine's own dispatch events).
	st.vclock = s.eng.Now
	s.eng.Obs = st.obs

	// Fault timeline: every crash/repair/slow transition at its exact
	// onset. Onsets at or before zero never fire (At == 0 slow nodes are
	// already armed by Plan.Arm in setup).
	for _, tt := range st.cfg.Faults.Timeline() {
		if tt.At <= 0 || tt.At > st.horizon {
			continue
		}
		tr := tt.Transition
		switch tr.Kind {
		case fault.NodeCrash:
			s.eng.Schedule(tt.At, "fault_crash", func(now time.Duration) error {
				return s.onCrash(tr.Node, now)
			})
		case fault.NodeRepair:
			s.eng.Schedule(tt.At, "fault_repair", func(now time.Duration) error {
				return s.onRepair(tr.Node, now)
			})
		case fault.SlowNode:
			s.eng.Schedule(tt.At, "fault_slow", func(now time.Duration) error {
				return s.onSlow(tr.Node, tr.Factor, now)
			})
		}
	}

	// Budget-timeline changes at their exact effective instants. Only
	// points where the evaluated budget actually changes value are
	// scheduled — a constant timeline (empty, or same-value steps)
	// schedules nothing, so such a run dispatches exactly the same event
	// sequence as one with no timeline at all. Scheduling these before the
	// periodic replan/sample chains means a change coincident with a
	// sample applies first (lower sequence number), so the sample is
	// judged against the budget in force from that instant on.
	for _, bt := range st.budgetChangePoints() {
		s.eng.Schedule(bt, "budget", s.onBudget)
	}

	// Periodic replans, when configured.
	if re := st.cfg.ReplanEvery; re > 0 {
		s.eng.Every(re, re, st.horizon, "replan", s.onReplan)
	}

	// Telemetry sampling on its own cadence, plus a final sample exactly
	// at the horizon when the horizon is not a cadence multiple, so the
	// tail of the run is observed and its energy integrated.
	s.eng.Every(st.telEvery, st.telEvery, st.horizon, "sample", s.onSample)
	if st.horizon%st.telEvery != 0 {
		s.eng.Schedule(st.horizon, "sample", s.onSample)
	}

	// The arrival chain: each arrival schedules the next. Service-mode
	// instances (DisableArrivals) run on injections alone.
	if !st.cfg.DisableArrivals {
		if first := expDuration(st.rng, st.cfg.MeanInterarrival); first <= st.horizon {
			s.eng.Schedule(first, "arrival", s.onArrival)
		}
	}
}

func (s *eventSim) now() time.Duration { return s.eng.Now() }

// settle closes accounting at the current virtual time: jobs still
// running keep their uncredited tail (their completions lie beyond the
// end of the run), but the busy-node integral closes here. For a run
// stepped to the horizon the integral spans the whole run.
func (s *eventSim) settle() {
	now := s.eng.Now()
	s.accrue(now)
	s.res.EventsDispatched = int(s.eng.Dispatched())
	if now > 0 && len(s.cfg.Nodes) > 0 {
		s.res.MeanNodeUtilization = s.busyIntegral / (float64(now) * float64(len(s.cfg.Nodes)))
	}
}

func (s *eventSim) running() []RunningJob {
	out := make([]RunningJob, 0, len(s.active))
	for _, r := range s.active {
		out = append(out, RunningJob{
			ID:        r.sj.Spec.ID,
			Tenant:    r.sj.Spec.Tenant,
			Nodes:     r.sj.Spec.Nodes,
			Remaining: r.remaining,
			StartedAt: r.started.Sub(s.simState.start),
		})
	}
	return out
}

// injectNow enqueues a submission at the current virtual instant and
// reconciles immediately — the job can start right now if it fits.
func (s *eventSim) injectNow(sub Submission) (string, error) {
	now := s.eng.Now()
	id, err := s.submitInjected(sub, now)
	if err != nil {
		return id, err
	}
	return id, s.reconcile(now, false, false)
}

// injectAt schedules a deferred submission on the virtual timeline;
// admission errors at fire time degrade to journaled rejections (the
// submitter is long gone).
func (s *eventSim) injectAt(at time.Duration, sub Submission) {
	s.eng.Schedule(at, "inject", func(now time.Duration) error {
		if _, err := s.submitInjected(sub, now); err != nil {
			s.rejectInjected(sub.ID, sub, now)
			return nil
		}
		return s.reconcile(now, false, false)
	})
}

// budgetPoint schedules a budget-change event for a live timeline append
// (Instance.ScheduleBudget) — the configured points were scheduled by
// prime; this covers points added after it.
func (s *eventSim) budgetPoint(at time.Duration) {
	s.eng.Schedule(at, "budget", s.onBudget)
}

// policySwapped replans the running set under the new policy immediately
// and re-aims completions at the moved operating points.
func (s *eventSim) policySwapped() error {
	return s.reconcile(s.eng.Now(), true, false)
}

// accrue closes the busy-node integral up to now. Call it before any
// change to the active set.
func (s *eventSim) accrue(now time.Duration) {
	if now > s.busyAt {
		s.busyIntegral += float64(s.busyNodes) * float64(now-s.busyAt)
		s.busyAt = now
	}
}

// recount refreshes the busy-node census after the active set changed.
func (s *eventSim) recount() {
	busy := 0
	for _, r := range s.active {
		busy += r.sj.Spec.Nodes
	}
	s.busyNodes = busy
}

// advance settles a job's analytic progress up to now: every whole
// iteration that fits since the last settlement is credited at the probed
// operating point. The fractional remainder stays uncredited — it
// completes later, possibly at a different operating point.
func (s *eventSim) advance(r *evJob, now time.Duration) {
	if r.iter.Elapsed <= 0 || now <= r.credited || r.remaining <= 0 {
		return
	}
	k := int((now - r.credited) / r.iter.Elapsed)
	if k > r.remaining {
		k = r.remaining
	}
	if k <= 0 {
		return
	}
	r.sj.Job.CreditSteadyState(r.iter, k)
	s.markJobDirty(r.sj)
	r.remaining -= k
	r.credited += time.Duration(k) * r.iter.Elapsed
}

// advanceAll settles every active job up to now. Handlers that change caps
// or speeds call it first so history is credited at the old operating
// point.
func (s *eventSim) advanceAll(now time.Duration) {
	for _, r := range s.active {
		s.advance(r, now)
	}
}

// probe resolves a job's current operating point with one real iteration
// (OS noise and all), counts it, and re-schedules the job's completion
// from the new steady-state iteration time.
func (s *eventSim) probe(r *evJob, now time.Duration) error {
	ir, err := r.sj.Job.RunIteration()
	if err != nil {
		return err
	}
	s.markJobDirty(r.sj)
	r.iter = ir
	r.remaining--
	r.credited = now + ir.Elapsed
	s.scheduleCompletion(r)
	return nil
}

// scheduleCompletion (re)schedules a job's completion event at the time
// its remaining iterations will have elapsed at the probed rate.
func (s *eventSim) scheduleCompletion(r *evJob) {
	if r.comp != 0 {
		s.eng.Cancel(r.comp)
	}
	due := r.credited
	if r.remaining > 0 && r.iter.Elapsed > 0 {
		due += time.Duration(r.remaining) * r.iter.Elapsed
	}
	r.comp = s.eng.Schedule(due, "completion", func(now time.Duration) error {
		return s.onComplete(r, now)
	})
}

// removeActive drops a job from the active set, cancelling its pending
// completion.
func (s *eventSim) removeActive(victim *evJob) {
	if victim.comp != 0 {
		s.eng.Cancel(victim.comp)
		victim.comp = 0
	}
	for i, r := range s.active {
		if r == victim {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// reconcile is the shared tail of every state-changing event: settle
// analytic progress, dispatch whatever now fits, replan when the running
// set changed (mutated, or jobs just started), and re-probe operating
// points where caps or speeds may have moved.
func (s *eventSim) reconcile(now time.Duration, mutated, reprobeAll bool) error {
	s.accrue(now)
	s.advanceAll(now)
	startedNow, err := s.sched.Dispatch(s.cfg.Seed + uint64(s.jobSeq))
	if err != nil {
		return err
	}
	var fresh []*evJob
	for _, sj := range startedNow {
		at := s.start.Add(now)
		r := &evJob{
			sj:        sj,
			remaining: s.startRemaining(sj),
			submitted: s.submitTimes[sj.Spec.ID],
			started:   at,
		}
		s.active = append(s.active, r)
		fresh = append(fresh, r)
		s.res.Started++
		s.res.MeanQueueWait += at.Sub(r.submitted)
		s.noteStarted(sj.Spec.ID, now)
	}
	replanned := false
	if mutated || len(startedNow) > 0 {
		if err := s.replan(); err != nil {
			return err
		}
		replanned = true
		reprobeAll = true
	}
	probeSet := fresh
	if reprobeAll {
		probeSet = s.active
		if s.scale && replanned {
			// Hierarchical replan rounds: in scale mode the manager's
			// incremental cap path reports which jobs had a cap actually
			// reprogrammed, and only their operating points can have moved
			// — re-probe those plus the jobs that just started, not the
			// whole active set. Speed mutations without cap writes (slow
			// windows) arrive with reprobeAll and no replan, and still
			// re-probe everything.
			changed := s.mgr.TakeChangedJobs()
			isFresh := make(map[*evJob]bool, len(fresh))
			for _, r := range fresh {
				isFresh[r] = true
			}
			probeSet = probeSet[:0:0]
			for _, r := range s.active {
				if isFresh[r] || changed[r.sj.Spec.ID] {
					probeSet = append(probeSet, r)
				}
			}
		}
	}
	for _, r := range probeSet {
		if err := s.probe(r, now); err != nil {
			return err
		}
	}
	s.recount()
	return nil
}

// onArrival submits one Poisson arrival and schedules the next.
func (s *eventSim) onArrival(now time.Duration) error {
	gap, err := s.submitArrival(s.start.Add(now))
	if err != nil {
		return err
	}
	if next := now + gap; next <= s.horizon {
		s.eng.Schedule(next, "arrival", s.onArrival)
	}
	return s.reconcile(now, false, false)
}

// onComplete finishes a job whose analytically scheduled end has arrived.
func (s *eventSim) onComplete(r *evJob, now time.Duration) error {
	r.comp = 0
	s.accrue(now)
	s.advance(r, now)
	if r.remaining > 0 {
		// The operating point moved under the estimate; re-aim.
		s.scheduleCompletion(r)
		return nil
	}
	if err := s.sched.Complete(r.sj); err != nil {
		return err
	}
	s.res.Completed++
	s.obs.JobFinished(r.sj.Spec.ID,
		r.started.Sub(r.submitted).Seconds(),
		s.start.Add(now).Sub(r.submitted).Seconds())
	s.noteCompleted(r.sj.Spec.ID, now)
	s.removeActive(r)
	return s.reconcile(now, true, false)
}

// onCrash takes a node down: drain it, requeue the job that held it, and
// replan around the loss.
func (s *eventSim) onCrash(nodeID string, now time.Duration) error {
	n, ok := s.nodeByID[nodeID]
	if !ok {
		return nil
	}
	s.accrue(now)
	s.advanceAll(now) // settle at the pre-crash operating point
	fault.Crash(n)
	s.markNodeDirty(nodeID)
	s.obs.FaultInjected(string(fault.NodeCrash), nodeID, "", 0)
	holder, held := s.mgr.Drain(nodeID, "crash")
	if held {
		s.markJobDirty(holder)
		for _, r := range s.active {
			if r.sj == holder {
				s.recordCheckpoint(holder.Spec.ID, r.remaining)
				s.removeActive(r)
				break
			}
		}
		if err := s.sched.Requeue(holder); err != nil {
			return err
		}
		s.res.Requeued++
		s.noteRequeued(holder.Spec.ID)
	}
	return s.reconcile(now, true, false)
}

// onRepair brings a crashed node back; the freed capacity may start queued
// jobs at the next dispatch.
func (s *eventSim) onRepair(nodeID string, now time.Duration) error {
	n, ok := s.nodeByID[nodeID]
	if !ok {
		return nil
	}
	s.accrue(now)
	fault.Repair(n)
	s.markNodeDirty(nodeID)
	s.mgr.Rejoin(nodeID)
	return s.reconcile(now, false, false)
}

// onSlow opens or closes a slow-node window. Caps do not move (degradation
// never triggers a replan), but iteration times did, so every operating
// point is re-probed and completions re-aimed.
func (s *eventSim) onSlow(nodeID string, factor float64, now time.Duration) error {
	n, ok := s.nodeByID[nodeID]
	if !ok {
		return nil
	}
	s.accrue(now)
	s.advanceAll(now) // settle at the pre-degradation speed
	n.SetDegradation(factor)
	s.obs.FaultInjected(string(fault.SlowNode), nodeID, "", factor)
	return s.reconcile(now, false, true)
}

// onReplan is the periodic policy replan event.
func (s *eventSim) onReplan(now time.Duration) error {
	return s.reconcile(now, true, false)
}

// onSample reads the telemetry hierarchy. Jobs settle first so the energy
// counters reflect every iteration completed by now — the sampled power is
// then the true ΔE/Δt over the interval. The sample is judged against the
// budget in force (curBudget), and energy integrates over the actual gap
// since the previous sample.
func (s *eventSim) onSample(now time.Duration) error {
	s.markDropoutStarts(now)
	s.advanceAll(now)
	at := s.start.Add(now)
	p, err := s.root.Sample(at)
	if err != nil {
		return err
	}
	s.res.Trace = append(s.res.Trace, telemetry.Sample{Time: at, Power: p})
	s.res.TotalEnergy += units.EnergyOver(p, now-s.lastSample)
	s.lastSample = now
	if p > s.curBudget {
		s.res.BudgetViolationTicks++
	}
	return nil
}

// onBudget applies a budget-timeline change: settle progress, move the
// admission budget, shed newest-started jobs if the committed power no
// longer fits (per the emergency policy), and re-split the new budget
// across the survivors.
func (s *eventSim) onBudget(now time.Duration) error {
	nb := s.budgetAt(now)
	if nb == s.curBudget {
		return nil
	}
	s.accrue(now)
	s.advanceAll(now) // settle at the pre-change operating point
	sp := s.obs.StartSpan(s.spanCtx, "facility", "budget_change").SetValue(nb.Watts())
	old, err := s.applyBudgetChange(now, nb)
	if err != nil {
		sp.End()
		return err
	}
	if nb < old && s.sched.CommittedPower() > nb {
		if err := s.shed(nb, now); err != nil {
			sp.End()
			return err
		}
	}
	sp.End()
	return s.reconcile(now, true, false)
}

// shed is the emergency response: shed running jobs, newest started first
// (the least sunk progress), until the committed power fits nb. Preempt
// checkpoints and requeues; kill aborts outright; throttle sheds nothing
// and lets the policy squeeze everyone under the new budget.
func (s *eventSim) shed(nb units.Power, now time.Duration) error {
	pol := s.cfg.emergency()
	if pol == EmergencyThrottle {
		return nil
	}
	for s.sched.CommittedPower() > nb && len(s.active) > 0 {
		r := s.active[len(s.active)-1] // start-ordered: newest is last
		id := r.sj.Spec.ID
		s.removeActive(r)
		if pol == EmergencyKill {
			if err := s.sched.Abort(r.sj); err != nil {
				return err
			}
			delete(s.checkpoints, id)
			s.res.Killed++
			s.obs.JobKilled(id, s.lengths[id]-r.remaining)
			s.noteKilled(id, now)
			continue
		}
		ckpt, lost := s.recordCheckpoint(id, r.remaining)
		if err := s.sched.Requeue(r.sj); err != nil {
			return err
		}
		s.res.Preempted++
		s.obs.JobPreempted(id, ckpt, lost)
		s.notePreempted(id)
	}
	return nil
}
