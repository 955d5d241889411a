package facility

// Dynamic facility budgets. The paper's stack assumes a fixed facility
// envelope; real facilities face time-varying budgets — demand-response
// events, price curves, thermal limits ("Cross-layer Application-aware
// Power/Energy Management", PAPERS.md). This file makes SystemBudget the
// *initial* value of a timeline: scheduled BudgetSteps plus fault-plan
// BudgetDrop emergencies compose into an instantaneous budget the event
// core evaluates at its change points.
//
// When a change leaves the running set's committed power above the new
// budget, the EmergencyPolicy decides the response:
//
//	preempt   victims leave at their last checkpoint boundary and requeue;
//	          they resume from the checkpoint when capacity returns (the
//	          sane response per "Application Checkpoint and Power Study").
//	throttle  nobody leaves; the policy re-splits the smaller budget across
//	          everyone (host caps clamp at their minimum), and admission
//	          stays closed until completions free committed power.
//	kill      victims die outright, all progress lost.
//
// An empty timeline (no steps, no drops) never evaluates differently from
// the constant SystemBudget, schedules no events, and takes the exact
// pre-timeline code paths — a constant-timeline run is byte-identical to
// the seed behavior (TestConstantBudgetTimelineIsByteIdentical).

import (
	"sort"
	"time"

	"powerstack/internal/bsp"
	"powerstack/internal/fault"
	"powerstack/internal/rm"
	"powerstack/internal/units"
)

// BudgetStep is one scheduled change of the facility budget: from At
// onward the scheduled budget is Budget (until a later step overrides it).
// Steps declared at the same instant resolve to the last declaration, the
// same (time, sequence) tie-break the event engine applies everywhere.
type BudgetStep struct {
	// At is the step's effective time relative to run start. A step at 0
	// overrides SystemBudget from the very beginning; steps beyond the
	// horizon never take effect.
	At time.Duration
	// Budget is the scheduled facility budget from At on.
	Budget units.Power
}

// EmergencyPolicy selects the facility's response when a budget change
// leaves the running set's committed power above the new budget.
type EmergencyPolicy string

// The emergency responses.
const (
	// EmergencyPreempt (the default) preempts the most recently started
	// jobs at their last checkpoint boundary until the committed power
	// fits; they requeue and later resume from the checkpoint.
	EmergencyPreempt EmergencyPolicy = "preempt"
	// EmergencyThrottle keeps every job running under proportionally
	// smaller caps; the facility may exceed the budget until completions
	// catch up (counted in BudgetViolationTicks).
	EmergencyThrottle EmergencyPolicy = "throttle"
	// EmergencyKill kills the most recently started jobs outright until
	// the committed power fits; their progress is lost.
	EmergencyKill EmergencyPolicy = "kill"
)

// valid reports whether p names a known policy ("" selects preempt).
func (p EmergencyPolicy) valid() bool {
	switch p {
	case "", EmergencyPreempt, EmergencyThrottle, EmergencyKill:
		return true
	}
	return false
}

// emergency resolves the configured response, defaulting to preempt.
func (c *Config) emergency() EmergencyPolicy {
	if c.Emergency == "" {
		return EmergencyPreempt
	}
	return c.Emergency
}

// sortedSteps returns the timeline steps stably sorted by time, preserving
// declaration order at equal instants so the last declaration wins.
func (c *Config) sortedSteps() []BudgetStep {
	if len(c.BudgetSteps) == 0 {
		return nil
	}
	steps := make([]BudgetStep, len(c.BudgetSteps))
	copy(steps, c.BudgetSteps)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
	return steps
}

// dynamicBudget reports whether the configuration carries a budget
// timeline at all — scheduled steps or fault-plan drop windows. Rejected
// submissions (rm.ErrBudgetInfeasible) are a degradation only under a
// dynamic budget: a job can be infeasible against a temporary drop and
// perfectly feasible an hour later. Under a constant budget the same error
// is a configuration mistake and still fails the run fast, exactly as it
// always has.
func (st *simState) dynamicBudget() bool {
	if len(st.steps) > 0 {
		return true
	}
	if st.cfg.Faults.Empty() {
		return false
	}
	for _, in := range st.cfg.Faults.Injections {
		if in.Kind == fault.BudgetDrop {
			return true
		}
	}
	return false
}

// scheduledBudget evaluates the step timeline at elapsed time t: the last
// step at or before t, else SystemBudget.
func (st *simState) scheduledBudget(t time.Duration) units.Power {
	b := st.cfg.SystemBudget
	for _, s := range st.steps {
		if s.At > t {
			break
		}
		b = s.Budget
	}
	return b
}

// budgetAt is the instantaneous facility budget at elapsed time t: the
// scheduled step value scaled by every active fault-plan BudgetDrop window.
func (st *simState) budgetAt(t time.Duration) units.Power {
	b := st.scheduledBudget(t)
	if f := st.cfg.Faults.BudgetFactor(t); f != 1 {
		b = units.Power(float64(b) * f)
	}
	return b
}

// budgetCause classifies a change at time t for the journal: a fault-plan
// drop window opening ("drop") or closing ("recover") at exactly t, else a
// scheduled step ("step").
func (st *simState) budgetCause(t time.Duration) string {
	if st.cfg.Faults.Empty() {
		return "step"
	}
	for _, in := range st.cfg.Faults.Injections {
		if in.Kind != fault.BudgetDrop {
			continue
		}
		if in.At == t {
			return "drop"
		}
		if in.Duration > 0 && in.At+in.Duration == t {
			return "recover"
		}
	}
	return "step"
}

// budgetChangePoints enumerates the distinct times in (0, horizon] where
// the instantaneous budget actually changes value, in order. Candidate
// times come from the steps and the drop-window edges; candidates where
// the evaluated budget equals the previous value are filtered out, so a
// constant timeline (including same-value steps) yields no points — and
// the event core schedules no budget events, keeping such runs
// byte-identical to a run with no timeline at all.
func (st *simState) budgetChangePoints() []time.Duration {
	var candidates []time.Duration
	seen := map[time.Duration]bool{}
	add := func(t time.Duration) {
		if t > 0 && t <= st.horizon && !seen[t] {
			seen[t] = true
			candidates = append(candidates, t)
		}
	}
	for _, s := range st.steps {
		add(s.At)
	}
	if !st.cfg.Faults.Empty() {
		for _, in := range st.cfg.Faults.Injections {
			if in.Kind != fault.BudgetDrop {
				continue
			}
			add(in.At)
			if in.Duration > 0 {
				add(in.At + in.Duration)
			}
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	var out []time.Duration
	cur := st.budgetAt(0)
	for _, t := range candidates {
		if b := st.budgetAt(t); b != cur {
			out = append(out, t)
			cur = b
		}
	}
	return out
}

// applyBudgetChange moves the live budget to nb at elapsed time now: the
// scheduler's admission budget follows, the change is journaled and
// counted, and — because excursions between telemetry samples would
// otherwise be invisible (see Result.BudgetViolationTicks) — a downward
// change immediately checks the last sampled power against the new budget.
// Returns the previous budget.
func (st *simState) applyBudgetChange(now time.Duration, nb units.Power) (units.Power, error) {
	old := st.curBudget
	st.curBudget = nb
	if err := st.sched.SetBudget(nb); err != nil {
		return old, err
	}
	st.res.BudgetChanges++
	st.obs.BudgetChange(st.budgetCause(now), old.Watts(), nb.Watts())
	if nb < old && len(st.res.Trace) > 0 {
		if last := st.res.Trace[len(st.res.Trace)-1].Power; last > nb {
			st.res.BudgetViolationTicks++
		}
	}
	return old, nil
}

// recordCheckpoint computes and records a leaving job's checkpoint from
// its cumulative progress (lengths minus remaining), returning the
// checkpointed iteration and the iterations lost since it. With
// CheckpointEvery <= 0 nothing is recorded and everything is lost.
func (st *simState) recordCheckpoint(id string, remaining int) (ckpt, lost int) {
	done := st.lengths[id] - remaining
	ckpt = bsp.CheckpointFloor(done, st.cfg.CheckpointEvery)
	if ckpt > 0 {
		st.checkpoints[id] = ckpt
	}
	return ckpt, done - ckpt
}

// startRemaining resolves a starting job's iteration count, restoring
// checkpoint state when one is recorded: the fresh bsp.Job instance is
// fast-forwarded to the checkpoint (phase position included) and the
// resume is journaled and counted.
func (st *simState) startRemaining(sj *rm.ScheduledJob) int {
	rem := st.lengths[sj.Spec.ID]
	if ckpt := st.checkpoints[sj.Spec.ID]; ckpt > 0 {
		rem -= ckpt
		sj.Job.Restore(bsp.Checkpoint{Iterations: ckpt})
		st.res.Resumed++
		st.obs.JobResumed(sj.Spec.ID, ckpt)
		if ji := st.jobs[sj.Spec.ID]; ji != nil {
			ji.Resumes++
		}
	}
	return rem
}
