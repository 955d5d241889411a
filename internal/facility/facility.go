// Package facility is the capstone integration of the stack: a
// trace-driven simulation of a whole machine room over hours of simulated
// wall-clock. Jobs arrive as a Poisson process, the power-aware scheduler
// admits them against node and power budgets, a Section III policy
// distributes per-host caps whenever the running set changes, the
// bulk-synchronous engine advances every running job (fast-forwarding
// through steady state), and the telemetry hierarchy samples facility
// power — producing, bottom-up, the kind of trace Figure 1 shows top-down.
//
// Time advances on a discrete-event core: arrivals, job completions,
// faults, budget changes, policy replans, and telemetry samples are
// scheduled at their exact virtual times on internal/engine, and the clock
// jumps straight from one event to the next — a lightly loaded month costs
// what its events cost.
package facility

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/coordinator"
	"powerstack/internal/fault"
	"powerstack/internal/kernel"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/policy"
	"powerstack/internal/rm"
	"powerstack/internal/telemetry"
	"powerstack/internal/units"
)

// EngineEvent names the discrete-event core, the only time-advancement
// core.
//
// Deprecated: Config.Engine accepts it for compatibility; leave the field
// empty instead.
const EngineEvent = "event"

// Config shapes a facility simulation.
type Config struct {
	// Nodes is the cluster to simulate over.
	Nodes []*node.Node
	// DB must characterize every config in Workloads.
	DB *charz.DB
	// Policy distributes power across the running set (nil = StaticCaps).
	Policy policy.Policy
	// SystemBudget is the facility power limit — the initial value of the
	// budget timeline when BudgetSteps or fault-plan budget drops are
	// present, the constant budget otherwise.
	SystemBudget units.Power
	// BudgetSteps schedules facility budget changes (demand-response
	// windows, price curves): from each step's At onward the scheduled
	// budget is its Budget. Empty keeps the budget at SystemBudget except
	// during fault-plan BudgetDrop windows. Steps at the same instant
	// resolve to the last declaration.
	BudgetSteps []BudgetStep
	// Emergency selects the response when a budget change strands the
	// running set's committed power above the new budget: EmergencyPreempt
	// (the default, "" selects it), EmergencyThrottle, or EmergencyKill.
	Emergency EmergencyPolicy
	// CheckpointEvery is the jobs' checkpoint cadence in iterations:
	// preempted (or crash-requeued) jobs resume from their last checkpoint
	// boundary instead of iteration zero. Zero disables checkpointing —
	// a preempted job restarts from scratch.
	CheckpointEvery int

	// MeanInterarrival is the Poisson arrival process' mean gap.
	MeanInterarrival time.Duration
	// JobIterations samples job lengths uniformly from [Min, Max].
	MinJobIterations, MaxJobIterations int
	// JobSizes are the node counts jobs request (sampled uniformly).
	JobSizes []int
	// Workloads is the kernel-config population (sampled uniformly).
	Workloads []kernel.Config
	// DisableArrivals turns off the synthetic Poisson arrival process —
	// service mode, where every job is an external Instance.Inject
	// submission. With it set, MeanInterarrival, the job-iteration range,
	// JobSizes, and Workloads become optional.
	DisableArrivals bool

	// Duration is the simulated span. Tick is the default telemetry
	// cadence (TelemetryEvery) and the default service quantum, the
	// virtual span a paced service instance advances per beat.
	Duration time.Duration
	Tick     time.Duration

	// Engine names the time-advancement core. Only "" and EngineEvent are
	// accepted.
	//
	// Deprecated: the discrete-event core is the only core; leave Engine
	// empty.
	Engine string
	// ScaleMode selects between the exact flat replan/sample paths and the
	// hierarchical 100k-node ones: ScaleAuto (default — hierarchical above
	// ScaleThreshold nodes), ScaleOn, or ScaleCompat. See scale.go.
	ScaleMode string
	// TelemetryEvery is the telemetry sampling cadence; zero selects Tick.
	TelemetryEvery time.Duration
	// ReplanEvery adds a periodic policy replan on top of the
	// change-driven ones (job start/finish, crash); zero disables it.
	ReplanEvery time.Duration

	Seed uint64

	// Faults is an optional deterministic fault plan. Crashes drain nodes
	// mid-run (requeueing their jobs) and scheduled repairs rejoin them;
	// MSR faults exercise the manager's retry/quarantine path; telemetry
	// dropouts hold samples; characterization corruption triggers policy
	// fallbacks. Nil or empty injects nothing.
	Faults *fault.Plan
	// Obs journals every fault, degradation, and engine-dispatch decision;
	// nil disables instrumentation. The facility derives a virtual-clock
	// view of this sink (obs.Sink.WithVClock) so events and spans recorded
	// during the run carry their simulated timestamps.
	Obs *obs.Sink
	// SpanParent links the run's root span into an enclosing trace (a
	// campaign scenario); the zero value starts a new trace.
	SpanParent obs.SpanContext
}

// validBudget reports whether b can be a facility budget: positive and
// finite (an overflowed "1e308 kW" parses to +Inf).
func validBudget(b units.Power) bool {
	return b > 0 && !math.IsInf(b.Watts(), 1)
}

// telemetryEvery resolves the sampling cadence.
func (c *Config) telemetryEvery() time.Duration {
	if c.TelemetryEvery > 0 {
		return c.TelemetryEvery
	}
	return c.Tick
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case len(c.Nodes) == 0:
		return errors.New("facility: no nodes")
	case c.DB == nil:
		return errors.New("facility: no characterization database")
	case !validBudget(c.SystemBudget):
		return errors.New("facility: budget must be positive and finite")
	case !c.DisableArrivals && c.MeanInterarrival <= 0:
		return errors.New("facility: interarrival must be positive")
	case !c.DisableArrivals && (c.MinJobIterations <= 0 || c.MaxJobIterations < c.MinJobIterations):
		return errors.New("facility: bad job-iteration range")
	case !c.DisableArrivals && len(c.JobSizes) == 0:
		return errors.New("facility: no job sizes")
	case !c.DisableArrivals && len(c.Workloads) == 0:
		return errors.New("facility: no workloads")
	case c.Tick <= 0 || c.Duration < c.Tick:
		return errors.New("facility: bad tick/duration")
	case c.TelemetryEvery < 0:
		return errors.New("facility: telemetry cadence must not be negative")
	case c.ReplanEvery < 0:
		return errors.New("facility: replan cadence must not be negative")
	case c.CheckpointEvery < 0:
		return errors.New("facility: checkpoint cadence must not be negative")
	}
	if !c.Emergency.valid() {
		return fmt.Errorf("facility: unknown emergency policy %q (want %q, %q, or %q)",
			c.Emergency, EmergencyPreempt, EmergencyThrottle, EmergencyKill)
	}
	for i, s := range c.BudgetSteps {
		if s.At < 0 {
			return fmt.Errorf("facility: budget step %d at negative time %v", i, s.At)
		}
		if !validBudget(s.Budget) {
			return fmt.Errorf("facility: budget step %d budget must be positive and finite (got %v)", i, s.Budget)
		}
	}
	switch c.Engine {
	case "", EngineEvent:
	case "tick":
		return errors.New("facility: the fixed-tick core was removed; leave Engine empty for the event core")
	default:
		return fmt.Errorf("facility: unknown engine %q (want %q)", c.Engine, EngineEvent)
	}
	switch c.ScaleMode {
	case ScaleAuto, ScaleOn, ScaleCompat:
	default:
		return fmt.Errorf("facility: unknown scale mode %q (want %q, %q, or %q)", c.ScaleMode, ScaleAuto, ScaleOn, ScaleCompat)
	}
	for _, s := range c.JobSizes {
		if s <= 0 || s > len(c.Nodes) {
			return fmt.Errorf("facility: job size %d outside the cluster", s)
		}
	}
	for _, w := range c.Workloads {
		if _, err := c.DB.MustGet(w); err != nil {
			return err
		}
	}
	return nil
}

// Result summarizes a facility simulation.
type Result struct {
	// Trace is the facility power series, one sample per telemetry
	// interval (TelemetryEvery, defaulting to Tick).
	Trace []telemetry.Sample
	// Submitted, Started, and Completed count jobs.
	Submitted, Started, Completed int
	// QueuedAtEnd counts jobs still waiting in the scheduler queue when
	// the run's horizon is reached — submitted but never started.
	QueuedAtEnd int
	// MeanQueueWait averages the submit-to-start delay over jobs that
	// started; jobs still queued at the end (QueuedAtEnd) never started
	// and are deliberately excluded — a facility drowning in arrivals can
	// therefore report a short wait next to a large QueuedAtEnd.
	MeanQueueWait time.Duration
	// MeanNodeUtilization is the time-averaged fraction of busy nodes.
	MeanNodeUtilization float64
	// MeanPower and PeakPower summarize the trace.
	MeanPower units.Power
	PeakPower units.Power
	// TotalEnergy is the facility CPU energy over the run.
	TotalEnergy units.Energy
	// BudgetViolationTicks counts observations of facility power above the
	// budget in force: every trace sample is checked against the current
	// (possibly stepped or dropped) budget, and every downward budget
	// change additionally re-checks the last sample against the new value —
	// so an excursion created by a mid-interval drop is counted when the
	// drop lands rather than silently missed until the next sample. Power
	// between samples is still unobserved; the count is a lower bound.
	BudgetViolationTicks int
	// BudgetChanges counts applied budget-timeline changes: scheduled
	// steps and fault-plan drop edges that changed the effective value
	// (same-value steps are not changes).
	BudgetChanges int
	// Preempted, Killed, and Resumed count emergency responses: jobs
	// preempted at their last checkpoint (requeued, to resume later), jobs
	// killed outright (progress lost), and checkpoint restores at restart.
	// Rejected counts submissions refused because their demand exceeded
	// the budget in force at enqueue time (a degradation, not an error).
	Preempted, Killed, Resumed, Rejected int
	// Requeued counts jobs returned to the queue after a crash drained
	// one of their hosts; Quarantined and Rejoined count node drain-set
	// entries and exits over the run (every quarantine reason: crash
	// drains, failed cap writes, failed releases).
	Requeued, Quarantined, Rejoined int
	// EventsDispatched counts the discrete events the run dispatched — its
	// work measure.
	EventsDispatched int
}

// simState is the event core's setup: validated config, corrupt
// database view, managers, telemetry hierarchy, RNG, and the bookkeeping
// maps the arrival process feeds.
type simState struct {
	cfg      Config
	pol      policy.Policy
	db       *charz.DB
	rng      *rand.Rand
	mgr      *rm.Manager
	sched    *rm.Scheduler
	root     *telemetry.Domain
	res      *Result
	start    time.Time // wall-clock epoch of virtual time zero
	nodeByID map[string]*node.Node

	// scale selects the hierarchical replan and linear telemetry sweep;
	// nodeIndex maps host IDs to their position in cfg.Nodes, which is
	// what assigns a host its rack (see scale.go).
	scale     bool
	nodeIndex map[string]int

	lengths     map[string]int // queued job ID -> iterations
	submitTimes map[string]time.Time
	jobSeq      int

	// jobs is the per-job lifecycle ledger behind Instance.Job/Jobs and
	// the service layer's status endpoints; extSeq numbers generated IDs
	// for injected submissions ("extNNNNN", disjoint from arrival IDs).
	jobs   map[string]*JobInfo
	extSeq int

	// steps is the stable-sorted budget timeline, curBudget the budget in
	// force, checkpoints the last recorded checkpoint per job ID (see
	// budget.go).
	steps       []BudgetStep
	curBudget   units.Power
	checkpoints map[string]int

	horizon  time.Duration
	telEvery time.Duration

	// obs is the virtual-clock view of cfg.Obs: it shares the registry,
	// journal, spans, and stream but stamps everything recorded during the
	// run with the simulated time read through vclock. vclock is the event
	// core's engine clock, installed when the run is primed; it reads zero
	// during setup — which is correct, setup happens at virtual time zero.
	obs    *obs.Sink
	vclock func() time.Duration

	// spanCtx is the run's root span, parent of every replan span; round
	// numbers the replan rounds for span annotation.
	spanCtx obs.SpanContext
	round   int

	// hier is the scratch-pooled hierarchical allocator the scale-mode
	// replan reuses round to round, and plan the request/topology scratch
	// beside it (see scale.go).
	hier coordinator.HierAlloc
	plan planScratch

	// incTel is set when the root samples incrementally (scale mode):
	// every energy-state change marks its leaves dirty, so a sample costs
	// O(dirty) instead of O(nodes). dropStarts is the sorted
	// list of telemetry-dropout window starts; dropCursor marks their
	// leaves dirty from onSample, without scheduling engine events.
	incTel     bool
	dropStarts []dropStart
	dropCursor int
}

// testDisableIncremental forces the full linear sweep even where the
// facility would sample incrementally. Facility tests flip it to pin the
// incremental sampler against the sweep end to end; it is never set outside
// tests.
var testDisableIncremental bool

// dropStart is one telemetry-dropout window start on the virtual timeline.
type dropStart struct {
	at  time.Duration
	ord int // leaf ordinal (position in cfg.Nodes)
}

// markDropoutStarts marks the leaves of every dropout window whose start
// has passed; the incremental sampler then visits them and takes the hold
// branch exactly when the full sweep would.
func (st *simState) markDropoutStarts(now time.Duration) {
	for st.dropCursor < len(st.dropStarts) && st.dropStarts[st.dropCursor].at <= now {
		st.root.MarkLeafDirty(st.dropStarts[st.dropCursor].ord)
		st.dropCursor++
	}
}

// markJobDirty marks every host of a job dirty for the incremental
// telemetry sweep — called after any probe or steady-state credit changes
// host energy. No-op outside incremental mode.
func (st *simState) markJobDirty(sj *rm.ScheduledJob) {
	if !st.incTel {
		return
	}
	for i := range sj.Job.Hosts {
		if ord, ok := st.nodeIndex[sj.Job.Hosts[i].Node.ID]; ok {
			st.root.MarkLeafDirty(ord)
		}
	}
}

// markNodeDirty marks one node dirty — crashes and repairs toggle its
// energy readability between samples. No-op outside incremental mode.
func (st *simState) markNodeDirty(id string) {
	if !st.incTel {
		return
	}
	if ord, ok := st.nodeIndex[id]; ok {
		st.root.MarkLeafDirty(ord)
	}
}

// maxHistory caps the telemetry ring size at its previous fixed value.
const maxHistory = 1 << 16

// setup builds the shared simulation state.
func setup(cfg Config) (*simState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	st := &simState{
		cfg:         cfg,
		pol:         cfg.Policy,
		res:         &Result{},
		start:       time.Unix(0, 0).UTC(),
		nodeByID:    map[string]*node.Node{},
		lengths:     map[string]int{},
		submitTimes: map[string]time.Time{},
		jobs:        map[string]*JobInfo{},
		steps:       cfg.sortedSteps(),
		checkpoints: map[string]int{},
		horizon:     cfg.Duration,
		telEvery:    cfg.telemetryEvery(),
	}
	st.curBudget = st.budgetAt(0)
	if st.pol == nil {
		st.pol = policy.StaticCaps{}
	}
	// Everything the run records goes through a virtual-clock view of the
	// caller's sink; the indirection through st.vclock lets the engine
	// install its clock after setup.
	st.obs = cfg.Obs.WithVClock(func() time.Duration {
		if st.vclock == nil {
			return 0
		}
		return st.vclock()
	})
	// Corruption applies to a clone so the caller's database survives the
	// run intact; policies see the damaged view and fall back.
	st.db = cfg.Faults.CorruptDB(cfg.DB, st.obs)
	st.rng = rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xBF58476D1CE4E5B9))
	st.mgr = rm.NewManager(cfg.Nodes)
	st.mgr.Obs = st.obs
	st.mgr.OnQuarantine = func(string, string) { st.res.Quarantined++ }
	st.mgr.OnRejoin = func(string) { st.res.Rejoined++ }
	sched, err := rm.NewScheduler(st.mgr, st.db, st.curBudget)
	if err != nil {
		return nil, err
	}
	st.sched = sched
	// Size the telemetry rings to the run instead of the historical 64k
	// fixed cap: a 1000-node hierarchy at full depth is ~1k Series, and
	// pre-zeroing 64k samples each cost ~20s and gigabytes before any
	// simulation started. The watchdog and Last() only ever look at the
	// recent window, so a ring covering the whole run (plus slack) is
	// observably identical.
	history := int(st.horizon/st.telEvery) + 8
	if history < 64 {
		history = 64
	}
	if history > maxHistory {
		history = maxHistory
	}
	st.scale = cfg.scaleActive()
	if st.scale && history > scaleHistory {
		// Result.Trace holds the full facility series; per-domain rings
		// keep only the recent window a watchdog would consult.
		history = scaleHistory
	}
	root, err := telemetry.BuildHierarchy(cfg.Nodes, facilityPDUSize, history)
	if err != nil {
		return nil, err
	}
	st.root = root
	if st.scale {
		root.SetLinearSweep(true)
		// Scale mode also turns on the manager's incremental cap path:
		// unchanged caps are not rewritten and the policy's per-job view is
		// cached between replans.
		st.mgr.Incremental = true
		st.nodeIndex = make(map[string]int, len(cfg.Nodes))
		for i, n := range cfg.Nodes {
			st.nodeIndex[n.ID] = i
		}
		st.hier.Obs = st.obs
	}
	cfg.Faults.Arm(cfg.Nodes, st.obs)
	root.SetFaultPlan(cfg.Faults, st.start, st.obs)
	if st.scale && !testDisableIncremental {
		// The event core marks leaves dirty on every energy-state change
		// (probes, steady-state credits, crashes, repairs, dropout-window
		// starts), so the root can sample incrementally — bit-identical to
		// the full sweep, at O(dirty) cost.
		root.SetIncremental(true)
		st.incTel = true
		if cfg.Faults != nil {
			for _, in := range cfg.Faults.Injections {
				ord, ok := st.nodeIndex[in.Node]
				if !ok {
					continue
				}
				switch in.Kind {
				case fault.MSRReadFault:
					// Energy reads consume the fault's countdown budget, so
					// the number of reads is observable until it fires: pin
					// the leaf dirty so it is read every sample, exactly as
					// the sweep would.
					root.PinLeafDirty(ord)
				case fault.TelemetryDropout:
					// Dropout windows open between samples without any
					// engine event of their own; a sorted cursor advanced
					// in onSample marks the leaf once its window can be
					// active.
					st.dropStarts = append(st.dropStarts, dropStart{at: in.At, ord: ord})
				}
			}
			sort.Slice(st.dropStarts, func(i, j int) bool {
				a, b := st.dropStarts[i], st.dropStarts[j]
				return a.at < b.at || (a.at == b.at && a.ord < b.ord)
			})
		}
	}
	for _, n := range cfg.Nodes {
		st.nodeByID[n.ID] = n
		// Node-level events (limit writes, MSR writes, pins) recorded
		// during the run carry virtual timestamps too. Campaign pool
		// clones arrive without a sink, so this is also what turns their
		// node instrumentation on.
		if cfg.Obs != nil {
			n.SetObs(st.obs)
		}
	}
	if _, err := root.Sample(st.start); err != nil { // prime energy trackers
		return nil, err
	}
	return st, nil
}

// replan redistributes the system budget across the running set. Each
// round runs under its own span (parented to the run span, parenting the
// per-node cap-write spans the manager opens) and records its wall latency.
func (st *simState) replan() error {
	jobs := len(st.mgr.Jobs())
	if jobs == 0 {
		return nil
	}
	st.round++
	sp := st.obs.StartSpan(st.spanCtx, "facility", "replan").SetIter(st.round).SetValue(float64(jobs))
	var t0 time.Time
	if st.obs.Enabled() {
		t0 = time.Now()
	}
	st.mgr.SpanParent = sp.Ctx()
	var alloc policy.Allocation
	var err error
	if st.scale {
		alloc, err = st.planHierarchical()
	} else {
		alloc, err = st.mgr.Plan(st.pol, st.curBudget, st.db)
	}
	if err == nil {
		err = st.mgr.Apply(alloc)
	}
	st.mgr.SpanParent = obs.SpanContext{}
	sp.End()
	if !t0.IsZero() {
		st.obs.ReplanLatency(jobs, time.Since(t0).Seconds())
	}
	return err
}

// submitArrival draws one arrival from the config RNG and enqueues it. The
// draw order (workload, size, length, next gap) is fixed, so the same seed
// produces the same job sequence. A submission whose demand exceeds the
// budget in force (rm.ErrBudgetInfeasible — possible under a dynamic
// timeline) is a degradation, not an error: the job is journaled as
// rejected and dropped, and the length and gap draws still happen so a
// rejection never perturbs the arrival sequence behind it. It returns the
// gap to the next arrival.
func (st *simState) submitArrival(at time.Time) (time.Duration, error) {
	st.jobSeq++
	spec := rm.JobSpec{
		ID:     fmt.Sprintf("job%05d", st.jobSeq),
		Config: st.cfg.Workloads[st.rng.IntN(len(st.cfg.Workloads))],
		Nodes:  st.cfg.JobSizes[st.rng.IntN(len(st.cfg.JobSizes))],
	}
	_, err := st.sched.Enqueue(spec)
	length := st.cfg.MinJobIterations + st.rng.IntN(st.cfg.MaxJobIterations-st.cfg.MinJobIterations+1)
	gap := expDuration(st.rng, st.cfg.MeanInterarrival)
	if err != nil {
		if errors.Is(err, rm.ErrBudgetInfeasible) && st.dynamicBudget() {
			st.res.Rejected++
			var demand units.Power
			if entry, derr := st.db.MustGet(spec.Config); derr == nil {
				demand = entry.MonitorHostPower * units.Power(spec.Nodes)
			}
			st.obs.JobRejected(spec.ID, demand.Watts(), st.curBudget.Watts())
			st.noteRejected(spec.ID, spec.Nodes, at.Sub(st.start))
			return gap, nil
		}
		return 0, err
	}
	st.lengths[spec.ID] = length
	st.submitTimes[spec.ID] = at
	st.res.Submitted++
	st.noteQueued(spec.ID, "", spec.Nodes, length, at.Sub(st.start))
	return gap, nil
}

// finalize computes the run's aggregate statistics.
func (st *simState) finalize() {
	res := st.res
	res.QueuedAtEnd = len(st.sched.Queue())
	if res.Started > 0 {
		res.MeanQueueWait /= time.Duration(res.Started)
	}
	var sum float64
	for _, s := range res.Trace {
		sum += s.Power.Watts()
		if s.Power > res.PeakPower {
			res.PeakPower = s.Power
		}
	}
	if len(res.Trace) > 0 {
		res.MeanPower = units.Power(sum / float64(len(res.Trace)))
	}
}

// Run executes the simulation. Cancelling ctx stops the run at the next
// event with ctx's error. Run is a thin loop over the re-entrant
// Instance — build, start, step straight to the horizon, close — and
// produces byte-identical Results to the pre-Instance monolith (pinned by
// the chunked-stepping equivalence tests in instance_test.go).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	in, err := NewInstance(cfg)
	if err != nil {
		return nil, err
	}
	// release (not Close) on error paths: end the root span and hand node
	// instrumentation back without finalizing a half-run Result.
	defer in.release()
	if err := in.Start(); err != nil {
		return nil, err
	}
	if err := in.Step(ctx, in.Horizon()); err != nil {
		return nil, err
	}
	return in.Close()
}

// expDuration samples an exponential inter-arrival gap. The result is
// clamped to at least 1ns: a mean so small that the sampled gap truncates
// to zero would otherwise stall the arrival chain at a single instant
// forever.
func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	u := rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := time.Duration(-math.Log(u) * float64(mean))
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return d
}
