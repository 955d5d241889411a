// Package fault is the stack's deterministic fault-injection substrate. A
// Plan is a declarative, seed-reproducible list of injections — per-node MSR
// read/write faults, node crashes with optional repair, slow-node
// degradation, telemetry sample dropouts, coordinator request dropouts, and
// characterization-entry corruption — that the evaluation grid, the online
// coordinator, and the facility simulation all consume through the same
// hooks the hardware layers already expose (msr.Device countdown faults,
// node degradation multipliers, telemetry leaf dropouts).
//
// The paper's stack runs on 900+ real Quartz nodes where msr-safe writes
// fail, hosts drop, and sensors stall; this package lets the simulation
// exercise exactly those per-host anomalies, repeatably. Every injection is
// journaled through the obs sink when one is attached, so a run's fault
// story is reconstructible from /events. An empty (or nil) plan arms
// nothing and perturbs nothing: a zero-fault run is byte-identical to one
// with no plan at all.
package fault

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"powerstack/internal/charz"
	"powerstack/internal/msr"
	"powerstack/internal/node"
	"powerstack/internal/obs"
	"powerstack/internal/units"
)

// Kind names one class of injected fault.
type Kind string

// The injectable fault classes.
const (
	// MSRWriteFault arms a countdown write fault on a node's power-limit
	// register: After successful writes, then persistent failure — the
	// flaky-msr-safe mode that silently broke the release path before the
	// stack degraded gracefully.
	MSRWriteFault Kind = "msr_write_fault"
	// MSRReadFault arms a countdown read fault on a node's energy-status
	// register, stalling its telemetry.
	MSRReadFault Kind = "msr_read_fault"
	// NodeCrash takes a node down at simulated time At: every MSR access
	// fails until RepairAfter elapses (zero = never repaired). The
	// evaluation grid, which has no simulated clock, treats any crash as
	// down for the whole run.
	NodeCrash Kind = "node_crash"
	// SlowNode multiplies a node's work time by Factor from At for
	// Duration (zero duration = rest of run).
	SlowNode Kind = "slow_node"
	// TelemetryDropout suppresses a node's telemetry samples in the window
	// [At, At+Duration); the hierarchy holds the last known value.
	TelemetryDropout Kind = "telemetry_dropout"
	// RequestDropout drops a job's coordinator Requests for Count
	// consecutive protocol rounds starting at Round.
	RequestDropout Kind = "request_dropout"
	// CharzCorruption poisons a characterization entry (NaN power fields),
	// modeling a damaged database record; policies fall back to StaticCaps
	// splits for its jobs.
	CharzCorruption Kind = "charz_corruption"
	// BudgetDrop is a facility-level emergency: from At for Duration (zero
	// = rest of run) the facility power budget is scaled by Factor (in
	// (0, 1)) — a demand-response event or thermal excursion. It targets no
	// node; the facility reacts through its EmergencyPolicy (preempt at a
	// checkpoint, throttle, or kill).
	BudgetDrop Kind = "budget_drop"
)

// Errors injected faults fail with. They are exported so degradation layers
// and tests can recognize their own injections with errors.Is.
var (
	// ErrInjectedWrite is the failure mode of MSRWriteFault.
	ErrInjectedWrite = errors.New("fault: injected msr write failure")
	// ErrInjectedRead is the failure mode of MSRReadFault.
	ErrInjectedRead = errors.New("fault: injected msr read failure")
	// ErrNodeDown is the failure mode of every access to a crashed node.
	ErrNodeDown = errors.New("fault: node down")
)

// Injection is one declarative fault. Which fields matter depends on Kind;
// unused fields are ignored.
type Injection struct {
	// Kind selects the fault class.
	Kind Kind
	// Node is the target node ID (all kinds except RequestDropout and
	// CharzCorruption).
	Node string
	// Job is the target job ID (RequestDropout).
	Job string
	// Config is the target configuration name (CharzCorruption).
	Config string
	// Reg overrides the target register for MSR faults (zero selects
	// MSR_PKG_POWER_LIMIT for writes, MSR_PKG_ENERGY_STATUS for reads).
	Reg uint32
	// After is the countdown budget of an MSR fault: that many accesses
	// succeed before the fault engages.
	After int
	// At is the simulated onset time (NodeCrash, SlowNode,
	// TelemetryDropout, BudgetDrop) relative to run start.
	At time.Duration
	// Duration bounds SlowNode, TelemetryDropout, and BudgetDrop windows
	// (zero = rest of the run).
	Duration time.Duration
	// RepairAfter is how long after At a crashed node is repaired and may
	// rejoin (zero = never).
	RepairAfter time.Duration
	// Factor is the SlowNode work-time multiplier (> 1), or the BudgetDrop
	// budget scale (in (0, 1)).
	Factor float64
	// Round and Count bound a RequestDropout: Count consecutive protocol
	// rounds are dropped starting at Round.
	Round, Count int
}

// Plan is an immutable set of injections. The zero value (and nil) is the
// empty plan: every query answers "no fault" and Arm does nothing, so
// fault-free runs take the exact same code paths as before the fault
// substrate existed.
type Plan struct {
	Injections []Injection
}

// NewPlan builds a plan from explicit injections.
func NewPlan(injections ...Injection) *Plan {
	return &Plan{Injections: injections}
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Injections) == 0 }

// Validate checks the plan's injections for structural problems (unknown
// kinds, missing targets, nonsensical factors).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, in := range p.Injections {
		switch in.Kind {
		case MSRWriteFault, MSRReadFault, NodeCrash, SlowNode, TelemetryDropout:
			if in.Node == "" {
				return fmt.Errorf("fault: injection %d (%s) has no target node", i, in.Kind)
			}
			if in.Kind == SlowNode && in.Factor <= 1 {
				return fmt.Errorf("fault: injection %d: slow-node factor %v must exceed 1", i, in.Factor)
			}
		case RequestDropout:
			if in.Job == "" {
				return fmt.Errorf("fault: injection %d (request_dropout) has no target job", i)
			}
			if in.Count <= 0 {
				return fmt.Errorf("fault: injection %d: request dropout count must be positive", i)
			}
		case CharzCorruption:
			if in.Config == "" {
				return fmt.Errorf("fault: injection %d (charz_corruption) has no target config", i)
			}
		case BudgetDrop:
			if in.Factor <= 0 || in.Factor >= 1 {
				return fmt.Errorf("fault: injection %d: budget-drop factor %v must be in (0, 1)", i, in.Factor)
			}
			if in.At < 0 {
				return fmt.Errorf("fault: injection %d: budget-drop onset %v must not be negative", i, in.At)
			}
		default:
			return fmt.Errorf("fault: injection %d has unknown kind %q", i, in.Kind)
		}
	}
	return nil
}

// Arm applies the plan's immediate hardware faults to the given pool:
// MSR read/write countdown faults, and slow-node degradations whose onset is
// the start of the run (At == 0 — the only onset the clockless evaluation
// grid can honor; the facility schedules timed ones itself from Timeline). Nodes
// named by the plan but absent from the pool are skipped: one plan can cover
// a whole cluster while each evaluation cell arms only its own clones.
// Every armed injection is journaled through sink (nil-safe).
func (p *Plan) Arm(pool []*node.Node, sink *obs.Sink) {
	if p.Empty() {
		return
	}
	byID := nodeIndex(pool)
	for _, in := range p.Injections {
		n, ok := byID[in.Node]
		if !ok {
			continue
		}
		switch in.Kind {
		case MSRWriteFault:
			reg := in.Reg
			if reg == 0 {
				reg = msr.MSRPkgPowerLimit
			}
			n.Sockets()[0].Dev.ArmFault(msr.OpWrite, reg, in.After, fmt.Errorf("%w: %s reg 0x%03X", ErrInjectedWrite, in.Node, reg))
			sink.FaultInjected(string(in.Kind), in.Node, "", float64(in.After))
		case MSRReadFault:
			reg := in.Reg
			if reg == 0 {
				reg = msr.MSRPkgEnergyStatus
			}
			n.Sockets()[0].Dev.ArmFault(msr.OpRead, reg, in.After, fmt.Errorf("%w: %s reg 0x%03X", ErrInjectedRead, in.Node, reg))
			sink.FaultInjected(string(in.Kind), in.Node, "", float64(in.After))
		case SlowNode:
			if in.At == 0 {
				n.SetDegradation(in.Factor)
				sink.FaultInjected(string(in.Kind), in.Node, "", in.Factor)
			}
		}
	}
}

// Transition is one time-scheduled fault firing, reported by ApplyAt so
// the caller can drain, rejoin, degrade, and journal.
type Transition struct {
	// Kind is NodeCrash, SlowNode, or the synthetic repair marker below.
	Kind Kind
	// Node is the affected node.
	Node string
	// Factor carries the slow-node multiplier (1 when a window closes).
	Factor float64
}

// NodeRepair marks a crashed node's scheduled repair in ApplyAt results.
const NodeRepair Kind = "node_repair"

// ApplyAt computes the time-scheduled transitions firing in (prev, now]:
// crashes, scheduled repairs, and slow-node windows opening or closing.
// Telemetry dropouts need no transition — DropoutActive answers them
// statelessly.
func (p *Plan) ApplyAt(prev, now time.Duration) []Transition {
	if p.Empty() {
		return nil
	}
	var out []Transition
	for _, in := range p.Injections {
		switch in.Kind {
		case NodeCrash:
			if in.At > prev && in.At <= now {
				out = append(out, Transition{Kind: NodeCrash, Node: in.Node})
			}
			if in.RepairAfter > 0 {
				if r := in.At + in.RepairAfter; r > prev && r <= now {
					out = append(out, Transition{Kind: NodeRepair, Node: in.Node})
				}
			}
		case SlowNode:
			if in.At > prev && in.At <= now {
				out = append(out, Transition{Kind: SlowNode, Node: in.Node, Factor: in.Factor})
			}
			if in.Duration > 0 {
				if e := in.At + in.Duration; e > prev && e <= now {
					out = append(out, Transition{Kind: SlowNode, Node: in.Node, Factor: 1})
				}
			}
		case BudgetDrop:
			if in.At > prev && in.At <= now {
				out = append(out, Transition{Kind: BudgetDrop, Factor: in.Factor})
			}
			if in.Duration > 0 {
				if e := in.At + in.Duration; e > prev && e <= now {
					out = append(out, Transition{Kind: BudgetDrop, Factor: 1})
				}
			}
		}
	}
	return out
}

// BudgetFactor returns the combined budget scale of every BudgetDrop window
// active at elapsed time t: the product of their factors, 1 when none is
// active (or the plan is empty). The facility multiplies its scheduled
// budget by this at every budget evaluation, so overlapping emergencies
// compound the way independent curtailment requests would.
func (p *Plan) BudgetFactor(t time.Duration) float64 {
	if p.Empty() {
		return 1
	}
	f := 1.0
	for _, in := range p.Injections {
		if in.Kind != BudgetDrop {
			continue
		}
		if t >= in.At && (in.Duration <= 0 || t < in.At+in.Duration) {
			f *= in.Factor
		}
	}
	return f
}

// TimedTransition is a Transition stamped with its exact firing time, for
// consumers that schedule faults as discrete events instead of scanning
// (prev, now] windows every tick.
type TimedTransition struct {
	// At is the transition's exact virtual firing time.
	At time.Duration
	Transition
}

// Timeline expands the plan's time-scheduled injections into an explicit
// event list: each NodeCrash yields a crash at At (plus a NodeRepair at
// At+RepairAfter when repair is scheduled), each SlowNode yields its onset
// at At (plus a Factor-1 window close at At+Duration when bounded). The
// list is sorted by time, ties broken by declaration order, so an event
// engine scheduling it in order dispatches exactly the transitions ApplyAt
// would have reported tick by tick.
func (p *Plan) Timeline() []TimedTransition {
	if p.Empty() {
		return nil
	}
	var out []TimedTransition
	for _, in := range p.Injections {
		switch in.Kind {
		case NodeCrash:
			out = append(out, TimedTransition{At: in.At, Transition: Transition{Kind: NodeCrash, Node: in.Node}})
			if in.RepairAfter > 0 {
				out = append(out, TimedTransition{At: in.At + in.RepairAfter, Transition: Transition{Kind: NodeRepair, Node: in.Node}})
			}
		case SlowNode:
			out = append(out, TimedTransition{At: in.At, Transition: Transition{Kind: SlowNode, Node: in.Node, Factor: in.Factor}})
			if in.Duration > 0 {
				out = append(out, TimedTransition{At: in.At + in.Duration, Transition: Transition{Kind: SlowNode, Node: in.Node, Factor: 1}})
			}
		case BudgetDrop:
			out = append(out, TimedTransition{At: in.At, Transition: Transition{Kind: BudgetDrop, Factor: in.Factor}})
			if in.Duration > 0 {
				out = append(out, TimedTransition{At: in.At + in.Duration, Transition: Transition{Kind: BudgetDrop, Factor: 1}})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// CrashedAtStart returns the IDs of nodes the plan crashes, for consumers
// with no simulated clock (the evaluation grid): any NodeCrash injection
// counts as down from the start, regardless of At.
func (p *Plan) CrashedAtStart() []string {
	if p.Empty() {
		return nil
	}
	var out []string
	seen := map[string]bool{}
	for _, in := range p.Injections {
		if in.Kind == NodeCrash && !seen[in.Node] {
			seen[in.Node] = true
			out = append(out, in.Node)
		}
	}
	return out
}

// ImpactedNodes returns the distinct node IDs the plan may take out of
// service (crashes and persistent MSR write faults) — the spare capacity an
// evaluation cell should provision for quarantine replacement.
func (p *Plan) ImpactedNodes() []string {
	if p.Empty() {
		return nil
	}
	var out []string
	seen := map[string]bool{}
	for _, in := range p.Injections {
		if (in.Kind == NodeCrash || in.Kind == MSRWriteFault) && !seen[in.Node] {
			seen[in.Node] = true
			out = append(out, in.Node)
		}
	}
	return out
}

// DropoutActive reports whether the node's telemetry sample at elapsed time
// t is suppressed by a dropout window.
func (p *Plan) DropoutActive(nodeID string, t time.Duration) bool {
	if p.Empty() {
		return false
	}
	for _, in := range p.Injections {
		if in.Kind != TelemetryDropout || in.Node != nodeID {
			continue
		}
		if t >= in.At && (in.Duration <= 0 || t < in.At+in.Duration) {
			return true
		}
	}
	return false
}

// RequestDropped reports whether the job's coordinator Request at the given
// protocol round is lost.
func (p *Plan) RequestDropped(jobID string, round int) bool {
	if p.Empty() {
		return false
	}
	for _, in := range p.Injections {
		if in.Kind != RequestDropout || in.Job != jobID {
			continue
		}
		if round >= in.Round && round < in.Round+in.Count {
			return true
		}
	}
	return false
}

// CorruptDB returns a copy of the database with the plan's
// characterization corruptions applied (NaN-poisoned power fields, the way
// a damaged record reads back). The original database is never touched.
// With no corruption injections the original is returned as-is, keeping the
// zero-fault path allocation-free and byte-identical. Each corruption is
// journaled through sink.
func (p *Plan) CorruptDB(db *charz.DB, sink *obs.Sink) *charz.DB {
	if p.Empty() || db == nil {
		return db
	}
	var targets []string
	for _, in := range p.Injections {
		if in.Kind == CharzCorruption {
			targets = append(targets, in.Config)
		}
	}
	if len(targets) == 0 {
		return db
	}
	out := db.Clone()
	for _, name := range targets {
		e, ok := out.Entries[name]
		if !ok {
			continue
		}
		nan := units.Power(math.NaN())
		e.MonitorHostPower = nan
		e.NeededCritical = nan
		e.NeededMean = nan
		out.Entries[name] = e
		sink.FaultInjected(string(CharzCorruption), "", name, 0)
	}
	return out
}

// Crash takes a node down: every unprivileged MSR access on every socket
// fails with ErrNodeDown until Repair. The privileged interface (the
// silicon) keeps working, exactly like a host whose OS died while the power
// rails stayed up.
func Crash(n *node.Node) {
	for _, su := range n.Sockets() {
		for _, reg := range su.Dev.Registers() {
			su.Dev.SetFault(reg, fmt.Errorf("%w: %s", ErrNodeDown, n.ID))
		}
	}
}

// Repair clears a crash injected by Crash, restoring all register access.
func Repair(n *node.Node) {
	for _, su := range n.Sockets() {
		for _, reg := range su.Dev.Registers() {
			su.Dev.SetFault(reg, nil)
		}
	}
}

// nodeIndex maps a pool by ID.
func nodeIndex(pool []*node.Node) map[string]*node.Node {
	byID := make(map[string]*node.Node, len(pool))
	for _, n := range pool {
		byID[n.ID] = n
	}
	return byID
}

// GenOptions shape a generated plan. Counts select how many distinct nodes
// receive each fault class; the seed makes selection, registers, onsets,
// and factors fully deterministic.
type GenOptions struct {
	Seed uint64

	// MSRWriteFaults nodes get a PL1 write fault engaging after 1-3
	// successful writes.
	MSRWriteFaults int
	// MSRReadFaults nodes get an energy-status read fault engaging after
	// 2-10 successful reads.
	MSRReadFaults int
	// Crashes nodes go down at a uniform time in [0, Horizon); a fraction
	// RepairFraction of them are repaired after 10-40% of the horizon.
	Crashes int
	// RepairFraction in [0, 1] selects how many crashes heal.
	RepairFraction float64
	// SlowNodes nodes degrade by a factor in [1.1, 2.0] at a uniform
	// onset.
	SlowNodes int
	// Dropouts nodes lose telemetry for 5-20% of the horizon at a uniform
	// onset.
	Dropouts int
	// BudgetDrops facility-level budget emergencies occur at uniform
	// onsets: the budget scales to 40-80% of its scheduled value for
	// 10-30% of the horizon.
	BudgetDrops int
	// Horizon is the simulated span the timed faults spread over (zero
	// collapses every onset to the start of the run, which is what the
	// clockless evaluation grid wants).
	Horizon time.Duration
	// CorruptConfigs are characterization entries to poison.
	CorruptConfigs []string
	// DropRequests maps job IDs to the number of consecutive protocol
	// rounds their Requests drop, starting at a seed-chosen round in
	// [1, 20].
	DropRequests map[string]int
}

// Generate builds a deterministic plan over the given node IDs: the same
// seed and options always produce the same plan, and disjoint fault classes
// draw from independent sub-streams so adding one class never reshuffles
// another. Counts larger than the population are clamped.
func Generate(nodeIDs []string, opts GenOptions) *Plan {
	p := &Plan{}
	pick := func(stream uint64, count int) []string {
		if count > len(nodeIDs) {
			count = len(nodeIDs)
		}
		if count <= 0 {
			return nil
		}
		rng := rand.New(rand.NewPCG(opts.Seed, stream^0x9E3779B97F4A7C15))
		perm := rng.Perm(len(nodeIDs))
		out := make([]string, count)
		for i := 0; i < count; i++ {
			out[i] = nodeIDs[perm[i]]
		}
		return out
	}
	onset := func(rng *rand.Rand) time.Duration {
		if opts.Horizon <= 0 {
			return 0
		}
		return time.Duration(rng.Float64() * float64(opts.Horizon))
	}

	wrng := rand.New(rand.NewPCG(opts.Seed, 0xA1))
	for _, id := range pick(1, opts.MSRWriteFaults) {
		p.Injections = append(p.Injections, Injection{
			Kind: MSRWriteFault, Node: id, After: 1 + wrng.IntN(3),
		})
	}
	rrng := rand.New(rand.NewPCG(opts.Seed, 0xB2))
	for _, id := range pick(2, opts.MSRReadFaults) {
		p.Injections = append(p.Injections, Injection{
			Kind: MSRReadFault, Node: id, After: 2 + rrng.IntN(9),
		})
	}
	crng := rand.New(rand.NewPCG(opts.Seed, 0xC3))
	for i, id := range pick(3, opts.Crashes) {
		in := Injection{Kind: NodeCrash, Node: id, At: onset(crng)}
		if opts.Horizon > 0 && float64(i)+0.5 < opts.RepairFraction*float64(opts.Crashes) {
			in.RepairAfter = time.Duration((0.1 + 0.3*crng.Float64()) * float64(opts.Horizon))
		}
		p.Injections = append(p.Injections, in)
	}
	srng := rand.New(rand.NewPCG(opts.Seed, 0xF4))
	for _, id := range pick(4, opts.SlowNodes) {
		p.Injections = append(p.Injections, Injection{
			Kind: SlowNode, Node: id, At: onset(srng), Factor: 1.1 + 0.9*srng.Float64(),
		})
	}
	drng := rand.New(rand.NewPCG(opts.Seed, 0xD5))
	for _, id := range pick(5, opts.Dropouts) {
		var dur time.Duration
		if opts.Horizon > 0 {
			dur = time.Duration((0.05 + 0.15*drng.Float64()) * float64(opts.Horizon))
		}
		p.Injections = append(p.Injections, Injection{
			Kind: TelemetryDropout, Node: id, At: onset(drng), Duration: dur,
		})
	}
	brng := rand.New(rand.NewPCG(opts.Seed, 0xB7))
	for i := 0; i < opts.BudgetDrops; i++ {
		var dur time.Duration
		if opts.Horizon > 0 {
			dur = time.Duration((0.1 + 0.2*brng.Float64()) * float64(opts.Horizon))
		}
		p.Injections = append(p.Injections, Injection{
			Kind: BudgetDrop, At: onset(brng), Duration: dur, Factor: 0.4 + 0.4*brng.Float64(),
		})
	}
	for _, cfg := range opts.CorruptConfigs {
		p.Injections = append(p.Injections, Injection{Kind: CharzCorruption, Config: cfg})
	}
	if len(opts.DropRequests) > 0 {
		qrng := rand.New(rand.NewPCG(opts.Seed, 0xE6))
		for _, job := range sortedKeys(opts.DropRequests) {
			p.Injections = append(p.Injections, Injection{
				Kind: RequestDropout, Job: job, Round: 1 + qrng.IntN(20), Count: opts.DropRequests[job],
			})
		}
	}
	return p
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// insertion sort: tiny maps, no extra import
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
