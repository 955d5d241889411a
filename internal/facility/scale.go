// Scale mode: the 100k-node path. Above a node-count threshold (or on
// request) the facility switches three hot paths from exact-but-flat to
// hierarchical-and-flat-memory: the policy replan negotiates watts down the
// rack/room tree instead of over every job at once, telemetry samples run
// as a linear sweep over the flattened hierarchy, and telemetry history is
// clamped to a bounded window (Result.Trace keeps the full facility series
// regardless). Below the threshold none of this engages, so small runs stay
// byte-identical to the original flat core — pinned by the golden tests in
// scale_test.go.
package facility

import (
	"powerstack/internal/coordinator"
	"powerstack/internal/policy"
	"powerstack/internal/telemetry"
	"powerstack/internal/units"
)

// Scale-mode selectors for Config.ScaleMode.
const (
	// ScaleAuto (the zero value) engages the hierarchical machinery only
	// above ScaleThreshold nodes.
	ScaleAuto = ""
	// ScaleOn forces the hierarchical replan and linear telemetry sweep at
	// any size.
	ScaleOn = "scale"
	// ScaleCompat forces the exact flat replan and recursive telemetry
	// sampling at any size — the baseline lane of cmd/scalebench. Nothing
	// else differs from ScaleAuto below the threshold.
	ScaleCompat = "compat"
)

// ScaleThreshold is the node count above which ScaleAuto switches to the
// hierarchical paths. 4096 sits well clear of the ≤1k-node configurations
// whose behavior is pinned byte-identical to the flat core.
const ScaleThreshold = 4096

// facilityPDUSize is the telemetry PDU fan-out the facility builds its
// hierarchy with; the replan's rack grouping mirrors it so power decisions
// follow the same physical tree telemetry aggregates over.
const facilityPDUSize = 16

// scaleActive reports whether this configuration runs the hierarchical
// paths.
func (c *Config) scaleActive() bool {
	switch c.ScaleMode {
	case ScaleOn:
		return true
	case ScaleCompat:
		return false
	default:
		return len(c.Nodes) > ScaleThreshold
	}
}

// scaleHistory bounds the telemetry ring length in scale mode: 106k Series
// sized to a week-long run would hold gigabytes of samples nobody reads
// (Result.Trace carries the facility series independently), while the
// recent-window consumers (Last, the watchdog) never look deeper than this.
const scaleHistory = 64

// planScratch is the request/topology scratch the hierarchical replan
// reuses between rounds: per-job aggregate requests, rack/room assignment,
// the rack grouping, and the policy sub-round input.
type planScratch struct {
	reqs   []coordinator.Request
	rackOf []int
	roomOf []int

	groupIdx map[int]int // rack id -> group index
	groups   [][]int     // rack group -> info indexes, first-appearance order
	sub      []policy.JobInfo
}

// planRequests assembles the per-job power requests (floor, characterized
// need, max useful) and each job's rack/room assignment into the reused
// scratch. A job belongs to the rack of its first host.
func (st *simState) planRequests(infos []policy.JobInfo) {
	sc := &st.plan
	jobs := st.mgr.Jobs()
	sc.reqs = growPlan(sc.reqs, len(infos))
	sc.rackOf = growPlan(sc.rackOf, len(infos))
	sc.roomOf = growPlan(sc.roomOf, len(infos))
	for i, info := range infos {
		var min, max, needed units.Power
		for _, h := range info.Hosts {
			min += h.Min
			max += h.Max
			if info.Fallback {
				needed += h.Max
			} else {
				needed += units.Clamp(info.Char.MonitorHostPower, h.Min, h.Max)
			}
		}
		sc.reqs[i] = coordinator.Request{JobID: info.ID, Min: min, Needed: needed, MaxUseful: max}
		idx := st.nodeIndex[jobs[i].Job.Hosts[0].Node.ID]
		sc.rackOf[i] = idx / facilityPDUSize
		sc.roomOf[i] = sc.rackOf[i] / telemetry.PDUsPerRoom
	}
}

// groupByRack rebuilds the rack grouping over the current plan scratch:
// jobs grouped by rack in first-appearance order, inner slices reused.
func (st *simState) groupByRack() {
	sc := &st.plan
	if sc.groupIdx == nil {
		sc.groupIdx = make(map[int]int)
	}
	clear(sc.groupIdx)
	ng := 0
	for i := range sc.reqs {
		gi, ok := sc.groupIdx[sc.rackOf[i]]
		if !ok {
			gi = ng
			sc.groupIdx[sc.rackOf[i]] = gi
			if gi < len(sc.groups) {
				sc.groups[gi] = sc.groups[gi][:0]
			} else {
				sc.groups = append(sc.groups, nil)
			}
			ng++
		}
		sc.groups[gi] = append(sc.groups[gi], i)
	}
	sc.groups = sc.groups[:ng]
}

// planHierarchical is the scale-mode replan round. Per-job power requests
// are aggregated along the rack/room tree and the system budget granted
// back down it via the scratch-pooled coordinator.HierAlloc; the policy
// then distributes each rack's aggregate grant over that rack's jobs only.
// The flat replan asks the policy to weigh every job against every other;
// this asks it to weigh rack-mates only, with cross-rack balance settled by
// the water-fill at the rack and room tiers.
func (st *simState) planHierarchical() (policy.Allocation, error) {
	infos, err := st.mgr.JobInfos(st.db)
	if err != nil {
		return nil, err
	}
	st.planRequests(infos)
	sc := &st.plan
	grants := st.hier.Allocate(st.curBudget, sc.reqs, sc.rackOf, sc.roomOf)
	st.groupByRack()
	alloc := policy.Allocation{}
	for _, members := range sc.groups {
		var budget units.Power
		sc.sub = sc.sub[:0]
		for _, i := range members {
			budget += grants[i].Budget
			sc.sub = append(sc.sub, infos[i])
		}
		part, err := st.pol.Allocate(policy.System{Budget: budget}, sc.sub)
		if err != nil {
			return nil, err
		}
		for id, caps := range part {
			alloc[id] = caps
		}
	}
	return alloc, nil
}

// growPlan returns s resized to n, reusing capacity.
func growPlan[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
