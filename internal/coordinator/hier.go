package coordinator

import (
	"fmt"

	"powerstack/internal/obs"
	"powerstack/internal/units"
)

// HierAlloc runs hierarchical allocations with reused scratch: the per-rack
// and per-room aggregate requests, member index lists, sub-round buffers,
// and the "rackN"/"roomN" label strings are all kept between calls, so a
// facility replanning every few simulated minutes allocates nothing on this
// path at steady state. The zero value is ready to use. A HierAlloc is not
// safe for concurrent Allocate calls; give each goroutine its own.
type HierAlloc struct {
	// Obs, when set, journals degradations to the flat allocator (an event
	// plus a counter) instead of letting them pass silently. Nil-safe.
	Obs *obs.Sink

	rackIdx     map[int]int // rack id -> aggregate index
	rackReqs    []Request   // one aggregate request per rack
	rackRoom    []int       // rack aggregate -> room id
	rackMembers [][]int     // rack aggregate -> request indexes
	roomIdx     map[int]int
	roomReqs    []Request
	roomMembers [][]int // room aggregate -> rack aggregate indexes

	grants     []Grant   // result buffer, reused
	roomGrants []Grant   // room-round output
	rackSub    []Request // per-room rack sub-round input
	rackGrants []Grant
	jobSub     []Request // per-rack job sub-round input
	jobGrants  []Grant

	rackNames []string // dense "rackN" label cache, indexed by rack id
	roomNames []string
}

// rackName returns the cached "rackN" label, growing the cache on first use
// of a rack id. Labels only name aggregate pseudo-requests inside the
// rounds; they never appear in the returned grants.
func (h *HierAlloc) rackName(id int) string {
	for id >= len(h.rackNames) {
		h.rackNames = append(h.rackNames, fmt.Sprintf("rack%d", len(h.rackNames)))
	}
	return h.rackNames[id]
}

func (h *HierAlloc) roomName(id int) string {
	for id >= len(h.roomNames) {
		h.roomNames = append(h.roomNames, fmt.Sprintf("room%d", len(h.roomNames)))
	}
	return h.roomNames[id]
}

// Allocate is AllocateHierarchical over the reused scratch: requests are
// aggregated per rack and racks per room in first-appearance order, the
// budget is water-filled over rooms, each room's grant over its racks, and
// each rack's grant over its own requests — value-identical to the package
// function. Malformed topology inputs (rackOf/roomOf length mismatches)
// degrade to the flat Allocate, journaled through Obs rather than silently.
//
// The returned slice is owned by h and valid until the next call.
func (h *HierAlloc) Allocate(budget units.Power, reqs []Request, rackOf, roomOf []int) []Grant {
	h.grants = grow(h.grants, len(reqs))
	if len(rackOf) != len(reqs) || len(roomOf) != len(reqs) {
		h.Obs.HierFallback("topology_len_mismatch", len(reqs))
		return allocateInto(h.grants, budget, reqs)
	}
	h.aggregate(reqs, rackOf, roomOf)
	h.roomGrants = grow(h.roomGrants, len(h.roomReqs))
	allocateInto(h.roomGrants, budget, h.roomReqs)
	for mi := range h.roomReqs {
		h.allocateRoom(mi, reqs)
	}
	return h.grants
}

// aggregate sums requests per rack, then racks per room, in
// first-appearance order — the summation order that keeps the float
// aggregates deterministic.
func (h *HierAlloc) aggregate(reqs []Request, rackOf, roomOf []int) {
	if h.rackIdx == nil {
		h.rackIdx = make(map[int]int)
		h.roomIdx = make(map[int]int)
	}
	clear(h.rackIdx)
	clear(h.roomIdx)
	h.rackReqs = h.rackReqs[:0]
	h.rackRoom = h.rackRoom[:0]
	h.roomReqs = h.roomReqs[:0]

	for i, r := range reqs {
		ri, ok := h.rackIdx[rackOf[i]]
		if !ok {
			ri = len(h.rackReqs)
			h.rackIdx[rackOf[i]] = ri
			h.rackReqs = append(h.rackReqs, Request{JobID: h.rackName(rackOf[i])})
			h.rackRoom = append(h.rackRoom, roomOf[i])
			if ri < len(h.rackMembers) {
				h.rackMembers[ri] = h.rackMembers[ri][:0]
			} else {
				h.rackMembers = append(h.rackMembers, nil)
			}
		}
		h.rackReqs[ri].Min += r.Min
		h.rackReqs[ri].Needed += r.Needed
		h.rackReqs[ri].MaxUseful += r.MaxUseful
		h.rackMembers[ri] = append(h.rackMembers[ri], i)
	}
	for ri, rr := range h.rackReqs {
		mi, ok := h.roomIdx[h.rackRoom[ri]]
		if !ok {
			mi = len(h.roomReqs)
			h.roomIdx[h.rackRoom[ri]] = mi
			h.roomReqs = append(h.roomReqs, Request{JobID: h.roomName(h.rackRoom[ri])})
			if mi < len(h.roomMembers) {
				h.roomMembers[mi] = h.roomMembers[mi][:0]
			} else {
				h.roomMembers = append(h.roomMembers, nil)
			}
		}
		h.roomReqs[mi].Min += rr.Min
		h.roomReqs[mi].Needed += rr.Needed
		h.roomReqs[mi].MaxUseful += rr.MaxUseful
		h.roomMembers[mi] = append(h.roomMembers[mi], ri)
	}
}

// allocateRoom runs room mi's rack and job rounds: the room's grant is
// water-filled over its racks, each rack's grant over its own requests,
// and the per-request grants written into h.grants at their request
// indexes.
func (h *HierAlloc) allocateRoom(mi int, reqs []Request) {
	members := h.roomMembers[mi]
	h.rackSub = h.rackSub[:0]
	for _, ri := range members {
		h.rackSub = append(h.rackSub, h.rackReqs[ri])
	}
	h.rackGrants = grow(h.rackGrants, len(members))
	allocateInto(h.rackGrants, h.roomGrants[mi].Budget, h.rackSub)
	for k, ri := range members {
		jobs := h.rackMembers[ri]
		h.jobSub = h.jobSub[:0]
		for _, qi := range jobs {
			h.jobSub = append(h.jobSub, reqs[qi])
		}
		h.jobGrants = grow(h.jobGrants, len(jobs))
		allocateInto(h.jobGrants, h.rackGrants[k].Budget, h.jobSub)
		for j, qi := range jobs {
			h.grants[qi] = Grant{JobID: reqs[qi].JobID, Budget: h.jobGrants[j].Budget}
		}
	}
}

// grow returns s resized to n, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
