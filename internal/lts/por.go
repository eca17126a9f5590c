package lts

// This file implements exploration-time partial-order reduction: per
// expanded state, the builder registers an ample (persistent) subset of
// the enabled transitions instead of all of them, so commuting
// interleavings of independent synchronisations collapse to one
// representative order and the reduced reachable set shrinks.
//
// The independence relation comes straight from the component-multiset
// semantics: a transition's participants are the acting positions of
// forEachStep (one position for an interleaving step, two for a
// synchronisation), successors are multiset surgery on exactly those
// positions, and solo/pairwise enabledness is a pure function of the
// participating component IDs. Two transitions with disjoint participant
// sets therefore commute: firing one neither disables the other nor
// changes its successor. The ample computation closes a set C of
// protected positions so that
//
//   (C0) the ample set is non-empty (it contains the seed transition);
//   (C1) every enabled transition touching C is ample, and no sequence
//        of non-ample transitions can enable a new transition touching C
//        — non-ample transitions keep every C component frozen, so the
//        ample transitions stay enabled and commute to the front
//        (persistence);
//   (C2) every ample label is invisible to the property (POR.Visible);
//   (C3) an ample-only edge never closes a cycle: a state whose selected
//        successor was already discovered is fully expanded instead, so
//        every cycle of the reduced graph contains a fully expanded
//        state and no enabled transition is deferred forever.
//
// C1's "no future enabling" half is checked with a context-free
// descendant closure: a position outside C joins C when any component
// its current component can evolve into (through any number of its own
// steps, in any context) could synchronise with the current component
// of a C member. That over-approximation is cheap — it is a pure
// function of component IDs and memoised across the exploration — and
// it is what decides how far a reduction can go: compositions whose
// conflict graph falls apart into independent clusters (ping-pong
// pairs) collapse to nearly linear size, while a Dining-shaped ring,
// where every unit's future touches both neighbours, keeps ample sets
// close to full and the reduction is mostly in edges, not states (see
// DESIGN.md §por for the measurements).
//
// Everything here runs on the single-threaded registration side of the
// engines (serial loop, parallel merge, incremental expansion) and uses
// only content-deterministic queries — boolean set membership, position
// order, canonical proposal order — never interner-ID iteration order,
// so the reduced LTS honours the byte-determinism contract: it is
// identical at any worker count.

import (
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// POR configures exploration-time partial-order reduction
// (Options.PartialOrder).
type POR struct {
	// Visible reports whether the verified property observes the label.
	// A transition with a visible label never enters a proper ample set
	// (condition C2), so the visible projection of every full run — all
	// the property can distinguish — survives the reduction. Nil means
	// no label is visible.
	Visible func(l typelts.Label) bool

	// Liveness selects the strong cycle proviso: an ample set is usable
	// only when none of its successors' ample decisions were already made,
	// so no cycle of the reduced graph is built from reduced states only
	// and no enabled transition is deferred around a lasso forever —
	// required for properties with eventualities (Reactive). Safety
	// properties (NonUsage, DeadlockFree) only need the weak queue
	// proviso — at least one selected successor still undecided: a
	// deferred transition stays enabled by persistence and the deferral
	// chain follows strictly later-decided states, so some state on it is
	// eventually expanded in full and fires the transition; deadlock
	// states are preserved by persistence alone.
	Liveness bool
}

// maxAmpleSeeds bounds how many seed transitions the ample computation
// tries per state. Seeds are tried in canonical proposal order, so the
// bound only matters for states with very wide branching; giving up
// merely falls back to full expansion, which is always sound.
const maxAmpleSeeds = 64

// porState holds the memoised relations and per-state scratch of the
// ample-set computation for one exploration.
type porState struct {
	spec *POR
	sem  *typelts.Semantics

	// canSync memoises, per unordered component-ID pair, whether the two
	// components can synchronise in either direction (+1 yes, -1 no).
	// Synchronisation enabledness is a pure function of the two IDs, so
	// the memo is exploration-global.
	canSync map[[2]types.ID]int8

	// descs memoises the context-free descendant closure per component
	// ID (see desc).
	descs map[types.ID][]types.ID

	// Per-state scratch, reused across expansions.
	inC      []bool    // position ∈ C (protected)
	inAmple  []bool    // proposal ∈ ample set
	queue    []int     // positions awaiting rule-A processing
	posProps [][]int32 // position → indices of touching proposals
}

func newPORState(spec *POR, sem *typelts.Semantics) *porState {
	return &porState{spec: spec, sem: sem, canSync: make(map[[2]types.ID]int8, 256), descs: make(map[types.ID][]types.ID, 64)}
}

func (p *porState) visible(l typelts.Label) bool {
	return p.spec.Visible != nil && p.spec.Visible(l)
}

// syncable reports whether components x and y can synchronise in either
// direction (probing sender → receiver only), memoised per unordered pair.
func (p *porState) syncable(x, y types.ID) bool {
	k := [2]types.ID{x, y}
	if k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
	if v, ok := p.canSync[k]; ok {
		return v > 0
	}
	xs, xr := roles(p.sem.ComponentSteps(x))
	ys, yr := roles(p.sem.ComponentSteps(y))
	v := int8(-1)
	if xs && yr && len(p.sem.SyncSteps(x, y)) > 0 || ys && xr && len(p.sem.SyncSteps(y, x)) > 0 {
		v = 1
	}
	p.canSync[k] = v
	return v > 0
}

// registerProps registers a state's proposals: under POR, a valid ample
// subset whose successors are all fresh (C3) alone; otherwise all.
func (b *builder) registerProps(from int32, comps []types.ID, props []proposal) {
	var sel []int32
	if b.por != nil {
		// Cycle proviso (C3): an ample set is only usable when none of its
		// edges closes back onto a state whose ample decision was already
		// made (or onto this very state) — otherwise a cycle of ample-only
		// edges could defer the dropped transitions forever. Feeding the
		// check into seed selection lets a different seed succeed where the
		// first choice would close a cycle. Soundness: every cycle of the
		// reduced graph contains a fully expanded state — consider the last
		// state of a cycle to make its decision; its cycle successor decided
		// earlier, so the check fired and the state expanded fully.
		fresh := func(succ []types.ID) bool {
			num, ok := b.peekSeen(succ)
			return !ok || (num != b.porCur && !b.porExpanded(num))
		}
		sel = b.por.ample(comps, props, fresh)
	}
	if sel == nil {
		for i := range props {
			b.register(from, props[i].succ, props[i].key, props[i].lab)
		}
		return
	}
	for _, k := range sel {
		b.register(from, props[k].succ, props[k].key, props[k].lab)
	}
}

// peekSeen returns the state number of the successor multiset if it is
// already discovered, without registering anything. InternPar sorts by
// ID value internally, so no rank ordering is needed — and none is
// assigned, keeping the peek free of ordering side effects.
func (b *builder) peekSeen(succ []types.ID) (int32, bool) {
	b.scratch = append(b.scratch[:0], succ...)
	num, ok := b.index[b.in.InternPar(b.scratch)]
	return num, ok
}

// ample returns the indices (in canonical proposal order) of a valid
// ample subset of props at the state with component multiset comps, or
// nil when the state must be fully expanded. fresh is the cycle-proviso
// filter: a candidate set with a non-fresh successor is discarded (and
// another seed tried).
func (p *porState) ample(comps []types.ID, props []proposal, fresh func(succ []types.ID) bool) []int32 {
	if len(props) < 2 {
		return nil
	}
	n := len(comps)
	if cap(p.posProps) < n {
		p.posProps = make([][]int32, n)
		p.inC = make([]bool, n)
	}
	p.posProps = p.posProps[:n]
	p.inC = p.inC[:n]
	for i := range p.posProps {
		p.posProps[i] = p.posProps[i][:0]
	}
	if cap(p.inAmple) < len(props) {
		p.inAmple = make([]bool, len(props))
	}
	p.inAmple = p.inAmple[:len(props)]
	for k := range props {
		p.posProps[props[k].i] = append(p.posProps[props[k].i], int32(k))
		if props[k].j >= 0 {
			p.posProps[props[k].j] = append(p.posProps[props[k].j], int32(k))
		}
	}

	// Seeds are tried in canonical proposal order (position-major): every
	// state prefers to advance its lowest reducible position, and the
	// first valid ample set wins. The consistency matters more than the
	// set size — when neighbouring states agree on which position moves
	// first, the commuting interleavings collapse into one canonical
	// corridor instead of re-reaching the dropped diamond states through
	// sibling orders.
	tries := len(props)
	if tries > maxAmpleSeeds {
		tries = maxAmpleSeeds
	}
	for seed := 0; seed < tries; seed++ {
		sel := p.closure(comps, props, seed)
		if sel == nil {
			continue
		}
		ok := false // weak (safety) proviso: ∃ fresh selected successor
		for _, k := range sel {
			if fresh(props[k].succ) {
				ok = true
				if !p.spec.Liveness {
					break
				}
			} else if p.spec.Liveness {
				// Strong proviso: ∀ selected successors fresh.
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		return sel
	}
	return nil
}

// closure grows the seed transition into an ample set: rule A pulls in
// every enabled proposal touching a protected position (failing on a
// visible label), rule B protects every position whose context-justified
// future can synchronise with a protected component. Returns the ample
// proposal indices in ascending order, or nil when the closure covers
// everything (no reduction) or meets a visible label.
func (p *porState) closure(comps []types.ID, props []proposal, seed int) []int32 {
	n := len(comps)
	for i := range p.inC {
		p.inC[i] = false
	}
	for i := range p.inAmple {
		p.inAmple[i] = false
	}
	p.queue = p.queue[:0]
	ampleCount := 0

	addPos := func(pos int32) {
		if !p.inC[pos] {
			p.inC[pos] = true
			p.queue = append(p.queue, int(pos))
		}
	}
	addProp := func(k int) bool {
		if p.inAmple[k] {
			return true
		}
		if p.visible(props[k].lab) {
			return false
		}
		p.inAmple[k] = true
		ampleCount++
		addPos(props[k].i)
		if props[k].j >= 0 {
			addPos(props[k].j)
		}
		return true
	}

	if !addProp(seed) {
		return nil
	}
	for {
		for len(p.queue) > 0 {
			pos := p.queue[len(p.queue)-1]
			p.queue = p.queue[:len(p.queue)-1]
			for _, k := range p.posProps[pos] {
				if !addProp(int(k)) {
					return nil
				}
			}
			if ampleCount == len(props) {
				return nil
			}
		}
		if !p.ruleB(comps, n) {
			break
		}
	}

	sel := make([]int32, 0, ampleCount)
	for k := range props {
		if p.inAmple[k] {
			sel = append(sel, int32(k))
		}
	}
	if len(sel) == len(props) {
		return nil
	}
	return sel
}

// ruleB protects every position whose current component could ever —
// after any number of its own steps — synchronise with the current
// component of a protected position, and reports whether C grew. A
// position that passes this test can only interact with C after C
// itself moves, so freezing C also freezes every interaction the
// position could have with it: no sequence of non-ample transitions
// enables a new transition touching C (the future-enabling half of
// persistence).
//
// The future of a component is its context-free descendant closure —
// every component reachable through its own steps regardless of
// whether a synchronisation partner exists. That over-approximates
// what the position can do in any context, which errs toward
// protecting more positions and is therefore sound; it is also a pure
// function of the component ID, so the closure is memoised for the
// whole exploration and the per-state cost is a handful of indexed
// set probes.
func (p *porState) ruleB(comps []types.ID, n int) bool {
	grew := false
	for q := 0; q < n; q++ {
		if p.inC[q] {
			continue
		}
		hit := false
		for _, id := range p.desc(comps[q]) {
			for pos := 0; pos < n && !hit; pos++ {
				if p.inC[pos] && p.syncable(id, comps[pos]) {
					hit = true
				}
			}
			if hit {
				break
			}
		}
		if hit {
			p.inC[q] = true
			p.queue = append(p.queue, q)
			grew = true
		}
	}
	return grew
}

// desc returns the context-free descendant closure of a component:
// the component itself plus every component reachable through its own
// steps, in deterministic discovery order. Memoised per ID for the
// whole exploration.
func (p *porState) desc(id types.ID) []types.ID {
	if d, ok := p.descs[id]; ok {
		return d
	}
	seen := map[types.ID]bool{id: true}
	closure := []types.ID{id}
	for k := 0; k < len(closure); k++ {
		for _, st := range p.sem.ComponentSteps(closure[k]) {
			for _, nxt := range st.Next {
				if !seen[nxt] {
					seen[nxt] = true
					closure = append(closure, nxt)
				}
			}
		}
	}
	p.descs[id] = closure
	return closure
}
