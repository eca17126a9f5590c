package lts

// This file implements the parallel exploration engine: a
// level-synchronised BFS over the type LTS.
//
// The serial engine (builder.exploreSerial) interleaves two very
// different kinds of work: *expansion* — computing a state's component
// steps and synchronisations, which bottoms out in subtype checks,
// µ-unfolding and substitution — and *registration* — interning the
// successor multisets, assigning state numbers and splicing the CSR edge
// array. Expansion dominates and is embarrassingly parallel once the
// transition cache is concurrency-safe; registration is cheap but order-
// sensitive, because state numbers and the dense label alphabet are
// assigned first-seen.
//
// So the parallel engine splits them. Each BFS level (the states
// discovered by the previous level's merge) is expanded by Parallelism
// workers, each holding a Fork of the semantics and sharing its
// lock-striped cache; a worker turns one state into an ordered list of
// edge proposals — successor multiset, label and compact label key —
// without touching the LTS under construction. A single-threaded merge
// then replays the proposals in (parent-index, edge-order) order through
// exactly the same builder methods the serial engine uses, so state
// numbering, alphabet order, edge order and truncation behaviour are
// identical to the serial engine's at any worker count. See DESIGN.md
// for the determinism argument.

import (
	"sync"
	"sync/atomic"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// proposal is one candidate edge produced by a worker: the successor
// component multiset (before interning) plus the transition label and
// its compact identity. The merge turns proposals into states and CSR
// edges.
type proposal struct {
	succ []types.ID
	key  typelts.LabelKey
	lab  typelts.Label
	// i and j are the acting positions in the parent's component
	// multiset (j is -1 for an interleaving step). The ample-set
	// computation of partial-order reduction derives its independence
	// relation from them; plain registration ignores them.
	i, j int32
}

// minParallelFrontier is the frontier size below which a level is
// expanded inline on the merge goroutine: spawning workers for a
// handful of states costs more than it saves.
const minParallelFrontier = 4

// exploreParallel runs the level-synchronised BFS with par workers.
// The worker Semantics forks are created once and reused across levels
// — the levels are separated by a join, so no fork is ever used by two
// goroutines at once, and reuse keeps each worker's L1 memo hot for the
// whole exploration instead of one level.
func (b *builder) exploreParallel(par int) error {
	forks := make([]*typelts.Semantics, par)
	for i := range forks {
		forks[i] = b.sem.Fork()
	}
	for done := 0; done < len(b.l.States); {
		lo, hi := done, len(b.l.States)
		n := hi - lo

		if b.ctx.Err() != nil {
			return b.cancelled()
		}

		// Expand the level. If the bound is already exceeded the merge
		// will fail at state lo, so skip the (possibly huge) expansion.
		var props [][]proposal
		if hi <= b.maxStates {
			props = b.expandLevel(lo, n, forks)
			// Workers bail early on cancellation, leaving nil proposal
			// slots; the merge must not mistake those for edge-less states.
			if b.ctx.Err() != nil {
				return b.cancelled()
			}
		} else {
			props = make([][]proposal, n)
		}

		// Merge in deterministic (parent-index, edge-order) order,
		// mirroring the serial loop state by state.
		for i := 0; i < n; i++ {
			next := lo + i
			if len(b.l.States) > b.maxStates {
				return b.boundExceeded()
			}
			from := b.l.start[next]
			b.beginState()
			// Registration and POR's ample selection run only here, on
			// the single-threaded side, so the LTS (symmetric or
			// reduced) is byte-identical at any worker count.
			b.porCur = int32(next)
			b.registerProps(from, b.stateComps[next], props[i])
			b.finishState(next, from)
			props[i] = nil
		}
		done = hi
		b.report(done)
	}
	return nil
}

// expandLevel computes the proposals of states [lo, lo+n) — concurrently
// when the frontier is large enough to amortise the goroutine handoff,
// inline otherwise (on forks[0], so the warm L1 memo is still used).
func (b *builder) expandLevel(lo, n int, forks []*typelts.Semantics) [][]proposal {
	props := make([][]proposal, n)
	workers := len(forks)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minParallelFrontier {
		for i := 0; i < n; i++ {
			if i%cancelStride == 0 && b.ctx.Err() != nil {
				return props
			}
			props[i] = expandState(forks[0], b.stateComps[lo+i])
		}
		return props
	}

	done := b.ctx.Done()
	var idx atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		ws := forks[w]
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1)) - 1
				if i >= n {
					return
				}
				if done != nil {
					select {
					case <-done:
						// Cancelled mid-level: stop expanding. The merge
						// re-checks ctx before consuming the (partial)
						// proposals.
						return
					default:
					}
				}
				props[i] = expandState(ws, b.stateComps[lo+i])
			}
		}()
	}
	wg.Wait()
	return props
}

// expandState computes the edge proposals of one state, in forEachStep's
// order — the order the serial engine splices them.
func expandState(sem *typelts.Semantics, comps []types.ID) []proposal {
	var out []proposal
	forEachStep(sem, comps, func(i, j int, st typelts.CompStep) {
		out = append(out, proposal{succ: spliceSucc(comps, i, j, st.Next), key: st.Key, lab: st.Label, i: int32(i), j: int32(j)})
	})
	return out
}
