package typelts_test

import (
	"testing"

	"effpi/internal/lts"
	"effpi/internal/systems"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// has reports whether some step's label is of the kind of want.
func has(steps []typelts.CompStep, want func(typelts.Label) bool) bool {
	for _, st := range steps {
		if want(st.Label) {
			return true
		}
	}
	return false
}

func isOutput(l typelts.Label) bool { _, ok := l.(typelts.Output); return ok }
func isInput(l typelts.Label) bool  { _, ok := l.(typelts.Input); return ok }

// TestSyncStepsNeedSenderAndReceiver: over every component the Fig. 9
// rows and the seeded random systems reach, SyncSteps(ci, cj) is empty
// whenever ci has no Output step or cj has no Input step. Exploration
// probes only such sender × receiver pairs and relies on this.
func TestSyncStepsNeedSenderAndReceiver(t *testing.T) {
	pairs := 0
	for _, s := range append(systems.Fig9Systems(), systems.RandomSystems(200)...) {
		sem := &typelts.Semantics{Env: s.Env, Observable: map[string]bool{}, WitnessOnly: true, Cache: typelts.NewCache(s.Env, true)}
		x := lts.NewIncremental(sem, s.Type, lts.Options{MaxStates: 1 << 14})
		seen := map[types.ID]bool{}
		var comps []types.ID
		for st := 0; st < x.Len(); st++ {
			if _, err := x.Succ(st); err != nil {
				break
			}
			for _, c := range x.StateComps(st) {
				if !seen[c] {
					seen[c] = true
					comps = append(comps, c)
				}
			}
		}
		for _, ci := range comps {
			for _, cj := range comps {
				if has(sem.ComponentSteps(ci), isOutput) && has(sem.ComponentSteps(cj), isInput) {
					continue
				}
				pairs++
				if ss := sem.SyncSteps(ci, cj); len(ss) > 0 {
					t.Fatalf("%s: SyncSteps(%s, %s) = %d steps without a sender and a receiver", s.Name, sem.Cache.Interner().TypeOf(ci), sem.Cache.Interner().TypeOf(cj), len(ss))
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no component pair lacks a sender or a receiver")
	}
}
