package lts_test

// The exactness tests of the sender × receiver enumeration: on every
// state every engine expands, the production enumeration (lts.ForEachStep)
// must equal a reference that probes synchronisation on every ordered
// pair of positions, and the state's edge list must be the reference
// steps registered in order. The reference lives only here.

import (
	"fmt"
	"strings"
	"testing"

	"effpi/internal/lts"
	"effpi/internal/systems"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// allPairs is the reference enumeration: the Y-limited interleaving
// steps of each position, then SyncSteps of every ordered pair i ≠ j in
// lexicographic order.
func allPairs(sem *typelts.Semantics, comps []types.ID, emit func(i, j int, st typelts.CompStep)) {
	for i, c := range comps {
		for _, st := range sem.ComponentSteps(c) {
			if sem.KeepLabel(st.Label) {
				emit(i, -1, st)
			}
		}
	}
	for i := range comps {
		for j := range comps {
			if i == j {
				continue
			}
			for _, st := range sem.SyncSteps(comps[i], comps[j]) {
				emit(i, j, st)
			}
		}
	}
}

type refStep struct {
	i, j int
	st   typelts.CompStep
}

func collect(enum func(*typelts.Semantics, []types.ID, func(int, int, typelts.CompStep)), sem *typelts.Semantics, comps []types.ID) []refStep {
	var out []refStep
	enum(sem, comps, func(i, j int, st typelts.CompStep) { out = append(out, refStep{i, j, st}) })
	return out
}

func renderSteps(steps []refStep) string {
	var b strings.Builder
	for _, s := range steps {
		fmt.Fprintf(&b, "%d %d %v %v\n", s.i, s.j, s.st.Key, s.st.Next)
	}
	return b.String()
}

// expansionEngines are the engine configurations the exactness tests
// expand every state with.
var expansionEngines = []struct {
	name        string
	par         int
	incremental bool
	por         bool
}{
	{"serial", 1, false, false},
	{"par2", 2, false, false},
	{"par8", 8, false, false},
	{"incremental", 1, true, false},
	{"por-serial", 1, false, true},
	{"por-par2", 2, false, true},
	{"por-incremental", 1, true, true},
}

// edgeKey is an edge as the reference predicts it: label key and the
// interned successor multiset.
type edgeKey struct {
	key typelts.LabelKey
	dst types.ID
}

// checkExpansionExact explores init with every engine and checks every
// expanded state: the production enumeration equals allPairs, and the
// state's edges are the deduplicated reference steps in order (a
// subsequence of them under partial-order reduction, which registers an
// ample subset).
func checkExpansionExact(t *testing.T, name string, env *types.Env, init types.Type, obs map[string]bool) {
	t.Helper()
	// The engines share one cache, so component IDs agree across them
	// and wants can memoise, per component sequence, the reference edge
	// list: the engines mostly expand the same states.
	cache := typelts.NewCache(env, true)
	in := cache.Interner()
	wants := map[string][]edgeKey{}
	for _, eng := range expansionEngines {
		sem := &typelts.Semantics{Env: env, Observable: obs, WitnessOnly: true, Cache: cache}
		opts := lts.Options{MaxStates: 1 << 14, Parallelism: eng.par}
		if eng.por {
			opts.PartialOrder = &lts.POR{}
		}
		// comps[s] and out[s] are state s's component multiset and
		// edges, labels resolved through label. A run that hits the
		// state bound has unexpanded states, so only its enumeration is
		// checked.
		var comps [][]types.ID
		var out [][]lts.Edge
		var label func(lts.Edge) typelts.Label
		var err error
		if eng.incremental {
			x := lts.NewIncremental(sem, init, opts)
			for s := 0; err == nil && s < x.Len(); s++ {
				var es []lts.Edge
				es, err = x.Succ(s)
				comps = append(comps, x.StateComps(s))
				out = append(out, es)
			}
			label = func(e lts.Edge) typelts.Label { return x.Labels()[e.Label] }
		} else {
			var m *lts.LTS
			m, comps, err = lts.ExploreComps(sem, init, opts)
			for s := range comps {
				out = append(out, m.Out(s))
			}
			label = m.LabelOf
		}
		multiset := func(ids []types.ID) types.ID { return in.InternPar(append([]types.ID(nil), ids...)) }
		for s, cs := range comps {
			memo := fmt.Sprint(cs)
			want, ok := wants[memo]
			if !ok {
				ref := collect(allPairs, sem, cs)
				if got, want := renderSteps(collect(lts.ForEachStep, sem, cs)), renderSteps(ref); got != want {
					t.Fatalf("%s %s state %d: enumeration differs from all-pairs reference\n--- got ---\n%s--- want ---\n%s", name, eng.name, s, got, want)
				}
				want = referenceEdges(sem, cs, ref, multiset)
				wants[memo] = want
			}
			if err != nil {
				continue
			}
			var got []edgeKey
			for _, e := range out[s] {
				got = append(got, edgeKey{sem.Cache.LabelKeyOf(label(e)), multiset(comps[e.Dst])})
			}
			if !isSubsequence(got, want) || !eng.por && len(got) != len(want) {
				t.Fatalf("%s %s state %d: edges %v, reference %v", name, eng.name, s, got, want)
			}
		}
	}
}

// referenceEdges registers the reference steps of the state with
// component sequence cs: successor multisets spliced as the builder
// does, (label, successor) duplicates dropped, and an edge-less state
// completed with ✔ or ⊠.
func referenceEdges(sem *typelts.Semantics, cs []types.ID, ref []refStep, multiset func([]types.ID) types.ID) []edgeKey {
	var want []edgeKey
	seen := map[edgeKey]bool{}
	for _, r := range ref {
		succ := make([]types.ID, 0, len(cs)+len(r.st.Next))
		for k, c := range cs {
			if k != r.i && k != r.j {
				succ = append(succ, c)
			}
		}
		e := edgeKey{r.st.Key, multiset(append(succ, r.st.Next...))}
		if !seen[e] {
			seen[e] = true
			want = append(want, e)
		}
	}
	if len(ref) == 0 {
		var lab typelts.Label = typelts.Stuck{}
		if len(cs) == 0 {
			lab = typelts.Done{}
		}
		want = append(want, edgeKey{sem.Cache.LabelKeyOf(lab), multiset(cs)})
	}
	return want
}

func isSubsequence(sub, seq []edgeKey) bool {
	k := 0
	for _, e := range seq {
		if k < len(sub) && sub[k] == e {
			k++
		}
	}
	return k == len(sub)
}

// TestRandomExpansionExact runs the exactness check on the seeded
// random systems, closed and with the probe channels of the first
// property observable.
func TestRandomExpansionExact(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	for seed := 0; seed < n; seed++ {
		s := systems.RandomSystem(int64(seed))
		probe := map[string]bool{}
		for _, x := range s.Props[0].Observables() {
			probe[x] = true
		}
		for _, obs := range []map[string]bool{{}, probe} {
			checkExpansionExact(t, fmt.Sprintf("seed %d", seed), s.Env, s.Type, obs)
		}
	}
}

// TestFig9ExpansionExact runs the exactness check on the Fig. 9 rows,
// closed as their properties are verified.
func TestFig9ExpansionExact(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 9 rows skipped in -short mode")
	}
	for _, s := range systems.Fig9Systems() {
		checkExpansionExact(t, s.Name, s.Env, s.Type, map[string]bool{})
	}
}
