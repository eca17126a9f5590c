package verify

import (
	"fmt"
	"strings"
	"testing"

	"effpi/internal/mucalc"
	"effpi/internal/types"
)

// philosophers builds an n-philosopher/n-fork system inline (the systems
// package sits above verify in the import graph); deadlock selects the
// all-grab-left variant.
func philosophers(n int, deadlock bool) (*types.Env, types.Type) {
	unit := types.Unit{}
	env := types.NewEnv()
	forks := make([]string, n)
	for i := range forks {
		forks[i] = fmt.Sprintf("f%d", i)
		env = env.MustExtend(forks[i], types.ChanIO{Elem: unit})
	}
	out := func(ch string, cont types.Type) types.Type {
		return types.Out{Ch: types.Var{Name: ch}, Payload: unit, Cont: types.Thunk(cont)}
	}
	in := func(ch, v string, cont types.Type) types.Type {
		return types.In{Ch: types.Var{Name: ch}, Cont: types.Pi{Var: v, Dom: unit, Cod: cont}}
	}
	var comps []types.Type
	for i := 0; i < n; i++ {
		comps = append(comps, types.Rec{Var: "t", Body: out(forks[i], in(forks[i], "u", types.RecVar{Name: "t"}))})
	}
	for i := 0; i < n; i++ {
		first, second := forks[i], forks[(i+1)%n]
		if !deadlock && i == 0 {
			first, second = second, first
		}
		comps = append(comps, types.Rec{Var: "t", Body: in(first, "u", in(second, "u2",
			out(first, out(second, types.RecVar{Name: "t"}))))})
	}
	return env, types.ParOf(comps...)
}

// TestWitnessThreadedThroughVerify: the standard pipeline attaches a
// decoded witness to every LTL FAIL, consistent with the Counterexample,
// with every visited state decoded to a component multiset, and Replay
// accepts it.
func TestWitnessThreadedThroughVerify(t *testing.T) {
	env, sys := philosophers(3, true)
	o, err := Verify(Request{Env: env, Type: sys, Property: Property{Kind: DeadlockFree, Closed: true}})
	if err != nil {
		t.Fatal(err)
	}
	if o.Holds {
		t.Fatal("deadlocking philosophers must fail deadlock-freedom")
	}
	if o.Witness == nil || o.Witness.Raw == nil {
		t.Fatal("FAIL outcome carries no witness")
	}
	if len(o.Witness.Cycle) != len(o.Counterexample.Cycle) || len(o.Witness.Stem) != len(o.Counterexample.Prefix) {
		t.Error("witness and counterexample disagree on lasso shape")
	}
	for _, st := range append(append([]WitnessStep{}, o.Witness.Stem...), o.Witness.Cycle...) {
		if _, ok := o.Witness.States[st.From]; !ok {
			t.Errorf("state %d visited but not decoded", st.From)
		}
		if _, ok := o.Witness.States[st.To]; !ok {
			t.Errorf("state %d visited but not decoded", st.To)
		}
	}
	if err := Replay(o); err != nil {
		t.Errorf("replay: %v", err)
	}
	// The rendered trace mentions the lasso head's state id and a cycle.
	text := o.Witness.Render(80)
	if !strings.Contains(text, "cycle (repeats forever)") {
		t.Errorf("rendered witness lacks the cycle section:\n%s", text)
	}
}

// TestReplayRejectsTamperedOutcome: Replay is only satisfied by genuine
// witnesses — swapping in the run of a different system, or doctoring
// labels, must fail, as must replaying a PASS.
func TestReplayRejectsTamperedOutcome(t *testing.T) {
	env, sys := philosophers(3, true)
	bad, err := Verify(Request{Env: env, Type: sys, Property: Property{Kind: DeadlockFree, Closed: true}})
	if err != nil {
		t.Fatal(err)
	}
	good, err := Verify(Request{Env: env, Type: sys, Property: Property{Kind: EventualOutput, Channels: []string{"f0"}, Closed: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !good.Holds {
		t.Fatal("ev-usage must hold on philosophers")
	}
	if err := Replay(good); err == nil {
		t.Error("replaying a PASS must fail")
	}

	// Doctor the witness: divert one cycle step to a wrong destination.
	w := bad.Witness.Raw
	w.CycleStates[1]++
	if err := Replay(bad); err == nil {
		t.Error("doctored witness must not replay")
	}
	w.CycleStates[1]--
	if err := Replay(bad); err != nil {
		t.Errorf("restored witness must replay: %v", err)
	}

	// A witness for a formula it does not violate: the structural stage
	// still passes (same LTS), but the Büchi stage must reject — no run
	// violates ⊤, so the ¬⊤ automaton accepts nothing.
	savedFormula := bad.Formula
	bad.Formula = mucalc.True{}
	crossErr := Replay(bad)
	bad.Formula = savedFormula
	if crossErr == nil {
		t.Error("a lasso cannot witness a violation of ⊤: the Büchi replay stage must reject it")
	}
}

// TestReplayEvUsageContract: existential failures carry no witness and
// Replay says so explicitly.
func TestReplayEvUsageContract(t *testing.T) {
	// A system where f0 is never used for output: a single looping input
	// on f1 keeps the composition alive without touching f0.
	env := types.EnvOf(
		"f0", types.ChanIO{Elem: types.Unit{}},
		"f1", types.ChanIO{Elem: types.Unit{}},
	)
	sys := types.ParOf(
		types.Rec{Var: "t", Body: types.Out{Ch: types.Var{Name: "f1"}, Payload: types.Unit{},
			Cont: types.Thunk(types.In{Ch: types.Var{Name: "f1"}, Cont: types.Pi{Var: "u", Dom: types.Unit{}, Cod: types.RecVar{Name: "t"}}})}},
		types.Rec{Var: "t", Body: types.In{Ch: types.Var{Name: "f1"}, Cont: types.Pi{Var: "v", Dom: types.Unit{},
			Cod: types.Out{Ch: types.Var{Name: "f1"}, Payload: types.Unit{}, Cont: types.Thunk(types.RecVar{Name: "t"})}}}},
	)
	o, err := Verify(Request{Env: env, Type: sys, Property: Property{Kind: EventualOutput, Channels: []string{"f0"}, Closed: true}})
	if err != nil {
		t.Fatal(err)
	}
	if o.Holds {
		t.Fatal("ev-usage(f0) must fail: f0 is never used")
	}
	if o.Witness != nil {
		t.Error("existential failure must not carry a witness")
	}
	err = Replay(o)
	if err == nil || !strings.Contains(err.Error(), "existential") {
		t.Errorf("Replay must explain the existential contract, got %v", err)
	}
}

// TestEarlyExitAtMaxStatesFrontier: a violation found before the bound
// bites returns a valid witness even though the space was never fully
// explorable under that bound; a bound too tight to reach any violation
// errors out like the full pipeline.
func TestEarlyExitAtMaxStatesFrontier(t *testing.T) {
	env, sys := philosophers(5, true)
	full, err := Verify(Request{Env: env, Type: sys, Property: Property{Kind: DeadlockFree, Closed: true}, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Holds {
		t.Fatal("expected FAIL")
	}

	// The full pipeline cannot verify under a bound below the reachable
	// state count…
	if _, err := Verify(Request{Env: env, Type: sys, Property: Property{Kind: DeadlockFree, Closed: true}, Parallelism: 1, MaxStates: full.States / 2}); err == nil {
		t.Fatal("full pipeline must fail under a bound below the state count")
	}
	// …but early exit finds the violation inside the same budget: the
	// witness lives at the frontier of a partial exploration.
	early, err := Verify(Request{Env: env, Type: sys, Property: Property{Kind: DeadlockFree, Closed: true}, EarlyExit: true, MaxStates: full.States / 2})
	if err != nil {
		t.Fatalf("early exit within the frontier budget: %v", err)
	}
	if early.Holds {
		t.Fatal("early exit must find the violation")
	}
	if early.States > full.States/2 {
		t.Errorf("early exit discovered %d states under a bound of %d", early.States, full.States/2)
	}
	if !early.LTS.Partial {
		t.Error("frontier outcome must carry a partial LTS")
	}
	if err := Replay(early); err != nil {
		t.Errorf("frontier witness must replay: %v", err)
	}

	// A bound too tight for even the violating dive errors out.
	if _, err := Verify(Request{Env: env, Type: sys, Property: Property{Kind: DeadlockFree, Closed: true}, EarlyExit: true, MaxStates: 2}); err == nil {
		t.Fatal("early exit under an unreachably tight bound must error")
	} else if !strings.Contains(err.Error(), "state bound") {
		t.Errorf("want a state-bound error, got: %v", err)
	}
}

// TestEarlyExitFallsBackForAlphabetShapedSchemas: Forwarding, Responsive
// and EventualOutput silently run the full pipeline under EarlyExit.
func TestEarlyExitFallsBackForAlphabetShapedSchemas(t *testing.T) {
	env, sys := philosophers(3, true)
	for _, p := range []Property{
		{Kind: Forwarding, From: "f0", To: "f1", Closed: true},
		{Kind: Responsive, From: "f0", Closed: true},
		{Kind: EventualOutput, Channels: []string{"f0"}, Closed: true},
	} {
		o, err := Verify(Request{Env: env, Type: sys, Property: p, EarlyExit: true})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if o.EarlyExit {
			t.Errorf("%s: must fall back to the full pipeline", p)
		}
		if o.LTS == nil || o.LTS.Partial {
			t.Errorf("%s: fallback must explore fully", p)
		}
	}
}

// TestVerifyAllRenderedWitnessesDeterministic: a rendered witness lists
// each state's ‖-components in the exploration's encounter order, so it
// is the same at any parallelism and on every run — even though
// concurrent BFS workers assign interner IDs in schedule order.
func TestVerifyAllRenderedWitnessesDeterministic(t *testing.T) {
	env, sys := philosophers(5, true)
	props := []Property{
		{Kind: DeadlockFree, Closed: true},
		{Kind: Forwarding, From: "f0", To: "f1", Closed: true},
		{Kind: NonUsage, Channels: []string{"f0"}, Closed: true},
		{Kind: Reactive, From: "f0", Closed: true},
		{Kind: Responsive, From: "f0", Closed: true},
		{Kind: DeadlockFree, Channels: []string{"f0"}},
	}
	render := func(par int) []string {
		t.Helper()
		outs, err := VerifyAllWith(env, sys, props, AllOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		texts := make([]string, len(outs))
		for i, o := range outs {
			if o.Witness != nil {
				texts[i] = o.Witness.Render(0)
			}
		}
		return texts
	}
	want := render(1)
	if want[0] == "" {
		t.Fatal("closed deadlock-freedom must fail with a witness on the deadlocking ring")
	}
	for _, par := range []int{2, 8} {
		for run := 0; run < 5; run++ {
			for i, got := range render(par) {
				if got != want[i] {
					t.Fatalf("par %d run %d %s: rendered witness differs from par 1:\n%s\nwant:\n%s", par, run, props[i], got, want[i])
				}
			}
		}
	}
}
