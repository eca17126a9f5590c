// Package verify implements the paper's headline result: verification of
// safety and liveness properties of message-passing programs by model
// checking their types (Thm. 4.10 and Fig. 7).
//
// Given Γ ⊢ t : T, a property of t is established by (1) exploring the
// labelled transition system of T under the Y-limitation ↑Γ {x1..xn}
// (Def. 4.2, 4.9), (2) compiling the requested property schema from the
// right-hand column of Fig. 7 — using the input/output uses of Def. 4.8
// and the imprecise-synchronisation set Aτ — and (3) model checking the
// formula on the LTS. The paper delegated step (3) to mCRL2; here it is
// the native checker of package mucalc.
package verify

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"effpi/internal/lts"
	"effpi/internal/mucalc"
	"effpi/internal/typelts"
	"effpi/internal/types"
)

// Kind enumerates the property schemas of Fig. 7.
type Kind int

const (
	// NonUsage (Fig. 7.1): none of the probed channels is ever used for
	// output.
	NonUsage Kind = iota
	// DeadlockFree (Fig. 7.2): the process only pauses to interact on the
	// probed channels and never gets stuck (proper termination ✔ counts
	// as success, see DESIGN.md).
	DeadlockFree
	// EventualOutput (Fig. 7.3): some probed channel is eventually used
	// for output, with no imprecise synchronisation before.
	EventualOutput
	// Forwarding (Fig. 7.4): every z received from channel From is
	// eventually forwarded on channel To, before From is read again.
	Forwarding
	// Reactive (Fig. 7.5): the process runs forever and is always
	// eventually able to receive from channel From.
	Reactive
	// Responsive (Fig. 7.6): every channel z received from From is
	// eventually used to send a response, before From is read again.
	Responsive
)

var kindNames = map[Kind]string{
	NonUsage:       "non-usage",
	DeadlockFree:   "deadlock-free",
	EventualOutput: "ev-usage",
	Forwarding:     "forwarding",
	Reactive:       "reactive",
	Responsive:     "responsive",
}

func (k Kind) String() string { return kindNames[k] }

// AllKinds lists the six schemas in the column order of Fig. 9.
func AllKinds() []Kind {
	return []Kind{DeadlockFree, EventualOutput, Forwarding, NonUsage, Reactive, Responsive}
}

// Property is a property instance to verify.
type Property struct {
	Kind Kind
	// Channels are the probe channels x1..xn (NonUsage, DeadlockFree,
	// EventualOutput).
	Channels []string
	// From and To parameterise Forwarding (From → To); Reactive and
	// Responsive use From only.
	From, To string
	// Closed verifies the type as a closed composition: the Y-limitation
	// is ∅, so no free inputs/outputs fire and every action is an
	// internal synchronisation (whose labels record subjects and
	// payloads, so the Def. 4.8 use-sets still see them). This is the
	// right mode for self-contained systems such as the Fig. 9
	// benchmarks: free environment moves would otherwise let arbitrarily
	// unfair injections starve any liveness obligation. Open (partial)
	// processes leave Closed false, exposing the probe channels to the
	// environment as in Def. 4.9.
	Closed bool
}

// Observables returns the Y-limitation set implied by the property.
func (p Property) Observables() []string {
	switch p.Kind {
	case Forwarding:
		return []string{p.From, p.To}
	case Reactive, Responsive:
		return []string{p.From}
	default:
		return p.Channels
	}
}

func (p Property) String() string {
	switch p.Kind {
	case Forwarding:
		return fmt.Sprintf("forwarding(%s→%s)", p.From, p.To)
	case Reactive, Responsive:
		return fmt.Sprintf("%s(%s)", p.Kind, p.From)
	default:
		return fmt.Sprintf("%s(%s)", p.Kind, strings.Join(p.Channels, ","))
	}
}

// Request bundles a verification query: check that every process of type
// Type (in Env) satisfies Property.
type Request struct {
	Env      *types.Env
	Type     types.Type
	Property Property
	// MaxStates bounds LTS exploration (0 = lts.DefaultMaxStates).
	MaxStates int
	// Reuse, when non-nil, skips exploration and verifies on a previously
	// explored LTS (which must have been built with the same observables).
	Reuse *lts.LTS
	// Cache, when non-nil, supplies the shared transition cache (interner
	// + memoised raw steps) the exploration runs on. VerifyAll threads one
	// cache through all properties of a system so their explorations
	// share per-state work; it must have been built with
	// typelts.NewCache(Env, true).
	Cache *typelts.Cache
	// Parallelism is the worker count for LTS exploration
	// (lts.Options.Parallelism): 0 = GOMAXPROCS, 1 = serial. The verdict
	// and the explored LTS are identical at any value.
	Parallelism int
	// Reduction selects the Reduce stage of the pipeline (Explore →
	// Reduce → Check). ReduceStrong checks the property on the strong-
	// bisimulation quotient of the explored LTS (over the formula's
	// observation classes) instead of the concrete state space; verdicts
	// are identical, FAIL witnesses are lifted back to concrete runs and
	// re-validated by Replay before the outcome is returned, and the
	// outcome's ReducedStates records the block count actually checked.
	// EventualOutput (existential, checked by reachability, no formula)
	// always runs on the concrete LTS; so do formulas that simplify to ⊤
	// (the checker answers those without touching the model), and an
	// EarlyExit request that takes the on-the-fly path skips the stage
	// too (on-the-fly quotienting is future work; see ROADMAP).
	Reduction Reduction
	// Symmetry selects exploration-time symmetry reduction (see
	// SymmetryMode): with SymmetryOn, a closed property of a system with
	// detectable channel-bundle symmetry explores the orbit LTS — often
	// exponentially smaller — and every FAIL's witness is lifted back to
	// a concrete run and re-validated by Replay. Verdicts are identical
	// to SymmetryOff. Ignored when Reuse is set (the reused LTS carries
	// its own symmetry bookkeeping, which the FAIL lift honours).
	Symmetry SymmetryMode
	// PartialOrder selects exploration-time partial-order reduction (see
	// PartialOrderMode): with PartialOrderOn, an eligible property
	// (NonUsage, DeadlockFree, Reactive) explores only an ample subset of
	// each state's enabled transitions, computed from the independence
	// relation of the type semantics with the property's visible labels
	// excluded (lts.POR). Verdicts are identical to PartialOrderOff, and
	// every FAIL's witness — already a concrete run, since ample sets only
	// drop edges — is re-validated by Replay before the outcome returns.
	// Ignored when Reuse is set (the reused LTS is already explored), for
	// the non-eligible schemas, and when symmetry reduction claims the
	// exploration: symmetry wins, because the orbit construction must see
	// every concrete successor (the two exploration-time reductions do
	// not stack; see DESIGN.md §por).
	PartialOrder PartialOrderMode
	// joint, when non-nil, is the shared cross-property joint quotient of
	// the reused LTS (see buildJoint); a ReduceStrong check then refines
	// the joint quotient instead of the full LTS.
	joint *jointQuotient
	// EarlyExit selects on-the-fly checking: the property's formula is
	// compiled symbolically (alphabet-independent action-set predicates),
	// and the nested DFS drives an lts.Incremental that materialises
	// states only as the search reaches them — so a violation found early
	// leaves the rest of the state space unexplored, and the outcome's
	// States counts only what was discovered. Verdicts are identical to
	// the full pipeline's. Honored for the schemas whose formula structure
	// does not depend on the explored alphabet (NonUsage, DeadlockFree,
	// Reactive); the others — Forwarding, Responsive (shaped by the
	// payload variables found in the alphabet) and EventualOutput (not
	// LTL) — silently run the full pipeline, as does a Reuse request.
	// On-the-fly exploration is serial; Parallelism is ignored. The
	// outcome's LTS is the explored fragment (lts.LTS.Partial).
	EarlyExit bool
	// Progress, when non-nil, receives periodic exploration snapshots
	// (lts.Options.Progress).
	Progress func(lts.Progress)
}

// Outcome is a verification result.
type Outcome struct {
	Property Property
	// Holds is the verdict: by Thm. 4.10, when it is true, every
	// productive process of the given type satisfies the corresponding
	// left-column property of Fig. 7 at run time.
	Holds bool
	// Formula is the compiled right-column formula.
	Formula mucalc.Formula
	// States is the size of the (Y-limited, run-completed) type LTS: the
	// number of concrete states the verdict covers. Under symmetry
	// reduction it is the sum of orbit sizes (saturating at MaxInt64 —
	// then reported as the int cap), so it equals what a concrete
	// exploration would have visited; StatesExplored is what was actually
	// explored.
	States int
	// StatesExplored is the number of states the exploration materialised
	// — orbit representatives under symmetry reduction, otherwise equal
	// to States. The symmetry win is States / StatesExplored.
	StatesExplored int
	// ReducedStates is the number of quotient blocks the checker actually
	// ran on when a Reduce stage was applied (0 = no reduction stage; the
	// reduction ratio is States / ReducedStates).
	ReducedStates int
	// ProductStates and AutomatonStates report model-checker effort.
	ProductStates   int
	AutomatonStates int
	// Duration is the wall-clock verification time: exploration and
	// check for a single request; under VerifyAll, the property task's
	// wall time, including its group exploration's run or wait.
	Duration time.Duration
	// Counterexample is a violating run when Holds is false.
	Counterexample *mucalc.Trace
	// Witness, when Holds is false, is the decoded state-level lasso
	// behind Counterexample: every visited LTS state with its component
	// multiset, machine-replayable via Replay. EventualOutput failures
	// carry no witness (the schema is existential; see Replay).
	Witness *Witness
	// LTS is the explored state space (reusable across properties). Under
	// EarlyExit it is the explored fragment (lts.LTS.Partial) and must not
	// be reused.
	LTS *lts.LTS
	// WitnessLTS, when the outcome is a symmetric FAIL, is the concrete
	// fragment the lifted witness runs over (the orbit LTS's states and
	// labels are canonical representatives, so the witness cannot
	// validate against LTS). Replay validates against it when set; the
	// outcome's Formula is then the property recompiled over its
	// alphabet.
	WitnessLTS *lts.LTS
	// EarlyExit reports that the on-the-fly engine produced this outcome:
	// States counts discovered states only, and Expanded of them were
	// materialised before the search concluded.
	EarlyExit bool
	Expanded  int
	// PartialOrder reports that the exploration ran under partial-order
	// reduction: States and StatesExplored count the ample-reduced state
	// space — a subset of the full one, whose size is never computed —
	// and a FAIL witness is a concrete run of that subset, validated by
	// Replay. False when the request's PartialOrderOn silently disengaged
	// (non-eligible schema, Reuse, or symmetry reduction taking
	// precedence).
	PartialOrder bool
}

// Verify runs the full pipeline for one property.
func Verify(req Request) (*Outcome, error) {
	return VerifyContext(context.Background(), req)
}

// VerifyContext is Verify with cancellation: ctx is plumbed into the LTS
// exploration (lts.ExploreContext / lts.NewIncrementalContext) and the
// model-checking passes (mucalc.CheckModelContext), so the request
// returns promptly — with an error wrapping ctx.Err() — once the context
// is cancelled or past its deadline. A cancelled request leaves any
// shared typelts.Cache fully usable: the cache is an append-only memo of
// schedule-independent entries, so a later identical request produces
// byte-identical verdicts and witnesses.
func VerifyContext(ctx context.Context, req Request) (*Outcome, error) {
	start := time.Now()

	if err := Admissible(req.Env, req.Type); err != nil {
		return nil, err
	}

	obsList, err := ObservablesFor(req.Env, req.Property)
	if err != nil {
		return nil, err
	}
	obs := map[string]bool{}
	for _, x := range obsList {
		obs[x] = true
	}
	sem := &typelts.Semantics{Env: req.Env, Observable: obs, WitnessOnly: true, Cache: req.Cache}

	// Symmetry detection must run over the exploration's own interner:
	// pin a compatible cache on the semantics first, so prepBuilder does
	// not clone a private one behind the group's back.
	var sym *lts.Symmetry
	if req.Symmetry == SymmetryOn && len(obs) == 0 && req.Reuse == nil {
		if !sem.HasCompatibleCache() {
			sem.Cache = typelts.NewCache(req.Env, true)
		}
		sym = lts.DetectSymmetry(sem.Cache, req.Type, pinnedChannels(req.Property))
	}

	// Partial-order reduction engages only when the exploration is ours to
	// reduce (no Reuse) and symmetry has not claimed it: the orbit
	// construction canonicalises over every concrete successor, so a
	// detected group wins and POR silently disengages.
	var por *lts.POR
	if req.PartialOrder == PartialOrderOn && req.Reuse == nil && sym == nil && porEligible(req.Property.Kind) {
		por = porFilter(req.Env, req.Property)
	}

	if req.EarlyExit && req.Reuse == nil {
		if phi, conjuncts, ok := compileSymbolic(req.Env, req.Property); ok {
			return verifyOnTheFly(ctx, req, sem, sym, por, phi, conjuncts, start)
		}
	}

	m := req.Reuse
	if m == nil {
		var err error
		m, err = lts.ExploreContext(ctx, sem, req.Type, lts.Options{MaxStates: req.MaxStates, Parallelism: req.Parallelism, Progress: req.Progress, Symmetry: sym, PartialOrder: por})
		if err != nil {
			return nil, err
		}
	}

	out := &Outcome{
		Property:       req.Property,
		States:         int(m.Covered()),
		StatesExplored: m.Len(),
		LTS:            m,
		PartialOrder:   por != nil,
	}

	if req.Property.Kind == EventualOutput {
		// Fig. 7(3), existential reachability (see EvUsageHolds).
		u := NewUses(req.Env, m)
		out.Holds = EvUsageHolds(u, m, req.Property.Channels)
		out.Duration = time.Since(start)
		return out, nil
	}

	phi, err := Compile(req.Env, m, req.Property)
	if err != nil {
		return nil, err
	}
	var res mucalc.Result
	if req.Reduction == ReduceStrong {
		if req.joint != nil {
			res, err = checkReducedJoint(ctx, m, req.joint, phi, out)
		} else {
			res, err = checkReduced(ctx, m, phi, out)
		}
	} else {
		res, err = mucalc.CheckContext(ctx, m, phi)
	}
	if err != nil {
		return nil, err
	}
	out.Holds = res.Holds
	out.Formula = phi
	out.ProductStates = res.ProductStates
	out.AutomatonStates = res.AutomatonStates
	out.Counterexample = res.Counterexample
	out.Witness = DecodeWitness(m, res.Witness)
	out.Duration = time.Since(start)
	if !out.Holds {
		if err := confirmFail(ctx, req, sem, m, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// confirmFail turns a FAIL found on a reduced space into a confirmed
// concrete violation before it is reported. An orbit-LTS witness runs
// over canonical representatives, so it is first lifted to a concrete
// run; then every witness found on a reduced space — a quotient (blocks,
// orbits or both) or an ample-reduced edge-subset, which is already a
// concrete run — must pass the replay oracle. The on-the-fly engine
// skips the Reduce stage, so its FAILs need replay only under symmetry
// or partial order.
func confirmFail(ctx context.Context, req Request, sem *typelts.Semantics, m *lts.LTS, out *Outcome) error {
	symmetric := m.Sym != nil && out.Witness != nil
	if symmetric {
		if err := liftSymmetric(ctx, req, sem, m, out); err != nil {
			return fmt.Errorf("verify: symmetry produced an invalid counterexample lift: %w", err)
		}
	}
	quotiented := req.Reduction == ReduceStrong && !out.EarlyExit
	if quotiented || symmetric || out.PartialOrder {
		if err := Replay(out); err != nil {
			return fmt.Errorf("verify: reduction produced an invalid counterexample lift: %w", err)
		}
	}
	return nil
}

// verifyOnTheFly runs the early-exit pipeline: the nested DFS of
// mucalc.CheckModel drives an incremental exploration, materialising
// states only as the search reaches them. The formula's top-level
// conjuncts are checked one at a time over the shared exploration,
// short-circuiting on the first violation — a run violating one conjunct
// violates the conjunction, so the remaining conjuncts (whose PASS proofs
// would force exhaustive exploration) are never started. Verdicts equal
// the full pipeline's: the symbolic sets agree with the enumerated ones
// on every label, and conjunction short-circuiting preserves T |= ϕ1∧ϕ2.
func verifyOnTheFly(ctx context.Context, req Request, sem *typelts.Semantics, sym *lts.Symmetry, por *lts.POR, phi mucalc.Formula, conjuncts []mucalc.Formula, start time.Time) (*Outcome, error) {
	inc := lts.NewIncrementalContext(ctx, sem, req.Type, lts.Options{MaxStates: req.MaxStates, Progress: req.Progress, Symmetry: sym, PartialOrder: por})
	out := &Outcome{
		Property:     req.Property,
		Holds:        true,
		Formula:      phi,
		EarlyExit:    true,
		PartialOrder: por != nil,
	}
	var failed mucalc.Result
	for _, c := range conjuncts {
		res, err := mucalc.CheckModelContext(ctx, inc, c)
		if err != nil {
			return nil, err
		}
		out.ProductStates += res.ProductStates
		out.AutomatonStates += res.AutomatonStates
		if !res.Holds {
			out.Holds = false
			failed = res
			break
		}
	}
	m := inc.Snapshot()
	out.States = int(m.Covered())
	out.StatesExplored = m.Len()
	out.LTS = m
	out.Expanded = inc.Expanded()
	if !out.Holds {
		out.Counterexample = failed.Counterexample
		out.Witness = DecodeWitness(m, failed.Witness)
		if err := confirmFail(ctx, req, sem, m, out); err != nil {
			return nil, err
		}
	}
	out.Duration = time.Since(start)
	return out, nil
}

// VerifyAll verifies all six Fig. 9 properties of a system, reusing the
// explored LTS across properties that share the same observable *set*
// (the key is order-insensitive: observables are sorted before joining),
// and sharing one transition cache — interner, memoised per-state steps,
// synchronisation matches — across every exploration, so properties with
// different Y-limitations still reuse each other's per-state work.
//
// VerifyAll runs at the default parallelism (GOMAXPROCS); see
// VerifyAllWith for the knob and the concurrency structure.
func VerifyAll(env *types.Env, t types.Type, props []Property, maxStates int) ([]*Outcome, error) {
	return VerifyAllWith(env, t, props, AllOptions{MaxStates: maxStates})
}

// AllOptions configures VerifyAllWith.
type AllOptions struct {
	// MaxStates bounds each LTS exploration (0 = lts.DefaultMaxStates).
	MaxStates int
	// Reduction selects the Reduce stage for every property of the batch
	// (see Request.Reduction). Under VerifyAll the refinement runs once
	// per observable-set group, over the join of every property's
	// observation classes, and each property then minimises the shared
	// joint quotient (see buildJoint) — same verdicts, block counts and
	// witnesses, less repeated work.
	Reduction Reduction
	// Symmetry selects exploration-time symmetry reduction for every
	// property of the batch (see Request.Symmetry). The batch detects the
	// group once, pinning the union of every property's channels, so the
	// closed group's one orbit exploration is sound for all of them.
	// Early-exit batches detect per property instead (see EarlyExit).
	Symmetry SymmetryMode
	// PartialOrder selects exploration-time partial-order reduction for
	// every property of the batch (see Request.PartialOrder). Because the
	// visible-label set is per property, an eligible property cannot
	// reuse the group exploration: it explores its own ample-reduced LTS
	// over the shared transition cache, and group explorations only run
	// for the properties that still need the full space. When symmetry
	// reduction is also on and a group is detected, the closed properties
	// share the orbit exploration instead (same precedence as
	// Request.PartialOrder).
	PartialOrder PartialOrderMode
	// EarlyExit selects on-the-fly checking for every property of the
	// batch (see Request.EarlyExit). An on-the-fly fragment must never
	// serve another property, so every property explores its own LTS, as
	// a single VerifyContext request would — symmetry detection included,
	// pinned to the property's own channels.
	EarlyExit bool
	// Cache, when non-nil, is the shared transition cache every
	// exploration runs on, letting a long-lived owner (the public
	// package's Workspace) reuse per-component work across whole
	// requests. It must have been built with typelts.NewCache(env, true)
	// for the same env passed to VerifyAllContext. Nil means a fresh
	// per-call cache, the previous behaviour.
	Cache *typelts.Cache
	// Progress, when non-nil, receives periodic exploration snapshots
	// from every exploration of the batch, shared or own
	// (lts.Options.Progress). At Parallelism ≥ 2 callbacks arrive from
	// multiple goroutines; the callee must be safe for that.
	Progress func(lts.Progress)
	// Parallelism sizes the executor and each exploration's worker pool:
	// 0 = GOMAXPROCS. At 1 the properties run inline, one after another
	// in input order. At ≥ 2 every property runs on its own goroutine,
	// so every observable-set group starts exploring at once (with
	// Parallelism BFS workers each) — the *goroutine* count scales with
	// the property count; actual CPU use stays bounded by GOMAXPROCS,
	// which is the knob for capping machine load. At any value the
	// verdicts, state counts, witnesses and explored LTSes are identical;
	// only wall-clock changes.
	Parallelism int
}

// VerifyAllWith is VerifyAll with explicit options. One executor runs
// every batch: a plan (planBatch) first routes each property to a shared
// observable-set group exploration or to its own, then one task per
// property explores or waits for its group, checks the property
// (mucalc.Check / EvUsageHolds) on the shared read-only LTS, and
// confirms any FAIL. AllOptions.Parallelism only decides whether the
// tasks run inline or on their own goroutines; each exploration is
// itself a parallel BFS (lts.Options.Parallelism). Outcomes are
// collected in input order: outcomes up to the first failing property,
// plus that property's error.
func VerifyAllWith(env *types.Env, t types.Type, props []Property, opts AllOptions) ([]*Outcome, error) {
	return VerifyAllContext(context.Background(), env, t, props, opts)
}

// VerifyAllContext is VerifyAllWith with cancellation: ctx reaches every
// exploration and every model-checking stage, so the whole batch unwinds
// promptly — with an error wrapping ctx.Err() — once the context is
// done. The error contract is unchanged; at Parallelism ≥ 2 a cancelled
// context typically surfaces on the earliest still-running property.
func VerifyAllContext(ctx context.Context, env *types.Env, t types.Type, props []Property, opts AllOptions) ([]*Outcome, error) {
	outcomes := make([]*Outcome, 0, len(props))
	if len(props) == 0 {
		return outcomes, nil
	}
	// Fail fast, and once, on an inadmissible type, reported against the
	// first property.
	if err := Admissible(env, t); err != nil {
		return outcomes, fmt.Errorf("%s: %w", props[0], err)
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if opts.Cache == nil {
		opts.Cache = typelts.NewCache(env, true)
	}
	routes := planBatch(env, t, props, opts)

	explore := func(g *groupCell) error {
		g.once.Do(func() {
			sem := &typelts.Semantics{Env: env, Observable: g.obs, WitnessOnly: true, Cache: opts.Cache}
			g.lts, g.err = lts.ExploreContext(ctx, sem, t, lts.Options{MaxStates: opts.MaxStates, Parallelism: par, Progress: opts.Progress, Symmetry: g.sym})
			if g.err == nil && opts.Reduction == ReduceStrong {
				g.joint = buildJoint(ctx, env, g.lts, g.props)
			}
		})
		return g.err
	}
	// task verifies one property. Its outcome's Duration is the task's
	// wall time, including its group exploration's run or wait.
	task := func(i int) (*Outcome, error) {
		start := time.Now()
		r := routes[i]
		if r.err != nil {
			return nil, r.err
		}
		req := Request{
			Env: env, Type: t, Property: props[i], MaxStates: opts.MaxStates,
			Cache: opts.Cache, Parallelism: par, Progress: opts.Progress,
			Reduction: opts.Reduction, Symmetry: r.symmetry, PartialOrder: opts.PartialOrder,
			EarlyExit: opts.EarlyExit,
		}
		if g := r.group; g != nil {
			if err := explore(g); err != nil {
				return nil, err
			}
			req.Reuse, req.joint = g.lts, g.joint
		}
		o, err := VerifyContext(ctx, req)
		if err != nil {
			return nil, err
		}
		o.Duration = time.Since(start)
		return o, nil
	}

	// At Parallelism 1 the tasks run inline in input order, each group
	// exploring at its first property, and the batch stops at the first
	// error. Otherwise every task runs on its own goroutine.
	results := make([]*Outcome, len(props))
	errs := make([]error, len(props))
	var wg sync.WaitGroup
	for i := range props {
		if par == 1 {
			if results[i], errs[i] = task(i); errs[i] != nil {
				break
			}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = task(i)
		}(i)
	}
	wg.Wait()
	for i, p := range props {
		if errs[i] != nil {
			return outcomes, fmt.Errorf("%s: %w", p, errs[i])
		}
		outcomes = append(outcomes, results[i])
	}
	return outcomes, nil
}

// route is one batch property's place in the plan.
type route struct {
	// err is the property's deferred ObservablesFor error, reported in
	// input order like every other property error.
	err error
	// group is the shared exploration the property reuses; nil means it
	// explores its own LTS.
	group *groupCell
	// symmetry is the mode an own exploration runs under.
	symmetry SymmetryMode
}

// groupCell is one observable-set group: the properties sharing one
// exploration and, once a task has run it, that exploration and its
// joint quotient. It runs at most once, for whichever of its properties
// asks first.
type groupCell struct {
	obs   map[string]bool
	sym   *lts.Symmetry
	props []Property
	once  sync.Once
	lts   *lts.LTS
	joint *jointQuotient
	err   error
}

// planBatch routes every property of a batch before anything is
// explored:
//
//   - Properties with the same observable set share one group
//     exploration; the key is order-insensitive.
//   - A PartialOrderOn-eligible property explores its own ample-reduced
//     LTS, since its visible-label set is its own — unless symmetry
//     claims it. With SymmetryOn the batch runs DetectSymmetry once,
//     pinned to the union of every property's channels; a detected group
//     sends the closed properties to the shared orbit exploration (the
//     precedence of Request.PartialOrder).
//   - Every property of an EarlyExit batch explores its own LTS, since
//     an on-the-fly fragment must never serve another property, and
//     keeps a single request's symmetry detection.
//
// A non-early-exit own exploration runs with symmetry off: every closed
// property a detected group claims reuses the group.
func planBatch(env *types.Env, t types.Type, props []Property, opts AllOptions) []route {
	routes := make([]route, len(props))
	keys := make([]string, len(props))
	obsSets := make([]map[string]bool, len(props))
	closed := false
	for i, p := range props {
		obs, err := ObservablesFor(env, p)
		if err != nil {
			routes[i].err = err
			continue
		}
		sorted := append([]string{}, obs...)
		sort.Strings(sorted)
		keys[i] = strings.Join(sorted, ",")
		obsSets[i] = make(map[string]bool, len(obs))
		for _, x := range obs {
			obsSets[i][x] = true
		}
		closed = closed || len(obs) == 0
	}
	if opts.EarlyExit {
		for i := range routes {
			routes[i].symmetry = opts.Symmetry
		}
		return routes
	}
	var sym *lts.Symmetry
	if opts.Symmetry == SymmetryOn && closed {
		sym = lts.DetectSymmetry(opts.Cache, t, batchPinnedChannels(props))
	}
	groups := map[string]*groupCell{}
	for i, p := range props {
		if routes[i].err != nil {
			continue
		}
		claimed := sym != nil && len(obsSets[i]) == 0
		if opts.PartialOrder == PartialOrderOn && porEligible(p.Kind) && !claimed {
			continue
		}
		g := groups[keys[i]]
		if g == nil {
			g = &groupCell{obs: obsSets[i]}
			if len(obsSets[i]) == 0 {
				g.sym = sym
			}
			groups[keys[i]] = g
		}
		g.props = append(g.props, p)
		routes[i].group = g
	}
	return routes
}

// ObservablesFor computes the Y-limitation set for a property: the
// property's probe channels, plus — for Responsive — the environment
// witnesses of channels receivable on From (Thm. 4.10's footnote assumes
// such witnesses exist in Γ; their outputs carry the response obligation
// {z⟨U′⟩}, so they must remain observable).
func ObservablesFor(env *types.Env, p Property) ([]string, error) {
	base := p.Observables()
	for _, x := range base {
		if !env.Has(x) {
			return nil, fmt.Errorf("verify: probe channel %s is not in the environment", x)
		}
	}
	if p.Closed {
		return nil, nil
	}
	if p.Kind != Responsive {
		return base, nil
	}
	out := append([]string{}, base...)
	seen := map[string]bool{}
	for _, x := range base {
		seen[x] = true
	}
	cap, ok := types.ResolveChan(env, types.Var{Name: p.From})
	if !ok || !cap.In {
		return out, nil
	}
	for _, w := range env.Names() {
		if seen[w] {
			continue
		}
		if types.Subtype(env, types.Var{Name: w}, cap.Payload) {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out, nil
}

// Admissible checks the preconditions of Thm. 4.10 and Lemma 4.7: the
// type must be a well-formed π-type, must not contain proc, must be
// guarded, and must have finite control (no p[...] under µ).
func Admissible(env *types.Env, t types.Type) error {
	if err := types.CheckProcType(env, t); err != nil {
		return fmt.Errorf("verify: not a π-type: %w", err)
	}
	if containsProc(t) {
		return fmt.Errorf("verify: type contains proc, which Thm. 4.10 excludes (proc hides behaviour)")
	}
	if err := types.CheckGuarded(t); err != nil {
		return fmt.Errorf("verify: %w (Lemma 4.7 requires guarded types)", err)
	}
	if err := types.CheckFiniteControl(t); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

func containsProc(t types.Type) bool {
	switch t := t.(type) {
	case types.Proc:
		return true
	case types.Union:
		return containsProc(t.L) || containsProc(t.R)
	case types.Pi:
		return containsProc(t.Dom) || containsProc(t.Cod)
	case types.Rec:
		return containsProc(t.Body)
	case types.ChanIO:
		return containsProc(t.Elem)
	case types.ChanI:
		return containsProc(t.Elem)
	case types.ChanO:
		return containsProc(t.Elem)
	case types.Out:
		return containsProc(t.Ch) || containsProc(t.Payload) || containsProc(t.Cont)
	case types.In:
		return containsProc(t.Ch) || containsProc(t.Cont)
	case types.Par:
		return containsProc(t.L) || containsProc(t.R)
	default:
		return false
	}
}
