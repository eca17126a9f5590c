package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"

	"effpi"
	"effpi/internal/lts"
	"effpi/internal/mucalc"
	"effpi/internal/typelts"
	"effpi/internal/types"
	"effpi/internal/verify"
)

// chainStats accumulates the counts a traced run records at the layer
// boundaries of the verification chain.
type chainStats struct {
	exploreStates, exploreAlloc int64
	symEngaged                  int64
	orbitCovered, orbitExplored int64
	porExplored, porFull        int64
	blocks, blockStates         int64
	automaton, product          int64
	witnessSteps, witnessBytes  int64
	interned, memos             int64
}

// chain drives one verification as the sequence of public layer calls
// that Session.VerifyAll makes internally, with one span per call:
//
//	verify.Admissible → verify.ObservablesFor → lts.DetectSymmetry →
//	lts.ExploreContext → verify.Compile → mucalc.Translate →
//	mucalc.CheckContext (or lts.MinimizeContext + the quotient check) →
//	verify.DecodeWitness → effpi.WitnessToJSON (which replays) →
//	json.Marshal of the wire witness
//
// Steps that are private to internal/verify are reached through the
// nearest public call that contains them, and that span says so: the
// partial-order filter (verify.VerifyContext[por]), the quotient and
// symmetric witness lifts (verify.VerifyContext[lift]) and on-the-fly
// checking (verify.VerifyContext[early-exit]). Groups explore one after
// another, each at the default parallelism; VerifyAll overlaps them, so
// the chain measures each layer's own cost, not the overlap.
//
// The chain does no step twice. A FAIL found on a quotient or orbit LTS
// needs the private lift, and the public call that reaches it also
// compiles, minimizes and checks; so for the properties the untraced run
// found failing there, the chain leaves those steps to that one call
// instead of doing them first itself.
type chain struct {
	ctx    context.Context
	tr     *tracer
	st     *chainStats
	group  int
	parent int
	// fullStates, when set, gives the concrete state count of property i
	// (from the fig9-concrete pins), the base of lts.ample_ratio.
	fullStates func(i int) int
	// want are the untraced run's cells, one per property in input
	// order: the chain's result must equal them, and their verdicts
	// route a reduced-space FAIL straight to the lift (see above).
	want []cell
}

type chainMode struct {
	reducers  bool // WithSymmetry(On), WithPartialOrder(On), WithReduction(Strong)
	earlyExit bool
}

func (c *chain) call(name string, f func() error) error {
	id := c.tr.begin(name, c.parent, c.group)
	err := f()
	c.tr.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (c *chain) wrapCall(name, wraps string, f func() error) error {
	id := c.tr.wrap(name, wraps, c.parent, c.group)
	err := f()
	c.tr.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// run verifies props of t in env and returns one gated cell per
// property, in input order. sm is the Go-source map (nil otherwise).
func (c *chain) run(env *types.Env, t types.Type, props []verify.Property, mode chainMode, sm *effpi.SourceMap) ([]cell, error) {
	cells := make([]cell, len(props))
	if err := c.call("verify.Admissible", func() error { return verify.Admissible(env, t) }); err != nil {
		return nil, err
	}
	cache := typelts.NewCache(env, true)
	defer func() {
		c.st.interned += int64(cache.Interner().Len())
		c.st.memos += int64(cache.Memos())
	}()

	if mode.earlyExit {
		for i, p := range props {
			var o *verify.Outcome
			err := c.wrapCall("verify.VerifyContext[early-exit]", "on-the-fly exploration and nested-DFS check", func() (err error) {
				o, err = verify.VerifyContext(c.ctx, verify.Request{Env: env, Type: t, Property: p, EarlyExit: true, Cache: cache})
				return err
			})
			if err != nil {
				return nil, err
			}
			if cells[i], err = c.finish(o, sm); err != nil {
				return nil, err
			}
		}
		return cells, nil
	}

	// Group by observable set, as VerifyAll does.
	keys := make([]string, len(props))
	obsSets := make([]map[string]bool, len(props))
	var order []string
	seen := map[string]bool{}
	for i, p := range props {
		var obs []string
		if err := c.call("verify.ObservablesFor", func() (err error) {
			obs, err = verify.ObservablesFor(env, p)
			return err
		}); err != nil {
			return nil, err
		}
		sorted := append([]string{}, obs...)
		sort.Strings(sorted)
		keys[i] = strings.Join(sorted, ",")
		obsSets[i] = map[string]bool{}
		for _, x := range obs {
			obsSets[i][x] = true
		}
		if !seen[keys[i]] {
			seen[keys[i]] = true
			order = append(order, keys[i])
		}
	}

	// Symmetry detection for the closed group, pinning every channel any
	// property of the batch observes (VerifyAll's batch pin set).
	var sym *lts.Symmetry
	if mode.reducers {
		for i := range props {
			if len(obsSets[i]) == 0 {
				c.call("lts.DetectSymmetry", func() error {
					sym = lts.DetectSymmetry(cache, t, batchPinned(props))
					return nil
				})
				break
			}
		}
	}
	reduction, symMode := verify.ReduceOff, verify.SymmetryOff
	if mode.reducers {
		reduction, symMode = verify.ReduceStrong, verify.SymmetryOn
	}

	// Partial-order properties explore their own ample-reduced LTS; a
	// detected symmetry group claims the closed ones instead.
	por := make([]bool, len(props))
	for i, p := range props {
		por[i] = mode.reducers && porEligible(p.Kind) && !(len(obsSets[i]) == 0 && sym != nil)
		if !por[i] {
			continue
		}
		var o *verify.Outcome
		err := c.wrapCall("verify.VerifyContext[por]", "partial-order filter, ample-set exploration, check and replay", func() (err error) {
			o, err = verify.VerifyContext(c.ctx, verify.Request{Env: env, Type: t, Property: p, Cache: cache,
				Reduction: reduction, PartialOrder: verify.PartialOrderOn})
			return err
		})
		if err != nil {
			return nil, err
		}
		c.st.porExplored += int64(o.StatesExplored)
		if c.fullStates != nil {
			c.st.porFull += int64(c.fullStates(i))
		}
		if cells[i], err = c.finish(o, sm); err != nil {
			return nil, err
		}
	}

	for _, key := range order {
		var m *lts.LTS
		explored := false
		for i, p := range props {
			if keys[i] != key || por[i] {
				continue
			}
			if !explored {
				explored = true
				var gsym *lts.Symmetry
				if len(obsSets[i]) == 0 {
					gsym = sym
				}
				sem := &typelts.Semantics{Env: env, Observable: obsSets[i], WitnessOnly: true, Cache: cache}
				before := heapAllocs()
				if err := c.call("lts.ExploreContext", func() (err error) {
					m, err = lts.ExploreContext(c.ctx, sem, t, lts.Options{Symmetry: gsym})
					return err
				}); err != nil {
					return nil, err
				}
				c.st.exploreStates += int64(m.Len())
				c.st.exploreAlloc += int64(heapAllocs() - before)
				if gsym != nil {
					c.st.symEngaged++
					c.st.orbitCovered += m.Covered()
					c.st.orbitExplored += int64(m.Len())
				}
			}
			var err error
			wantFail := i < len(c.want) && !c.want[i].Holds
			if cells[i], err = c.check(env, t, m, p, wantFail, reduction, symMode, cache, sm); err != nil {
				return nil, err
			}
		}
	}
	return cells, nil
}

// check verifies one property on an explored LTS. wantFail says the
// untraced run found it failing.
func (c *chain) check(env *types.Env, t types.Type, m *lts.LTS, p verify.Property, wantFail bool, reduction verify.Reduction, symMode verify.SymmetryMode, cache *typelts.Cache, sm *effpi.SourceMap) (cell, error) {
	cl := cell{Property: p.String(), States: int(m.Covered()), StatesExplored: m.Len()}
	if p.Kind != verify.EventualOutput && wantFail && (reduction == verify.ReduceStrong || m.Sym != nil) {
		// The block or orbit lasso must become a concrete run; that lift
		// is private to internal/verify, and the call that reaches it
		// compiles, minimizes and checks on its own.
		var o *verify.Outcome
		if err := c.wrapCall("verify.VerifyContext[lift]", "compile, quotient check, quotient and symmetric witness lift, replay", func() (err error) {
			o, err = verify.VerifyContext(c.ctx, verify.Request{Env: env, Type: t, Property: p, Reuse: m, Cache: cache,
				Reduction: reduction, Symmetry: symMode})
			return err
		}); err != nil {
			return cl, err
		}
		c.st.automaton += int64(o.AutomatonStates)
		c.st.product += int64(o.ProductStates)
		if o.ReducedStates > 0 {
			c.st.blocks += int64(o.ReducedStates)
			c.st.blockStates += int64(m.Len())
		}
		return c.finish(o, sm)
	}
	if p.Kind == verify.EventualOutput {
		err := c.call("verify.EvUsageHolds", func() error {
			cl.Holds = verify.EvUsageHolds(verify.NewUses(env, m), m, p.Channels)
			return nil
		})
		return cl, err
	}
	var phi mucalc.Formula
	if err := c.call("verify.Compile", func() (err error) {
		phi, err = verify.Compile(env, m, p)
		return err
	}); err != nil {
		return cl, err
	}
	trivial := mucalc.TriviallyTrue(phi)
	if !trivial {
		c.call("mucalc.Translate", func() error {
			c.st.automaton += int64(mucalc.Translate(mucalc.Not{F: mucalc.Simplify(phi)}).Len())
			return nil
		})
	}
	var res mucalc.Result
	quotient := reduction == verify.ReduceStrong && !trivial
	if quotient {
		var classes []int32
		c.call("mucalc.LabelClasses", func() error {
			classes, _ = mucalc.LabelClasses(m.Labels, phi)
			return nil
		})
		var q *lts.Quotient
		if err := c.call("lts.MinimizeContext", func() (err error) {
			q, err = lts.MinimizeContext(c.ctx, m, classes)
			return err
		}); err != nil {
			return cl, err
		}
		cl.ReducedStates = q.NumBlocks()
		c.st.blocks += int64(q.NumBlocks())
		c.st.blockStates += int64(m.Len())
		if err := c.call("mucalc.CheckModelContext", func() (err error) {
			res, err = mucalc.CheckModelContext(c.ctx, mucalc.QuotientModel(q), phi)
			return err
		}); err != nil {
			return cl, err
		}
	} else if err := c.call("mucalc.CheckContext", func() (err error) {
		res, err = mucalc.CheckContext(c.ctx, m, phi)
		return err
	}); err != nil {
		return cl, err
	}
	cl.Holds, cl.ProductStates, cl.AutomatonStates = res.Holds, res.ProductStates, res.AutomatonStates
	c.st.product += int64(res.ProductStates)
	if res.Holds {
		return cl, nil
	}
	if quotient || m.Sym != nil {
		// Only reached when the untraced run said this property holds;
		// the cell comparison reports the disagreement.
		return cl, nil
	}
	o := &verify.Outcome{Property: p, Formula: phi, LTS: m, States: cl.States, StatesExplored: cl.StatesExplored,
		Counterexample: res.Counterexample}
	c.call("verify.DecodeWitness", func() error {
		o.Witness = verify.DecodeWitness(m, res.Witness)
		return nil
	})
	wc, err := c.finish(o, sm)
	if err != nil {
		return cl, err
	}
	cl.WitnessSHA256, cl.WitnessLen = wc.WitnessSHA256, wc.WitnessLen
	return cl, nil
}

// finish converts and encodes a FAIL's witness as effpid does and
// returns the outcome's cell. WitnessToJSON replays the witness before
// converting it, and nothing public converts without replaying, so its
// span wraps the replay; the encoding gets a span of its own.
func (c *chain) finish(o *verify.Outcome, sm *effpi.SourceMap) (cell, error) {
	cl := cell{
		Property: o.Property.String(), Holds: o.Holds, States: o.States, StatesExplored: o.StatesExplored,
		ReducedStates: o.ReducedStates, ProductStates: o.ProductStates, AutomatonStates: o.AutomatonStates,
	}
	if o.Holds || o.Property.Kind == verify.EventualOutput {
		return cl, nil
	}
	var w *effpi.WitnessJSON
	if err := c.wrapCall("effpi.WitnessToJSON", "verify.Replay, then each step's conversion to wire form", func() (err error) {
		w, err = effpi.WitnessToJSONMapped(o, sm)
		return err
	}); err != nil {
		return cl, err
	}
	var data []byte
	if err := c.call("json.Marshal(effpi.WitnessJSON)", func() (err error) {
		data, err = json.Marshal(w)
		return err
	}); err != nil {
		return cl, err
	}
	c.st.witnessSteps += int64(len(w.Stem) + len(w.Cycle))
	c.st.witnessBytes += int64(len(data))
	cl.WitnessSHA256, cl.WitnessLen = digestBytes(data)
	return cl, nil
}

// heapAllocs is the cumulative heap allocation in bytes, read without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// porEligible mirrors internal/verify's (unexported) rule for which
// schemas take the partial-order path.
func porEligible(k verify.Kind) bool {
	return k == verify.NonUsage || k == verify.DeadlockFree || k == verify.Reactive
}

// batchPinned mirrors internal/verify's (unexported) batch pin set: the
// union, in first-seen order, of every property's probe channels, From
// and To.
func batchPinned(props []verify.Property) []string {
	var out []string
	seen := map[string]bool{}
	add := func(x string) {
		if x != "" && !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	for _, p := range props {
		for _, ch := range p.Channels {
			add(ch)
		}
		add(p.From)
		add(p.To)
	}
	return out
}
