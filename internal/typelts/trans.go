package typelts

import (
	"effpi/internal/types"
)

// Step is one labelled transition Γ ⊢ T --α--> T′.
type Step struct {
	Label Label
	Next  types.Type
}

// Semantics computes transitions of types in a fixed environment Γ,
// optionally limited to a set of observable channels (Def. 4.9).
//
// A Semantics value is for a single goroutine: it carries mutable
// bookkeeping (depthHit), which is not synchronised. The Cache it points
// to, however, IS safe for concurrent use — parallel exploration workers
// each take a Fork() of one Semantics and share its cache, so their
// per-component work is computed once and served to all.
type Semantics struct {
	Env *types.Env
	// Observable, when non-nil, enables the Y-limitation ↑Γ Y: input and
	// output transitions are kept only when their subject is a variable
	// in the set; synchronisations (τ) always remain.
	Observable map[string]bool
	// WitnessOnly restricts early-input instances to environment
	// variables when at least one variable candidate exists, falling back
	// to the parameter type otherwise. Thm. 4.10's footnote assumes Γ
	// contains a witness y:U for every input domain U; with witnesses
	// present, the variable instances subsume the anonymous type instance
	// for the Fig. 7 properties, and dropping it keeps continuations
	// trackable (an anonymous received channel could never be used under
	// the Y-limitation). The verifier enables this; plain exploration
	// keeps the paper's full [T→i] rule.
	WitnessOnly bool
	// Cache, when non-nil and built for the same Env/WitnessOnly pair,
	// memoises raw step lists per hash-consed type and synchronisation
	// matches per label identity. Sharing one Cache across explorations
	// (verify.VerifyAll does) shares their per-component work; the
	// Y-limitation is applied on top of cached entries, so a Cache may
	// serve semantics with different Observable sets.
	Cache *Cache
	// depthHit records that the unfold-depth guard fired somewhere below
	// the current raw computation; such (truncated) results are not
	// admitted into the cache.
	depthHit bool
	// l1comp/l1sync are the goroutine-local L1 in front of the shared
	// cache's lock-striped maps: exploration looks up the same few
	// hundred components and sender × receiver pairs once per state
	// holding them, so serving repeats from an unsynchronised local map
	// keeps the hot loop lock-free (and the serial engine as fast as
	// before the cache grew locks). Entries are immutable slices shared
	// with the L2 cache, so caching them locally is safe.
	l1comp map[types.ID][]CompStep
	l1sync map[[2]types.ID][]CompStep
}

// Fork returns a copy of s for use by another goroutine: it shares the
// environment, Y-limitation and (concurrency-safe) cache, but has its
// own depthHit bookkeeping and L1 memo. The Observable map is shared
// and must not be mutated while forks are live (exploration only reads
// it).
func (s *Semantics) Fork() *Semantics {
	clone := *s
	clone.depthHit = false
	clone.l1comp = nil
	clone.l1sync = nil
	return &clone
}

// Transitions returns all labelled transitions of t (Fig. 6), after
// applying the Y-limitation if configured. The returned slice may be
// shared with the semantics' cache and must not be mutated.
func (s *Semantics) Transitions(t types.Type) []Step {
	steps := s.rawOf(t, 0)
	if s.Observable == nil {
		return steps
	}
	kept := make([]Step, 0, len(steps))
	for _, st := range steps {
		if s.keep(st.Label) {
			kept = append(kept, st)
		}
	}
	return kept
}

// rawOf computes (or recalls) the raw transitions of t. Results are
// cached per interned type unless the computation was truncated by the
// unfold-depth guard. On a miss the steps are computed from the
// interner's *representative* of t (not t itself): the two are
// ≡-equivalent — which is all the semantics observes — and computing
// from the representative makes the stored entry a pure function of the
// interned identity, independent of which syntactic variant reached the
// cache first and of goroutine scheduling (see DESIGN.md on parallel
// exploration determinism).
func (s *Semantics) rawOf(t types.Type, depth int) []Step {
	c := s.Cache
	if !c.compatible(s) {
		return s.raw(t, depth)
	}
	id := c.in.Intern(t)
	if steps, ok := c.lookupSteps(id); ok {
		return steps
	}
	saved := s.depthHit
	s.depthHit = false
	steps := s.raw(c.in.TypeOf(id), depth)
	if !s.depthHit {
		steps = c.storeSteps(id, steps) // first-write-wins: adopt the winner
	}
	s.depthHit = s.depthHit || saved
	return steps
}

// keep implements Def. 4.9: i/o labels require a variable subject in Y.
func (s *Semantics) keep(l Label) bool {
	switch l := l.(type) {
	case Output:
		return s.observableSubject(l.Subject)
	case Input:
		return s.observableSubject(l.Subject)
	default:
		return true
	}
}

func (s *Semantics) observableSubject(sub types.Type) bool {
	v, ok := sub.(types.Var)
	return ok && s.Observable[v.Name]
}

const maxUnfoldDepth = 64

// raw computes the un-limited transitions.
func (s *Semantics) raw(t types.Type, depth int) []Step {
	if depth > maxUnfoldDepth {
		s.depthHit = true
		return nil
	}
	switch t := t.(type) {
	case types.Rec:
		// ≡: µt.T ≡ T{µt.T/t}; contractivity bounds the unfolding.
		return s.rawOf(s.unfold(t), depth+1)

	case types.Union:
		// τ[∨]: T ∨ U reduces to either branch.
		leaves := types.FlattenUnion(t)
		steps := make([]Step, 0, len(leaves))
		for _, leaf := range leaves {
			steps = append(steps, Step{Label: TauChoice{}, Next: leaf})
		}
		return steps

	case types.Out:
		return s.outSteps(t, depth)

	case types.In:
		return s.inSteps(t, depth)

	case types.Par:
		return s.parSteps(t, depth)

	default:
		// nil, proc, and non-process types have no transitions.
		return nil
	}
}

// outSteps implements [T→o] plus the reduction contexts o[E,T,U],
// o[S,E,U] (unions in channel or payload position resolve first).
func (s *Semantics) outSteps(t types.Out, depth int) []Step {
	if u, ok := t.Ch.(types.Union); ok {
		var steps []Step
		for _, leaf := range types.FlattenUnion(u) {
			steps = append(steps, Step{Label: TauChoice{}, Next: types.Out{Ch: leaf, Payload: t.Payload, Cont: t.Cont}})
		}
		return steps
	}
	if u, ok := t.Payload.(types.Union); ok {
		// A union payload that is itself a π-choice stays; only resolve
		// unions of *types* in payload position when they would otherwise
		// block nothing — per Fig. 6 the context o[S,E,U] permits it.
		var steps []Step
		for _, leaf := range types.FlattenUnion(u) {
			steps = append(steps, Step{Label: TauChoice{}, Next: types.Out{Ch: t.Ch, Payload: leaf, Cont: t.Cont}})
		}
		steps = append(steps, s.fireOut(t, depth)...)
		return steps
	}
	return s.fireOut(t, depth)
}

func (s *Semantics) fireOut(t types.Out, depth int) []Step {
	cont := t.Cont
	if pi, ok := types.UnfoldAll(cont).(types.Pi); ok {
		cont = pi.Cod
	}
	return []Step{{Label: Output{Subject: t.Ch, Payload: t.Payload}, Next: cont}}
}

// inSteps implements [T→i]: early input. The payload T′ is either the
// continuation's parameter type T itself, or any environment variable x
// with Γ ⊢ x ⩽ T; the chosen payload is substituted into the continuation
// type (the type-level substitution that tracks channel passing).
func (s *Semantics) inSteps(t types.In, depth int) []Step {
	pi, ok := types.UnfoldAll(t.Cont).(types.Pi)
	if !ok {
		return nil
	}
	var candidates []types.Type
	for _, name := range s.Env.Names() {
		v := types.Var{Name: name}
		if types.Subtype(s.Env, v, pi.Dom) {
			candidates = append(candidates, v)
		}
	}
	if !s.WitnessOnly || len(candidates) == 0 {
		candidates = append([]types.Type{pi.Dom}, candidates...)
	}
	steps := make([]Step, 0, len(candidates))
	for _, payload := range candidates {
		next := pi.Cod
		if pi.Var != "" {
			next = s.subst(pi.Cod, pi.Var, payload)
		}
		steps = append(steps, Step{Label: Input{Subject: t.Ch, Payload: payload}, Next: next})
	}
	return steps
}

// unfold and subst route the two tree rewrites of the semantics through
// the cache's interner memo when one is attached.
func (s *Semantics) unfold(t types.Type) types.Type {
	if s.Cache.compatible(s) {
		return s.Cache.in.Unfold(t)
	}
	return types.Unfold(t)
}

func (s *Semantics) subst(t types.Type, x string, payload types.Type) types.Type {
	if s.Cache.compatible(s) {
		return s.Cache.in.Subst(t, x, payload)
	}
	return types.Subst(t, x, payload)
}

// parSteps lifts component transitions through the parallel context and
// adds synchronisations [T→iox]/[T→io].
func (s *Semantics) parSteps(t types.Par, depth int) []Step {
	comps := types.FlattenPar(t)
	if len(comps) == 0 {
		return nil
	}
	perComp := make([][]Step, len(comps))
	for i, c := range comps {
		perComp[i] = s.rawOf(c, depth+1)
	}

	var steps []Step
	// Interleaving: each component may act on its own.
	for i, cs := range perComp {
		for _, st := range cs {
			steps = append(steps, Step{Label: st.Label, Next: replaceComp(comps, i, st.Next)})
		}
	}
	// Synchronisation: an output of component i meets an input of
	// component j (i ≠ j; ≡ commutativity makes the pair unordered).
	for i := range comps {
		for j := range comps {
			if i == j {
				continue
			}
			for _, so := range perComp[i] {
				out, ok := so.Label.(Output)
				if !ok {
					continue
				}
				for _, si := range perComp[j] {
					in, ok := si.Label.(Input)
					if !ok {
						continue
					}
					if !s.match(out, in) {
						continue
					}
					next := replaceComp2(comps, i, so.Next, j, si.Next)
					steps = append(steps, Step{
						Label: Comm{Sender: out.Subject, Receiver: in.Subject, Payload: out.Payload},
						Next:  next,
					})
				}
			}
		}
	}
	return steps
}

// match decides whether an output S⟨T⟩ and an input S′(T′) synchronise:
// Γ ⊢ S ▷◁ S′, and either the payload is a variable x transmitted as
// itself ([T→iox]: the input instance with payload exactly x), or a
// non-variable payload with Γ ⊢ T ⩽ T′ ([T→io]). The verdict depends
// only on the four label types (and Γ), so it is memoised per label
// identity when a cache is attached: the subtype checks behind ▷◁ and ⩽
// are the second-largest allocation source of bare exploration.
func (s *Semantics) match(out Output, in Input) bool {
	c := s.Cache
	if !c.compatible(s) {
		return s.matchUncached(out, in)
	}
	key := matchKey{
		outSub: c.in.Intern(out.Subject),
		outPay: c.in.Intern(out.Payload),
		inSub:  c.in.Intern(in.Subject),
		inPay:  c.in.Intern(in.Payload),
	}
	if v, ok := c.lookupMatch(key); ok {
		return v
	}
	v := s.matchUncached(out, in)
	c.storeMatch(key, v)
	return v
}

func (s *Semantics) matchUncached(out Output, in Input) bool {
	if !types.MightInteract(s.Env, out.Subject, in.Subject) {
		return false
	}
	if pv, ok := out.Payload.(types.Var); ok {
		iv, ok := in.Payload.(types.Var)
		return ok && iv.Name == pv.Name
	}
	if _, ok := in.Payload.(types.Var); ok {
		// [T→io] requires T ∉ X and pairs it with the early-input
		// instance at the parameter type, not a variable instance.
		return false
	}
	return types.Subtype(s.Env, out.Payload, in.Payload)
}

func replaceComp(comps []types.Type, i int, next types.Type) types.Type {
	out := make([]types.Type, 0, len(comps))
	for k, c := range comps {
		if k == i {
			out = append(out, types.FlattenPar(next)...)
		} else {
			out = append(out, c)
		}
	}
	return types.ParOf(out...)
}

func replaceComp2(comps []types.Type, i int, ni types.Type, j int, nj types.Type) types.Type {
	out := make([]types.Type, 0, len(comps))
	for k, c := range comps {
		switch k {
		case i:
			out = append(out, types.FlattenPar(ni)...)
		case j:
			out = append(out, types.FlattenPar(nj)...)
		default:
			out = append(out, c)
		}
	}
	return types.ParOf(out...)
}
