package lts

import (
	"context"

	"effpi/internal/typelts"
	"effpi/internal/types"
)

// ForEachStep exposes the per-state step enumeration every engine
// expands through to the external (lts_test) tests.
var ForEachStep = forEachStep

// ExploreComps is Explore that also returns the component multiset of
// every state, as the builder holds it: LTS.Components, read off the
// representative type, can drop components. opts.Parallelism must be
// positive.
func ExploreComps(sem *typelts.Semantics, init types.Type, opts Options) (*LTS, [][]types.ID, error) {
	b := prepBuilder(context.Background(), sem, init, opts)
	var err error
	if opts.Parallelism == 1 {
		err = b.exploreSerial()
	} else {
		err = b.exploreParallel(opts.Parallelism)
	}
	return b.l, b.stateComps, err
}
