package main

import (
	"testing"

	rt "effpi/internal/runtime"
	"effpi/internal/savina"
)

// TestCountingEngine checks the delivered-message count on two
// benchmarks whose message traffic is known in closed form.
func TestCountingEngine(t *testing.T) {
	for _, tc := range []struct {
		run  func(rt.Engine, int) savina.Result
		name string
		size int
		want int64
	}{
		// n values from A to B, then the sum back.
		{savina.Counting, "counting", 100, 101},
		// One token 10·n hops round the ring, the n−1 messages of the
		// shutdown wave, and the send that injects the token.
		{savina.Ring, "ring", 10, 10*10 + 9 + 1},
	} {
		e := &countingEngine{Engine: rt.NewScheduler(2, rt.PolicyDefault)}
		tc.run(e, tc.size)
		if s, r := e.sent.Load(), e.received.Load(); s != tc.want || r != tc.want {
			t.Errorf("%s@%d: sent %d, received %d, want %d each", tc.name, tc.size, s, r, tc.want)
		}
	}
}
