package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end int) span {
	return span{ID: id, Parent: parent, Name: name, Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimeNested(t *testing.T) {
	// root [0,100] ⊃ a [10,40] ⊃ b [20,30]; root ⊃ c [50,60].
	spans := []span{
		sp(0, -1, "bench.row", 0, 100),
		sp(1, 0, "lts.ExploreContext", 10, 40),
		sp(2, 1, "verify.Compile", 20, 30),
		sp(3, 0, "mucalc.CheckContext", 50, 60),
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{0: 60 * time.Millisecond, 1: 20 * time.Millisecond, 2: 10 * time.Millisecond, 3: 10 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Concurrent children [10,50] and [30,70] cover [10,70] once; a child
	// running past its parent's end is clipped to the parent.
	spans := []span{
		sp(0, -1, "bench.row", 0, 100),
		sp(1, 0, "lts.ExploreContext", 10, 50),
		sp(2, 0, "lts.ExploreContext", 30, 70),
		sp(3, 0, "mucalc.CheckContext", 90, 120),
	}
	self := selfTimes(spans)
	if got, want := self[0], 30*time.Millisecond; got != want {
		t.Errorf("root self %v, want %v", got, want)
	}
	if got := selfMS(spans, self, "lts.ExploreContext"); got != 80 {
		t.Errorf("explore self ms %v, want 80", got)
	}
}

func TestUncoveredShare(t *testing.T) {
	spans := []span{
		sp(0, -1, "bench.row", 0, 100),
		sp(1, 0, "lts.ExploreContext", 10, 50),
		sp(2, 0, "mucalc.CheckContext", 40, 60),
		sp(3, -1, "bench.row", 100, 200),
	}
	// Layer spans cover [10,60] of [0,200]: 50/200 covered.
	if got, want := uncoveredShare(spans, 0, 200*time.Millisecond), 0.75; got != want {
		t.Errorf("uncovered %v, want %v", got, want)
	}
}

func TestUnionLenEmpty(t *testing.T) {
	if got := unionLen(nil, 0, time.Second); got != 0 {
		t.Errorf("empty union %v", got)
	}
}
