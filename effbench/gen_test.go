package main

import (
	"bytes"
	"testing"
	"time"
)

func testStream(t *testing.T, seed uint64) []byte {
	t.Helper()
	in, err := loadInputs("inputs")
	if err != nil {
		t.Fatal(err)
	}
	data, err := encodeStream(generate(seed, 5*time.Second, 5*time.Second, in))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSameSeedSameStream(t *testing.T) {
	if a, b := testStream(t, 1), testStream(t, 1); !bytes.Equal(a, b) {
		t.Fatal("seed 1 generated two different streams")
	}
}

func TestDifferentSeedDifferentStream(t *testing.T) {
	if a, b := testStream(t, 1), testStream(t, 2); bytes.Equal(a, b) {
		t.Fatal("seeds 1 and 2 generated the same stream")
	}
}

func TestStreamCoversEveryFlavour(t *testing.T) {
	in, err := loadInputs("inputs")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	phases := map[string]int{}
	for _, r := range generate(1, time.Second, time.Second, in) {
		seen[r.Flavour]++
		phases[r.Phase]++
	}
	for _, f := range []string{"row", "heavy-row", "epi"} {
		if seen[f] == 0 {
			t.Errorf("no %s request in the stream", f)
		}
	}
	if phases["light"] < minPhaseRequests || phases["heavy"] < minPhaseRequests {
		t.Errorf("phases hold %d light and %d heavy requests, want at least %d each", phases["light"], phases["heavy"], minPhaseRequests)
	}
}
