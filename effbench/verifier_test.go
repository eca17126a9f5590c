package main

import (
	"sort"
	"strings"
	"testing"

	"effpi"
)

// TestRowNamesSpreadsLargeRows: each workload verifies every one of its
// rows once a pass, and no two large rows follow each other.
func TestRowNamesSpreadsLargeRows(t *testing.T) {
	for _, w := range []verifierWorkload{{name: "fig9-concrete"}, {name: "fig9-reducers", reducers: true}} {
		large := map[string]bool{}
		want := append([]string(nil), largeRows...)
		if w.reducers {
			want = append(want, reducerOnlyRows...)
		}
		for _, n := range want {
			large[n] = true
		}
		for _, s := range effpi.Fig9Systems() {
			want = append(want, s.Name)
		}
		got := w.rowNames()
		for i := 1; i < len(got); i++ {
			if large[got[i-1]] && large[got[i]] {
				t.Errorf("%s: large rows %q and %q follow each other", w.name, got[i-1], got[i])
			}
		}
		sorted := append([]string(nil), got...)
		sort.Strings(sorted)
		sort.Strings(want)
		if strings.Join(sorted, "|") != strings.Join(want, "|") {
			t.Errorf("%s: rows %v, want each of %v once", w.name, got, want)
		}
	}
}
