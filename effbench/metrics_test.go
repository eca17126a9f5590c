package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
		Workload []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s lists %d metrics, the benchmark prints %d", tc.what, len(tc.got), len(tc.want))
			continue
		}
		for i := range tc.want {
			if tc.got[i] != tc.want[i] {
				t.Errorf("%s[%d] = %+v, the benchmark prints %+v", tc.what, i, tc.got[i], tc.want[i])
			}
		}
	}
	var names []string
	for _, w := range spec.Workload {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
}

func TestWriteResultPrintsEveryNameAndUnit(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		vals := map[string]float64{}
		for i, d := range defs {
			vals[d.Name] = float64(i) + 0.5
		}
		var buf bytes.Buffer
		if err := writeResult(&buf, defs, vals, &gate{attempted: 3, failed: 1}); err != nil {
			t.Fatal(err)
		}
		var res result
		if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Attempted != 3 || res.Failed != 1 {
			t.Errorf("header %+v, want correct=false attempted=3 failed=1", res)
		}
		for i, d := range defs {
			got, ok := res.Metrics[d.Name]
			if !ok || got.Unit != d.Unit || got.Value != float64(i)+0.5 {
				t.Errorf("%s printed as %+v (present %v), want %v %s", d.Name, got, ok, float64(i)+0.5, d.Unit)
			}
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
		}
	}
}

func TestWriteResultRefusesMissingOrExtraMetrics(t *testing.T) {
	vals := map[string]float64{}
	for _, d := range endToEnd[1:] {
		vals[d.Name] = 1
	}
	if err := writeResult(&bytes.Buffer{}, endToEnd, vals, &gate{attempted: 1}); err == nil {
		t.Error("a missing metric was printed")
	}
	vals[endToEnd[0].Name] = 1
	vals["extra"] = 1
	if err := writeResult(&bytes.Buffer{}, endToEnd, vals, &gate{attempted: 1}); err == nil {
		t.Error("an unlisted metric was printed")
	}
}

func TestEmptyPerLayerCoversEveryMetric(t *testing.T) {
	vals := emptyPerLayer()
	for _, d := range perLayer {
		if _, ok := vals[d.Name]; !ok {
			t.Errorf("%s has no default", d.Name)
		}
	}
}
