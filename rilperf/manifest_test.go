package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// Every workload prints the same metric names, so the manifest's lists
// must be exactly the ones the result line is checked against.
func TestManifestListsTheResultMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var r []string
		for _, x := range xs {
			r = append(r, x.Name)
		}
		return r
	}
	if got := names(m.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end lists %v, the benchmark prints %v", got, endToEnd)
	}
	if got := names(m.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer lists %v, the benchmark prints %v", got, perLayer)
	}
	for _, w := range m.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
}
