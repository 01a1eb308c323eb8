package main

import (
	"encoding/json"
	"os"
	"testing"
)

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

// BENCHMARK.json and the harness must name the same workloads and
// metrics, with the same units, directions and bounds.
func TestManifestMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, harness %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q (%q), harness %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	compare := func(kind string, file []manifestMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Errorf("%s: manifest lists %d metrics, harness emits %d", kind, len(file), len(defs))
		}
		inFile := map[string]manifestMetric{}
		for _, f := range file {
			inFile[f.Name] = f
		}
		seen := map[string]bool{}
		for _, d := range defs {
			if seen[d.name] {
				t.Errorf("%s: %s defined twice", kind, d.name)
			}
			seen[d.name] = true
			f, ok := inFile[d.name]
			if !ok {
				t.Errorf("%s: harness emits %s, manifest does not list it", kind, d.name)
				continue
			}
			if f.Unit != d.unit || f.Better != d.better || (bounded && f.Bound != d.bound) {
				t.Errorf("%s %s: manifest %+v, harness %+v", kind, d.name, f, d)
			}
			if len(d.name) > 64 || len(d.unit) > 16 {
				t.Errorf("%s %s: name or unit too long", kind, d.name)
			}
		}
		for name := range inFile {
			if !seen[name] {
				t.Errorf("%s: manifest lists %s, harness does not emit it", kind, name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
}
