package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func sampleOutputs() []output {
	return []output{
		{"fig10.csv", []byte("workload,class,ABO-Only\n433.milc,High,0.97\n")},
		{"run/policy=2/nrh=1024", []byte(`{"schema":3,"result":{"Cycles":1}}`)},
	}
}

func pin(outs []output) map[string]string {
	m := map[string]string{}
	for _, o := range outs {
		m[o.name] = digest(o.data)
	}
	return m
}

func TestGatePassesIdenticalOutputs(t *testing.T) {
	g := newGate(pin(sampleOutputs()))
	g.check(sampleOutputs(), nil)
	g.check(sampleOutputs(), nil)
	if g.failed != 0 || g.attempted != 4 {
		t.Fatalf("failed %d of %d: %v", g.failed, g.attempted, g.problems)
	}
}

// Every byte of every output is covered: flipping any single one fails
// the gate, both against the pinned reference and against round one.
func TestGateFailsOnOnePerturbedByte(t *testing.T) {
	for oi, o := range sampleOutputs() {
		for bi := range o.data {
			perturbed := sampleOutputs()
			perturbed[oi].data[bi] ^= 1

			g := newGate(pin(sampleOutputs()))
			g.check(perturbed, nil)
			if g.failed != 1 {
				t.Fatalf("pinned: byte %d of %s: failed %d, want 1", bi, o.name, g.failed)
			}

			g = newGate(nil)
			g.check(sampleOutputs(), nil)
			g.check(perturbed, nil)
			if g.failed != 1 {
				t.Fatalf("round two: byte %d of %s: failed %d, want 1", bi, o.name, g.failed)
			}
		}
	}
}

func TestGateCountsMissingExtraAndCrossChecks(t *testing.T) {
	outs := sampleOutputs()
	g := newGate(pin(outs))
	g.check(append(outs[:1:1], output{"extra", []byte("x")}), []string{"cold CSV differs"})
	// One extra output, one missing, one failed cross-check.
	if g.failed != 3 {
		t.Fatalf("failed %d, want 3: %v", g.failed, g.problems)
	}
}

func TestReferencePinsEveryWorkload(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Seed != defaultSeed {
		t.Fatalf("reference seed %d, want %d", ref.Seed, defaultSeed)
	}
	for _, w := range workloads() {
		if len(ref.Workloads[w.name]) == 0 {
			t.Errorf("no pinned digests for %s", w.name)
		}
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics
// this program prints, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Errorf("%d end_to_end metrics, program has %d", len(b.EndToEnd), len(e2eMetrics))
	}
	for i, m := range b.EndToEnd {
		if i < len(e2eMetrics) && (m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit || m.Better != "lower") {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, e2eMetrics[i])
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Errorf("%d per_layer metrics, program has %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if i < len(layerMetrics) && (m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit || m.Better != layerMetrics[i].better) {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, layerMetrics[i])
		}
	}
}
