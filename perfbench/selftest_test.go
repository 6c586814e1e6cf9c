package main

import (
	"encoding/json"
	"maps"
	"math/rand"
	"os"
	"slices"
	"testing"
)

// The short-mode self-test: every workload at a tiny size, untraced and
// traced, must pass its own checks and emit exactly the metrics
// BENCHMARK.json defines, with their units. Run it from perfbench/:
//
//	go test .

// layersDoc is perfbench/layers.json.
type layersDoc struct {
	HeldOutSeed int64 `json:"held_out_seed"`
	Assumptions struct {
		FleetSplit map[string]int `json:"app-fleet.non_ioctl_split_pct"`
		SyncMix    map[string]int `json:"paper-sync.mix_parts"`
	} `json:"assumptions"`
	PerLayer map[string]struct {
		Moves     []string `json:"moves"`
		Workloads []string `json:"workloads"`
	} `json:"per_layer"`
}

func loadLayers(t *testing.T) *layersDoc {
	t.Helper()
	buf, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc layersDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	return &doc
}

func TestShortRuns(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			res, _, _, err := measure(w, 1, 0, traced, 0.01)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if err := sp.check(res.Metrics, traced); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
					}
				}
			}
		}
	}
}

func TestSpecCheckRejectsMissingAndUnknownNames(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]metric{}
	for _, m := range sp.EndToEnd {
		got[m.Name] = metric{Value: 1, Unit: m.Unit}
	}
	if err := sp.check(got, false); err != nil {
		t.Fatalf("complete metrics rejected: %v", err)
	}
	first := sp.EndToEnd[0]
	delete(got, first.Name)
	if sp.check(got, false) == nil {
		t.Error("missing metric accepted")
	}
	got[first.Name] = metric{Value: 1, Unit: first.Unit + "x"}
	if sp.check(got, false) == nil {
		t.Error("wrong unit accepted")
	}
	got[first.Name] = metric{Value: 1, Unit: first.Unit}
	got["no_such_metric"] = metric{Value: 1, Unit: "s"}
	if sp.check(got, false) == nil {
		t.Error("unknown metric accepted")
	}
}

func TestSpecMatchesCode(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var defined, built []string
	for _, w := range sp.Workloads {
		defined = append(defined, w.Name)
	}
	for _, w := range allWorkloads {
		built = append(built, w.name)
	}
	if !slices.Equal(defined, built) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", defined, built)
	}

	doc := loadLayers(t)
	names := map[string]bool{}
	for _, w := range sp.Workloads {
		names[w.Name] = true
	}
	e2e := map[string]bool{}
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = true
	}
	for _, m := range sp.PerLayer {
		entry, ok := doc.PerLayer[m.Name]
		if !ok {
			t.Errorf("layers.json does not map per-layer metric %s", m.Name)
			continue
		}
		if len(entry.Moves) == 0 || len(entry.Workloads) == 0 {
			t.Errorf("layers.json maps %s to nothing", m.Name)
		}
		for _, e := range entry.Moves {
			if !e2e[e] {
				t.Errorf("%s moves unknown end-to-end metric %s", m.Name, e)
			}
		}
		for _, w := range entry.Workloads {
			if !names[w] {
				t.Errorf("%s names unknown workload %s", m.Name, w)
			}
		}
	}
	if len(doc.PerLayer) != len(sp.PerLayer) {
		t.Errorf("layers.json maps %d metrics, BENCHMARK.json defines %d", len(doc.PerLayer), len(sp.PerLayer))
	}
	if doc.HeldOutSeed == 0 {
		t.Error("layers.json declares no held-out seed")
	}

	split := map[string]int{}
	for _, w := range fleetSplit {
		split[opShort(w.op)] = w.weight
	}
	if !maps.Equal(split, doc.Assumptions.FleetSplit) {
		t.Errorf("app-fleet split in code %v, in layers.json %v", split, doc.Assumptions.FleetSplit)
	}
	syncMix := map[string]int{}
	for _, w := range syncWeights {
		syncMix[opShort(w.op)] = w.weight
	}
	if !maps.Equal(syncMix, doc.Assumptions.SyncMix) {
		t.Errorf("paper-sync mix in code %v, in layers.json %v", syncMix, doc.Assumptions.SyncMix)
	}
}

func TestMixIsExact(t *testing.T) {
	got := map[int]int{}
	for _, k := range mix(rand.New(rand.NewSource(1)), 1000, []float64{6, 3, 1}) {
		got[k]++
	}
	if got[0] != 600 || got[1] != 300 || got[2] != 100 {
		t.Errorf("mix counts %v, want 600/300/100", got)
	}
}

func opShort(op opKind) string { return opNames[op][len("anception."):] }
