package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark checks its output
// against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &sp, nil
}

// check fails unless got holds exactly the metrics the definition lists
// for this kind of run, each with the listed unit.
func (sp *spec) check(got map[string]metric, traced bool) error {
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
	}
	var problems []string
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case g.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, defined as %q", m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !listed[name] {
			problems = append(problems, "unknown "+name)
		}
	}
	if len(problems) > 0 {
		slices.Sort(problems)
		return fmt.Errorf("metrics do not match the benchmark definition: %s", strings.Join(problems, "; "))
	}
	return nil
}

// layerUnit is the unit of a per-layer counter metric, read off its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "bytes_per_op"):
		return "B"
	case strings.HasSuffix(name, "_per_op"), strings.HasSuffix(name, "_per_bulk_op"),
		strings.HasSuffix(name, "max_inflight"), strings.HasSuffix(name, "accept_batch"):
		return "count"
	default:
		return "ratio"
	}
}
