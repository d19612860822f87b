package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// specFile is the benchmark's contract, at the root of the checkout the
// benchmark runs in. Metric names, units, directions and regression bounds
// are read from it so they are written down exactly once.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of the contract the benchmark reads; the command,
// paths and run length in the file are for the pipeline that runs it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, s.validate()
}

// validate checks the parts of the contract the benchmark itself relies on:
// well-formed unique names, a direction on every metric, and workloads that
// exist in workloads.go.
func (s *benchSpec) validate() error {
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s: bad name %q", specFile, name)
		}
		if seen[name] {
			return fmt.Errorf("%s: name %q used twice", specFile, name)
		}
		seen[name] = true
		return nil
	}
	if len(s.Workloads) != len(workloads) {
		return fmt.Errorf("%s: %d workloads, the benchmark has %d", specFile, len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if _, err := workloadByName(w.Name); err != nil {
			return fmt.Errorf("%s: %w", specFile, err)
		}
	}
	for _, ms := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range ms {
			if err := use(m.Name); err != nil {
				return err
			}
			if m.Better != "higher" && m.Better != "lower" {
				return fmt.Errorf("%s: metric %q: better is %q", specFile, m.Name, m.Better)
			}
		}
	}
	return nil
}

// checkNames reports the difference between the metric names a pass
// produced and the ones the contract lists.
func checkNames(want []metricSpec, got map[string]float64) error {
	var missing, extra []string
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	for name := range got {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Errorf("metrics differ from %s: missing %v, unlisted %v", specFile, missing, extra)
}
