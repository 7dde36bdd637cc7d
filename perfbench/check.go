package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"

	"mltcp/internal/backend"
)

// defaultSeed is the workload seed the reference digests were recorded at.
const defaultSeed = 1

// referenceJSON holds, for defaultSeed, the digest of every operation's
// Result (and learned prediction, where the operation makes one) in each
// workload's scenario pool, in pool order.
//
//go:embed reference.json
var referenceJSON []byte

type referenceFile struct {
	Seed        uint64              `json:"seed"`
	Results     map[string][]string `json:"results"`
	Predictions map[string][]string `json:"predictions,omitempty"`
}

// digests are the fingerprints of one pool's operations, by pool index.
type digests struct {
	results, predictions []string
}

// reference returns the recorded digests for a workload at defaultSeed.
func reference(workload string) (digests, error) {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return digests{}, fmt.Errorf("reference.json: %w", err)
	}
	if ref.Seed != defaultSeed {
		return digests{}, fmt.Errorf("reference.json is for seed %d, want %d", ref.Seed, defaultSeed)
	}
	d := digests{results: ref.Results[workload], predictions: ref.Predictions[workload]}
	if d.results == nil {
		return digests{}, fmt.Errorf("reference.json has no digests for %q", workload)
	}
	return d, nil
}

// writeReference records every workload's pool digests at defaultSeed.
func writeReference(path string, byWorkload map[string]digests) error {
	ref := referenceFile{Seed: defaultSeed, Results: map[string][]string{}, Predictions: map[string][]string{}}
	for name, d := range byWorkload {
		ref.Results[name] = d.results
		if slices.ContainsFunc(d.predictions, func(s string) bool { return s != "" }) {
			ref.Predictions[name] = d.predictions
		}
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// digest fingerprints every simulated statistic of a Result: a speed-only
// change must leave it unchanged.
func digest(r *backend.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12]), nil
}

// checkFromTrace verifies that the Result rebuilt from a run's trace
// agrees exactly with the run's own Result on everything a trace carries.
func checkFromTrace(run, fromTrace *backend.Result) error {
	if run.InterleavedAt != fromTrace.InterleavedAt {
		return fmt.Errorf("interleaved-at %d from trace, %d from run", fromTrace.InterleavedAt, run.InterleavedAt)
	}
	if run.OverlapScore != fromTrace.OverlapScore {
		return fmt.Errorf("overlap %v from trace, %v from run", fromTrace.OverlapScore, run.OverlapScore)
	}
	if len(run.Jobs) != len(fromTrace.Jobs) {
		return fmt.Errorf("%d jobs from trace, %d from run", len(fromTrace.Jobs), len(run.Jobs))
	}
	for i, a := range run.Jobs {
		b := fromTrace.Jobs[i]
		if a.Name != b.Name || a.Ideal != b.Ideal || a.BytesPerIter != b.BytesPerIter ||
			!reflect.DeepEqual(a.CommStarts, b.CommStarts) || !reflect.DeepEqual(a.CommEnds, b.CommEnds) ||
			!reflect.DeepEqual(a.IterTimes, b.IterTimes) || !reflect.DeepEqual(a.FCTs, b.FCTs) {
			return fmt.Errorf("job %d (%s) timeline differs between trace and run", i, a.Name)
		}
	}
	return nil
}

// slowdownErr is the mean relative steady-state slowdown error of got
// against want over paired runs of the same scenarios: |got − want| / want
// per job, and 1 for a job only one side saw complete an iteration. Pairs
// with a missing run are skipped.
func slowdownErr(got, want []*backend.Result, skip int) (float64, error) {
	var sum float64
	n := 0
	for i := range want {
		if got[i] == nil || want[i] == nil {
			continue
		}
		if len(got[i].Jobs) != len(want[i].Jobs) {
			return 0, fmt.Errorf("scenario %s: %d jobs against %d", want[i].Scenario, len(got[i].Jobs), len(want[i].Jobs))
		}
		for k := range want[i].Jobs {
			g, w := got[i].Jobs[k].Slowdown(skip), want[i].Jobs[k].Slowdown(skip)
			switch {
			case w > 0:
				sum += math.Abs(g-w) / w
			case g > 0:
				sum++
			}
			n++
		}
	}
	return ratio(sum, float64(n)), nil
}
