package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// The tests run every workload in -quick mode: small inputs, a handful of
// checked ops, no timing assertions.

func quickOptions(t *testing.T, seed int64, traced bool) options {
	return options{seed: seed, quick: true, traced: traced, dir: t.TempDir()}
}

func mustContract(t *testing.T) contract {
	t.Helper()
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractNames: every workload BENCHMARK.json declares is one the code
// has (the code has two more, which the driver's time limit leaves no room
// for), and every declared name and unit is well formed.
func TestContractNames(t *testing.T) {
	c := mustContract(t)
	known := map[string]bool{}
	for _, def := range workloads {
		known[def.name] = true
	}
	if len(c.Workloads) < 2 {
		t.Errorf("BENCHMARK.json declares %d workloads, want at least 2", len(c.Workloads))
	}
	for _, w := range c.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json declares workload %q, which the code does not have", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range c.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), c.EndToEnd...), c.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] ||
			(m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %+v is malformed or repeated", m)
		}
		seen[m.Name] = true
	}
	for _, m := range c.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestQuickEndToEnd: every workload completes at least three checked ops
// and emits exactly the declared end-to-end metrics.
func TestQuickEndToEnd(t *testing.T) {
	c := mustContract(t)
	for _, def := range workloads {
		res, err := measure(def, quickOptions(t, 1101, false))
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", def.name, res.Correct, res.Attempted, res.Failed)
		}
		if err := applyUnits(&res, c.EndToEnd); err != nil {
			t.Error(err)
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", def.name, name, m.Value)
			}
		}
	}
}

// exact lists the per-layer metrics that are counts or deterministic
// arithmetic, so two runs with one seed must report them identically.
var exact = []string{"comm.msgs_per_op", "comm.wire_bytes_per_op", "quant.wire_ratio",
	"core.sim_s_per_op", "core.model_over_sim", "adapt.switches", "adapt.choice_id",
	"train.loss_final", "cluster.switches", "cluster.makespan_sim_s", "bench.failed_share"}

// TestQuickTraced: every workload's traced run emits exactly the declared
// per-layer metrics and its Chrome trace, its phase shares sum to one, and
// the exact metrics repeat under the same seed.
func TestQuickTraced(t *testing.T) {
	c := mustContract(t)
	for _, def := range workloads {
		o := quickOptions(t, 1101, true)
		res, err := measure(def, o)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !res.Correct || res.Attempted < 3 {
			t.Errorf("%s: correct=%v attempted=%d", def.name, res.Correct, res.Attempted)
		}
		if err := applyUnits(&res, c.PerLayer); err != nil {
			t.Error(err)
		}
		shares := 0.0
		for name, m := range res.Metrics {
			if strings.HasPrefix(name, "core.") && strings.HasSuffix(name, "_share") {
				shares += m.Value
			}
		}
		if shares < 0.99 || shares > 1.01 {
			t.Errorf("%s: core.*_share sum to %v, want 1", def.name, shares)
		}
		// Repeating two workloads covers every exact metric's code path
		// without doubling the test's run time.
		if def.name != "gor-latency" && def.name != trainWorkload {
			continue
		}
		again, err := measure(def, o)
		if err != nil {
			t.Fatalf("%s again: %v", def.name, err)
		}
		for _, name := range exact {
			if a, b := res.Metrics[name].Value, again.Metrics[name].Value; a != b {
				t.Errorf("%s: %s = %v, then %v under the same seed", def.name, name, a, b)
			}
		}
	}
}

// TestSeedsAndDigests: the same seed reproduces every workload's inputs; a
// different seed changes them, except on sim-cluster-mix, which is pinned to
// BENCH_8's key.
func TestSeedsAndDigests(t *testing.T) {
	for _, def := range workloads {
		digest := func(seed int64) string {
			inst, err := def.build(def.name, seed, true)
			if err != nil {
				t.Fatalf("%s: %v", def.name, err)
			}
			return inst.digest
		}
		a, b, other := digest(1101), digest(1101), digest(2202)
		if a != b {
			t.Errorf("%s: seed 1101 gave digests %s and %s", def.name, a, b)
		}
		if pinned := def.name == "sim-cluster-mix"; (a == other) != pinned {
			t.Errorf("%s: seeds 1101 and 2202 gave digests %s and %s", def.name, a, other)
		}
	}
}

// TestDriverLine: the command the driver runs ends its output with one JSON
// object that has exactly the four keys of the contract.
func TestDriverLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "gor-latency", "--seed", "7", "--seconds", "1", "--trace", "0", "-quick"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[key]; !ok {
			t.Errorf("last line lacks %q: %s", key, lines[len(lines)-1])
		}
	}
	if len(last) != 4 {
		t.Errorf("last line has %d keys, want 4", len(last))
	}
	if code := run([]string{"-workload", "no-such"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}
