// Command benchcmp compares two result sets written by `go run ./bench`:
//
//	go run ./bench/benchcmp old.json new.json
//
// It prints one row per workload × end-to-end metric with both medians and
// quartiles, the ratio new/old, and a verdict against the metric's bound in
// BENCHMARK.json. It exits non-zero if any metric regressed or more ops
// failed than before.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// contract is the part of BENCHMARK.json the comparison needs.
type contract struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

// resultSet is the part of bench's output the comparison needs: one entry
// per workload and run. A metric's samples are its per-window values.
type resultSet struct {
	Workloads []struct {
		Workload  string
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value   float64
			Samples []float64
		}
	}
}

// samples returns what one metric's quartiles are taken over: its value in
// every run of the workload, or, from a single run, its per-window values.
func (set resultSet) samples(workload, metric string) (xs []float64, failed, attempted int) {
	var windows []float64
	for _, w := range set.Workloads {
		if w.Workload == workload {
			xs = append(xs, w.Metrics[metric].Value)
			windows = w.Metrics[metric].Samples
			failed, attempted = failed+w.Failed, attempted+w.Attempted
		}
	}
	if len(xs) == 1 && len(windows) > 0 {
		return windows, failed, attempted
	}
	return xs, failed, attempted
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchcmp old.json new.json")
		return 2
	}
	worse, err := compare(args[0], args[1], stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 2
	}
	if worse > 0 {
		fmt.Fprintf(stderr, "benchcmp: %d regressions\n", worse)
		return 1
	}
	return 0
}

func load(path string, into any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// contractPath finds BENCHMARK.json at or above the working directory.
func contractPath() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		if filepath.Dir(dir) == dir {
			return "", errors.New("BENCHMARK.json not found at or above the working directory")
		}
		dir = filepath.Dir(dir)
	}
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// compare prints the table and returns how many rows regressed.
func compare(oldPath, newPath string, out io.Writer) (int, error) {
	cp, err := contractPath()
	if err != nil {
		return 0, err
	}
	var c contract
	var before, after resultSet
	for path, into := range map[string]any{cp: &c, oldPath: &before, newPath: &after} {
		if err := load(path, into); err != nil {
			return 0, err
		}
	}
	fmt.Fprintf(out, "%-16s %-16s %-5s %36s %36s %8s %6s  %s\n", "workload", "metric", "unit",
		"old median [q1, q3]", "new median [q1, q3]", "new/old", "bound", "verdict")
	worse := 0
	seen := map[string]bool{}
	for _, w := range before.Workloads {
		if seen[w.Workload] {
			continue
		}
		seen[w.Workload] = true
		var oldFailed, newFailed float64
		for _, spec := range c.EndToEnd {
			olds, of, oa := before.samples(w.Workload, spec.Name)
			news, nf, na := after.samples(w.Workload, spec.Name)
			if len(news) == 0 {
				return 0, fmt.Errorf("%s has no workload %s", newPath, w.Workload)
			}
			oldFailed, newFailed = float64(of)/float64(oa), float64(nf)/float64(na)
			o1, o2, o3 := quartiles(olds)
			n1, n2, n3 := quartiles(news)
			ratio := n2 / o2
			change := ratio - 1 // positive = worse
			if spec.Better == "higher" {
				change = 1 - ratio
			}
			verdict := "unchanged"
			switch spread := max((o3-o1)/o2, (n3-n1)/n2); {
			case spread > spec.Bound:
				verdict = "unresolved"
			case change > spec.Bound:
				verdict = "REGRESSED"
				worse++
			case -change > spec.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(out, "%-16s %-16s %-5s %12.5g [%9.4g, %9.4g] %12.5g [%9.4g, %9.4g] %8.3f %5.0f%%  %s\n",
				w.Workload, spec.Name, spec.Unit, o2, o1, o3, n2, n1, n3, ratio, 100*spec.Bound, verdict)
		}
		verdict := "unchanged"
		if newFailed > oldFailed {
			verdict = "REGRESSED"
			worse++
		}
		fmt.Fprintf(out, "%-16s %-16s %-5s %12.5g %24s %12.5g %24s %8s %6s  %s\n",
			w.Workload, "failed_share", "ratio", oldFailed, "", newFailed, "", "", "0", verdict)
	}
	return worse, nil
}
