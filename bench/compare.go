//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison needs: each
// end-to-end metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the three cut points of sorted values the way Python's
// statistics.quantiles(values, n=4) does, which is what the driver uses.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median; with
// fewer than two values there is none to speak of.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// resultSet is one side of a comparison: the values of every (workload,
// metric) pair over the side's result files.
type resultSet struct {
	values map[string]map[string][]float64
	failed map[string][]float64 // failed_ratio per workload
}

func loadSet(paths string) (resultSet, error) {
	rs := resultSet{values: map[string]map[string][]float64{}, failed: map[string][]float64{}}
	for _, path := range strings.Split(paths, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return rs, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return rs, fmt.Errorf("%s: %w", path, err)
		}
		for _, w := range rf.Workloads {
			if w.EndToEnd == nil {
				continue
			}
			if rs.values[w.Name] == nil {
				rs.values[w.Name] = map[string][]float64{}
			}
			for name, m := range w.EndToEnd {
				rs.values[w.Name][name] = append(rs.values[w.Name][name], m.Value)
			}
			rs.failed[w.Name] = append(rs.failed[w.Name], w.FailedRatio)
		}
	}
	return rs, nil
}

// runCompare judges side b against side a, per workload and end-to-end
// metric, on the sides' medians. A metric worse by more than its bound is a
// regression and makes the exit code non-zero; one whose run-to-run spread
// on either side is wider than its bound is unresolved, not unchanged.
func runCompare(out io.Writer, a, b string) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	var spec benchSpec
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return exitUsage
	}
	sa, err := loadSet(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitUsage
	}
	sb, err := loadSet(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitUsage
	}
	code := 0
	fmt.Fprintf(out, "%-14s %-24s %12s %12s %8s %6s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "spread", "verdict")
	for _, w := range workloads {
		va, vb := sa.values[w.Name], sb.values[w.Name]
		if va == nil || vb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			xa, xb := va[m.Name], vb[m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := medianFloat(xa), medianFloat(xb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			sp := max(spread(xa), spread(xb))
			verdict := "unchanged"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				code = exitFailed
			case worse < -m.Bound:
				verdict = "improved"
			case sp > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-14s %-24s %12.4f %12.4f %+7.1f%% %5.0f%% %6.1f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*change, 100*m.Bound, 100*sp, verdict)
		}
		fa, fb := medianFloat(sa.failed[w.Name]), medianFloat(sb.failed[w.Name])
		verdict := "unchanged"
		if fb > fa {
			verdict = "REGRESSION"
			code = exitFailed
		}
		fmt.Fprintf(out, "%-14s %-24s %12.6f %12.6f %8s %6s %7s  %s\n", w.Name, "failed_ratio", fa, fb, "", "rise", "", verdict)
	}
	return code
}
