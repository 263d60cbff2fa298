package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// verdict classifies one end-to-end metric's move from base to next
// against its bound. Slices are what the value was taken from: the runs
// of a set, or the slices of a single run. When they disagree by more
// than the bound on either side the move cannot be resolved — it is
// reported as unresolved, not as unchanged — unless every one of them on
// one side reads beyond every one on the other.
func verdict(d metricDef, base, next value) string {
	if base.Value == 0 {
		return "unresolved"
	}
	sign := 1.0 // × a value = a cost: larger is worse
	if d.Better == "higher" {
		sign = -1
	}
	worsening := sign * (next.Value - base.Value) / base.Value
	if max(spread(base.Slices), spread(next.Slices)) > d.Bound {
		baseLo, baseHi := extremes(base, sign)
		nextLo, nextHi := extremes(next, sign)
		switch {
		case worsening > d.Bound && nextLo > baseHi:
			return "worse"
		case worsening < -d.Bound && nextHi < baseLo:
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worsening > d.Bound:
		return "worse"
	case worsening < -d.Bound:
		return "better"
	}
	return "within"
}

// extremes returns the least and the greatest of sign × v's slices.
func extremes(v value, sign float64) (lo, hi float64) {
	lo, hi = sign*v.Value, sign*v.Value
	for _, x := range v.Slices {
		lo, hi = min(lo, sign*x), max(hi, sign*x)
	}
	return lo, hi
}

// runSet is the end-to-end values of one side of a comparison, by
// workload and metric. A side is one result file or several (a
// comma-separated list): with several, a metric's value is the median
// over the runs and its slices are the runs' values, so spread means
// run-to-run spread; with one, the run's own slices stand in.
type runSet map[string]map[string]value

func loadSet(paths string) (set runSet, order []string, err error) {
	runs := make(map[string]map[string][]float64)
	set = make(runSet)
	for _, path := range strings.Split(paths, ",") {
		rf, err := readResult(path)
		if err != nil {
			return nil, nil, err
		}
		for _, rep := range rf.Workloads {
			if runs[rep.Workload] == nil {
				runs[rep.Workload] = make(map[string][]float64)
				set[rep.Workload] = make(map[string]value)
				order = append(order, rep.Workload)
			}
			for _, d := range endToEnd {
				v, ok := rep.Metrics[d.Name]
				if !ok {
					return nil, nil, fmt.Errorf("%s: workload %s has no %s", path, rep.Workload, d.Name)
				}
				each := append(runs[rep.Workload][d.Name], v.Value)
				runs[rep.Workload][d.Name] = each
				if len(each) > 1 {
					v = value{Value: median(each), Slices: each}
				}
				set[rep.Workload][d.Name] = v
			}
		}
	}
	return set, order, nil
}

// compare prints, per workload and end-to-end metric, the base value,
// the new value, their ratio, the wider of the two spreads and the
// verdict, and returns how many metrics got worse. Comparing two sets of
// runs of one commit is the A/A check.
func compare(w io.Writer, basePaths, nextPaths string) (worse int, err error) {
	base, order, err := loadSet(basePaths)
	if err != nil {
		return 0, err
	}
	next, _, err := loadSet(nextPaths)
	if err != nil {
		return 0, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tbound\tspread\tverdict")
	for _, workload := range order {
		if next[workload] == nil {
			return 0, fmt.Errorf("%s: no run of workload %s", nextPaths, workload)
		}
		for _, d := range endToEnd {
			bv, nv := base[workload][d.Name], next[workload][d.Name]
			v := verdict(d, bv, nv)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.3f\t%.2f\t%.3f\t%s\n",
				workload, d.Name, bv.Value, nv.Value, ratio(nv.Value, bv.Value), d.Bound,
				max(spread(bv.Slices), spread(nv.Slices)), v)
		}
	}
	return worse, tw.Flush()
}
