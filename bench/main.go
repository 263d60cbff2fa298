// Command bench is the diagnosis fleet's benchmark: one closed-loop load
// harness and one latency budget, end to end and layer by layer.
//
// It boots router → 2 nodes in this process the way cmd/iofleetd and
// cmd/iofleet-router wire them (journal, roster, replication, upload
// spool; no simulated API latency), drives the named workloads with two
// closed-loop SDK clients, checks every answer, and prints every metric
// as `workload metric value unit`. All layer numbers come from timing
// calls into seams the program already exposes; nothing outside this
// directory is touched. README.md has the glossary and the reasoning.
//
//	go run ./bench -seed 1                         all four workloads, both passes → bench/out/result.json
//	go run ./bench -workload hit_small -seed 1 -seconds 20 -trace 0
//	                                               one workload, end-to-end metrics (the driver's form)
//	go run ./bench -workload hit_small -seed 1 -seconds 20 -trace 1
//	                                               one workload, per-layer metrics + bench/out/spans-hit_small.json
//	go run ./bench -compare old.json new.json      verdict per workload × end-to-end metric; exit 1 on any `worse`
//	                                               (either side may be a comma-separated list of runs)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	name := flag.String("workload", "", "run one workload (hit_small, neardup_gate, paper_pipeline, stream_large); empty runs all four, both passes")
	seed := flag.Int64("seed", 1, "inputs are a deterministic function of the seed")
	seconds := flag.Int("seconds", 20, "length of the measured window, cut into one-second slices")
	trace := flag.Int("trace", 0, "0: untraced windows, end-to-end metrics; 1: traced run, per-layer metrics")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for result.json, span dumps and temporary cluster state")
	cmp := flag.Bool("compare", false, "compare two result files, or two comma-separated sets of them: bench -compare old.json new.json")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare old.json[,old2.json…] new.json[,new2.json…]"))
		}
		worse, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse > 0 {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() != 0 {
		fatal(fmt.Errorf("want -seconds >= 1, -trace 0 or 1, and no other arguments"))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	o := options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *out}

	// An interrupt cancels the run; the deferred closes still remove the
	// state directories and stop every listener.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ok, err := execute(ctx, *name, o)
	stop()
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

// execute runs the named workload (the driver's form: one pass, the
// result object as the last line) or, with no name, all four workloads
// with both passes, and writes result.json. ok is false when any answer
// was wrong or a workload did not isolate its layers.
func execute(ctx context.Context, name string, o options) (ok bool, err error) {
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return false, fmt.Errorf("unknown workload %q", name)
		}
		rep, err := runWorkload(ctx, w, o)
		if err != nil {
			return false, err
		}
		defs := endToEnd
		if o.Trace {
			defs = perLayer
		}
		printMetrics(os.Stdout, rep, defs)
		reportProblems(rep)
		if err := writeResult(filepath.Join(o.OutDir, "result.json"), o, []*report{rep}); err != nil {
			return false, err
		}
		line, err := contractLine(rep, defs)
		if err != nil {
			return false, err
		}
		fmt.Println(line)
		return rep.correct(), nil
	}

	ok = true
	var reports []*report
	for _, w := range workloads {
		o.Trace = false
		rep, err := runWorkload(ctx, w, o)
		if err != nil {
			return false, err
		}
		printMetrics(os.Stdout, rep, endToEnd)
		o.Trace = true
		layers, err := runWorkload(ctx, w, o)
		if err != nil {
			return false, err
		}
		printMetrics(os.Stdout, layers, perLayer)
		rep.merge(layers)
		reportProblems(rep)
		ok = ok && rep.correct()
		reports = append(reports, rep)
	}
	path := filepath.Join(o.OutDir, "result.json")
	if err := writeResult(path, o, reports); err != nil {
		return false, err
	}
	fmt.Println("result file:", path)
	return ok, nil
}

// merge folds the traced run's report into the untraced one.
func (r *report) merge(layers *report) {
	r.Attempted += layers.Attempted
	r.Failed += layers.Failed
	r.Problems = append(r.Problems, layers.Problems...)
	for name, v := range layers.Metrics {
		r.Metrics[name] = v
	}
}

func reportProblems(rep *report) {
	const show = 10
	for i, p := range rep.Problems {
		if i == show {
			fmt.Fprintf(os.Stderr, "bench: … and %d more\n", len(rep.Problems)-show)
			break
		}
		fmt.Fprintln(os.Stderr, "bench: FAIL:", p)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
