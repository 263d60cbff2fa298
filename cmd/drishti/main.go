// Command drishti runs the heuristic baseline over a Darshan trace and
// prints the fired triggers (the classic CLI view) or the report form.
//
// Usage:
//
//	drishti [-report] <trace.darshan|trace.txt|trace.dxt.txt>
//
// The trace may be any rendering the fleet ingests: a binary log,
// darshan-parser text, or a DXT per-operation text trace.
package main

import (
	"flag"
	"fmt"
	"os"

	"ioagent/internal/drishti"
	"ioagent/internal/fleet/ingest"
)

func main() {
	report := flag.Bool("report", false, "print the structured report instead of the trigger list")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: drishti [-report] <trace>")
		os.Exit(2)
	}
	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "drishti:", err)
		os.Exit(1)
	}
	log, _, err := ingest.Decode(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "drishti:", err)
		os.Exit(1)
	}
	res := drishti.Analyze(log)
	if *report {
		fmt.Println(res.Format())
		return
	}
	fmt.Print(res.Summary())
}
