// Command darshan-job-summary prints a PyDarshan-style overview of a trace:
// per-module activity, busiest files, and the POSIX access-size histogram.
//
// Usage:
//
//	darshan-job-summary <trace.darshan|trace.txt|trace.dxt.txt>
//
// The trace may be any rendering the fleet ingests: a binary log,
// darshan-parser text, or a DXT per-operation text trace.
package main

import (
	"fmt"
	"os"

	"ioagent/internal/fleet/ingest"
	"ioagent/internal/jobsummary"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: darshan-job-summary <trace>")
		os.Exit(2)
	}
	raw, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "darshan-job-summary:", err)
		os.Exit(1)
	}
	log, _, err := ingest.Decode(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darshan-job-summary:", err)
		os.Exit(1)
	}
	fmt.Print(jobsummary.Build(log).Format())
}
