// Command ioagent diagnoses Darshan traces with the full IOAgent pipeline
// and optionally opens an interactive follow-up session (paper Fig. 5).
//
// Usage:
//
//	ioagent [-model NAME] [-interactive] [-show-fragments] <trace>
//	ioagent -fleet N [-model NAME] <trace> [trace ...]
//	ioagent -server URL[,URL...] [-lane interactive|batch] [-tenant NAME] <trace> [trace ...]
//	ioagent -server URL -stream [-chunk N] [-lane ...] [-tenant ...] [<trace>|-]
//
// Traces may be binary logs (as written by cmd/tracebench),
// darshan-parser text, or DXT per-operation text renderings
// ("# DXT trace" first line). With -interactive, questions are read from stdin
// after the diagnosis prints. With -fleet N, all traces are diagnosed
// through an N-worker in-process fleet pool (internal/fleet) and each
// report prints with its job header, followed by the pool metrics. With
// -server URL, the same batch flow instead drives a remote iofleetd
// daemon through the versioned API client (internal/fleet/client): traces
// are submitted on the chosen priority lane (and tenant, for per-tenant
// accounting), polled to completion, and the daemon's metrics print at
// the end. A comma-separated -server list engages the SDK's cluster mode:
// submissions are routed client-side by consistent hash across the named
// iofleetd nodes — no router hop — with automatic failover to ring
// successors. (Pointing -server at a single iofleet-router URL reaches
// the same fleet through the server-side route.)
//
// With -stream the trace is never loaded into memory: a file argument is
// scanned once to learn its canonical content digest (so the submission
// asserts X-Fleet-Digest and a router places the stream with zero
// spooling), then streamed in chunks; "-" (or no argument) streams stdin
// single-pass, with the digest computed on the fly and sent as a
// trailer. -chunk N instead drives a resumable upload session in N-byte
// PATCH appends (the path that survives daemon restarts mid-transfer).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/ioagent"
	"ioagent/internal/llm"
)

func main() {
	model := flag.String("model", llm.GPT4o, "diagnosis model (see llm catalog)")
	cheap := flag.String("cheap-model", llm.GPT4oMini, "self-reflection filter model")
	interactive := flag.Bool("interactive", false, "ask follow-up questions after the diagnosis")
	showFragments := flag.Bool("show-fragments", false, "print per-fragment pipeline intermediates")
	noRAG := flag.Bool("no-rag", false, "disable retrieval (ablation)")
	oneShot := flag.Bool("one-shot-merge", false, "replace the tree merge with a single merge call (ablation)")
	fleetN := flag.Int("fleet", 0, "batch mode: diagnose all traces with N concurrent workers")
	server := flag.String("server", "", "remote mode: diagnose through the iofleetd daemon (or iofleet-router) at this base URL; a comma-separated list routes client-side across the fleet")
	lane := flag.String("lane", "", "priority lane for -server submissions: interactive (default) or batch")
	tenant := flag.String("tenant", "", "tenant identifier for -server submissions (per-tenant accounting)")
	stream := flag.Bool("stream", false, "with -server: stream one trace (file or '-' for stdin) without loading it into memory")
	chunk := flag.Int("chunk", 0, "with -stream: use a resumable upload session in N-byte chunks instead of one streaming request")
	flag.Parse()

	opts := ioagent.Options{
		Model: *model, CheapModel: *cheap,
		DisableRAG: *noRAG, UseOneShotMerge: *oneShot,
	}

	if *server != "" {
		if *stream {
			runStream(*server, api.Lane(*lane), *tenant, *chunk, flag.Args())
			return
		}
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: ioagent -server URL [-lane interactive|batch] <trace> [trace ...]")
			os.Exit(2)
		}
		// Pipeline configuration lives daemon-side in -server mode; warn
		// about every explicitly-set flag this path will not honor, so a
		// requested model or ablation is never silently ignored.
		ignored := map[string]bool{
			"model": true, "cheap-model": true, "no-rag": true, "one-shot-merge": true,
			"interactive": true, "show-fragments": true, "fleet": true,
		}
		flag.Visit(func(f *flag.Flag) {
			if ignored[f.Name] {
				fmt.Fprintf(os.Stderr, "ioagent: -%s is ignored in -server mode (the daemon owns the pipeline configuration)\n", f.Name)
			}
		})
		runServer(*server, api.Lane(*lane), *tenant, flag.Args())
		return
	}

	if *fleetN > 0 {
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: ioagent -fleet N [flags] <trace> [trace ...]")
			os.Exit(2)
		}
		if *interactive || *showFragments {
			fmt.Fprintln(os.Stderr, "ioagent: -interactive and -show-fragments are ignored in -fleet batch mode")
		}
		runFleet(*fleetN, opts, flag.Args())
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ioagent [flags] <trace.darshan|trace.txt>")
		os.Exit(2)
	}
	log, err := loadTrace(flag.Arg(0))
	check(err)

	agent := ioagent.New(llm.NewSim(), opts)
	res, err := agent.Diagnose(log)
	check(err)

	if *showFragments {
		for _, fr := range res.Fragments {
			fmt.Printf("--- fragment %s (retrieved %d, kept %d) ---\n%s\n",
				fr.Fragment.ID(), fr.Retrieved, fr.Kept, fr.Description)
		}
		fmt.Println("=== merged diagnosis ===")
	}
	fmt.Println(res.Text)

	usage, cost, calls := agent.Stats()
	fmt.Printf("[%d LLM calls, %d tokens, $%.4f]\n", calls, usage.Total(), cost)

	if *interactive {
		sess := agent.NewSession(res)
		sc := bufio.NewScanner(os.Stdin)
		fmt.Print("\nAsk a follow-up question (empty line to exit)\n> ")
		for sc.Scan() {
			q := strings.TrimSpace(sc.Text())
			if q == "" {
				break
			}
			answer, err := sess.Ask(q)
			check(err)
			fmt.Println(answer)
			fmt.Print("> ")
		}
	}
}

// runFleet batch-diagnoses every path through an N-worker pool and prints
// each report followed by the pool's health metrics.
func runFleet(workers int, opts ioagent.Options, paths []string) {
	pool := fleet.New(llm.NewSim(), fleet.Config{Workers: workers, Agent: opts})
	defer pool.Close()

	jobs := make([]*fleet.Job, len(paths))
	for i, path := range paths {
		log, err := loadTrace(path)
		check(err)
		// A multi-trace sweep is bulk work: the batch lane keeps it from
		// crowding out interactive submitters sharing a pool.
		jobs[i], err = pool.SubmitWith(log, fleet.SubmitOpts{Lane: fleet.LaneBatch})
		check(err)
	}
	pool.Wait()

	failed := 0
	for i, j := range jobs {
		info := j.Info()
		fmt.Printf("=== %s (%s, %s", paths[i], info.ID, info.Status)
		if info.CacheHit {
			fmt.Print(", cache hit")
		}
		if info.SimilarityHit {
			fmt.Printf(", similarity hit (source %.12s, confidence %.2f)", info.SourceDigest, info.Confidence)
		}
		fmt.Println(") ===")
		res, err := j.Wait()
		if err != nil {
			failed++
			fmt.Printf("error: %v\n", err)
			continue
		}
		fmt.Println(res.Text)
	}

	m := pool.Metrics()
	usage, cost, calls := pool.Agent().Stats()
	fmt.Printf("[fleet: %d jobs on %d workers, %.0f%% cache hits, p50 %s, p95 %s; %d LLM calls, %d tokens, $%.4f]\n",
		m.Submitted, m.Workers, 100*m.HitRate,
		m.LatencyP50.Round(time.Millisecond), m.LatencyP95.Round(time.Millisecond),
		calls, usage.Total(), cost)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "ioagent: %d of %d jobs failed\n", failed, len(jobs))
		os.Exit(1)
	}
}

// fleetAPI is the slice of the SDK surface runServer drives; both the
// single-endpoint Client and the multi-node Cluster satisfy it.
type fleetAPI interface {
	Submit(ctx context.Context, req api.SubmitRequest) (api.JobInfo, error)
	WaitDiagnosis(ctx context.Context, id string) (api.Diagnosis, error)
	Metrics(ctx context.Context) (api.Metrics, error)
	Close()
}

// streamAPI is the slice runStream drives; likewise satisfied by both.
type streamAPI interface {
	SubmitStream(ctx context.Context, body io.Reader, opts client.StreamOpts) (api.JobInfo, error)
	SubmitChunked(ctx context.Context, r io.Reader, chunkSize int, opts client.StreamOpts) (api.JobInfo, error)
	WaitDiagnosis(ctx context.Context, id string) (api.Diagnosis, error)
	Close()
}

// runServer batch-diagnoses every path through a remote iofleetd daemon
// (or, with a comma-separated URL list, client-side across a whole fleet)
// via the versioned API client: raw trace bytes are submitted on the
// requested lane and tenant (the daemon sniffs binary vs parser text
// exactly like the local loader), polled to completion, and printed in
// order.
func runServer(baseURL string, lane api.Lane, tenant string, paths []string) {
	ctx := context.Background()
	var c fleetAPI
	if members := strings.Split(baseURL, ","); len(members) > 1 {
		cluster, err := client.NewCluster(members)
		check(err)
		c = cluster
	} else {
		c = client.New(baseURL)
	}
	defer c.Close()

	ids := make([]string, len(paths))
	raws := make([][]byte, len(paths))
	for i, path := range paths {
		raw, err := os.ReadFile(path)
		check(err)
		info, err := c.Submit(ctx, api.SubmitRequest{Lane: lane, Tenant: tenant, Trace: raw})
		check(err)
		ids[i] = info.ID
		raws[i] = raw
	}

	failed := 0
	for i, id := range ids {
		diag, err := c.WaitDiagnosis(ctx, id)
		if api.ErrorCode(err) == api.CodeJobNotFound {
			// The job finished and was pruned from the daemon's bounded
			// history while we polled earlier submissions — or, in a
			// cluster, the node that held it died. Its diagnosis still
			// lives in the digest-addressed cache (or is recomputed by the
			// ring successor), so an idempotent resubmit of the same bytes
			// recovers it.
			var info api.JobInfo
			if info, err = c.Submit(ctx, api.SubmitRequest{Lane: lane, Tenant: tenant, Trace: raws[i]}); err == nil {
				id = info.ID
				diag, err = c.WaitDiagnosis(ctx, id)
			}
		}
		if err != nil {
			failed++
			fmt.Printf("=== %s (%s, failed) ===\nerror: %v\n", paths[i], id, err)
			continue
		}
		header := fmt.Sprintf("%s, done, %s lane", id, diag.Lane)
		if diag.CacheHit {
			header += ", cache hit"
		}
		if diag.SimilarityHit {
			header += fmt.Sprintf(", similarity hit (source %.12s, confidence %.2f)", diag.SourceDigest, diag.Confidence)
		}
		fmt.Printf("=== %s (%s) ===\n%s\n", paths[i], header, diag.Text)
	}

	if m, err := c.Metrics(ctx); err == nil {
		fmt.Printf("[server: %d jobs submitted, %.0f%% cache hits, p50 %s, p95 %s]\n",
			m.Submitted, 100*m.HitRate,
			m.LatencyP50.Round(time.Millisecond), m.LatencyP95.Round(time.Millisecond))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "ioagent: %d of %d jobs failed\n", failed, len(ids))
		os.Exit(1)
	}
}

// runStream submits one trace through the streaming ingest path without
// ever loading it: files are scanned once for their canonical content
// digest (so the submission asserts X-Fleet-Digest and a fronting router
// forwards the stream spool-free to the owning node), then streamed;
// stdin is single-pass, so the digest ships as a trailer instead. With
// chunkSize > 0 the trace travels as a resumable upload session.
func runStream(baseURL string, lane api.Lane, tenant string, chunkSize int, args []string) {
	if len(args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: ioagent -server URL -stream [<trace>|-]  (one trace per invocation)")
		os.Exit(2)
	}
	path := "-"
	if len(args) == 1 {
		path = args[0]
	}

	ctx := context.Background()
	// A comma-separated -server list engages cluster mode, exactly like
	// the buffered path: the stream routes client-side to the digest's
	// owner (or the first reachable member for digest-less stdin).
	var c streamAPI
	if members := strings.Split(baseURL, ","); len(members) > 1 {
		cluster, err := client.NewCluster(members)
		check(err)
		c = cluster
	} else {
		c = client.New(baseURL)
	}
	defer c.Close()

	var body io.Reader = os.Stdin
	opts := client.StreamOpts{Lane: lane, Tenant: tenant}
	if path != "-" {
		f, err := os.Open(path)
		check(err)
		defer f.Close()
		// Pass one: learn the digest by streaming the file through the
		// incremental parser — bounded memory regardless of trace size.
		parser := ingest.NewParser(0)
		if _, err := io.Copy(parser, bufio.NewReaderSize(f, 64<<10)); err == nil {
			if _, digest, ferr := parser.Finish(); ferr == nil {
				opts.Digest = digest
			}
		}
		// Pass two: the actual upload (rewindable, so transient failures
		// retry from the start).
		_, err = f.Seek(0, io.SeekStart)
		check(err)
		body = f
	}

	var info api.JobInfo
	var err error
	if chunkSize > 0 {
		info, err = c.SubmitChunked(ctx, body, chunkSize, opts)
	} else {
		info, err = c.SubmitStream(ctx, body, opts)
	}
	check(err)

	diag, err := c.WaitDiagnosis(ctx, info.ID)
	check(err)
	header := fmt.Sprintf("%s, done, %s lane", info.ID, diag.Lane)
	if diag.CacheHit {
		header += ", cache hit"
	}
	if diag.SimilarityHit {
		header += fmt.Sprintf(", similarity hit (source %.12s, confidence %.2f)", diag.SourceDigest, diag.Confidence)
	}
	if opts.Digest != "" {
		header += fmt.Sprintf(", digest %.12s…", opts.Digest)
	}
	fmt.Printf("=== %s (%s) ===\n%s\n", path, header, diag.Text)
}

// loadTrace reads a trace file in any rendering the fleet ingests,
// through the same front door.
func loadTrace(path string) (*darshan.Log, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	log, _, err := ingest.Decode(raw)
	return log, err
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ioagent:", err)
		os.Exit(1)
	}
}
