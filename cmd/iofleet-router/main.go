// Command iofleet-router fronts a multi-node iofleetd fleet: one HTTP
// endpoint that speaks the versioned wire API (internal/fleet/api)
// exactly like a single daemon, while sharding the digest space across
// the -nodes list with a consistent-hash ring and failing work over to
// ring successors when a node is down.
//
// The router is stateless: ownership is a pure function of the member
// list, so routers restart freely and can be replicated behind a load
// balancer. Durability lives in the daemons (iofleetd -state-dir); the
// router's job is placement, failover, and aggregation.
//
// Usage:
//
//	iofleet-router -nodes URL[,URL...] [-addr :8090] [-id router]
//	               [-vnodes 128] [-max-body 67108864]
//	               [-spool-dir DIR] [-spool-max 67108864]
//	               [-node-retries 2] [-node-retry-delay 100ms]
//	               [-roster-refresh 0s]
//
// Endpoints (same contract and error envelopes as iofleetd):
//
//	POST /v1/jobs[?lane=...&tenant=...]  forwarded to the ring owner of
//	                            the trace's canonical content digest; on a
//	                            down owner, to the next ring successor
//	                            (idempotent by digest)
//	POST /v1/jobs/stream        with X-Fleet-Digest: piped straight to the
//	                            digest's owner, zero spool; without it:
//	                            spooled to disk within -spool-max, then
//	                            forwarded by the trailer's digest, or by
//	                            the one the router derives when none came
//	POST /v1/uploads            opened on the claimed digest's owner (or
//	                            the first reachable node)
//	PATCH|GET|DELETE /v1/uploads/{id}, POST /v1/uploads/{id}/complete
//	                            forwarded to the node named by the session
//	                            ID's node prefix
//	GET  /v1/jobs               merged job listing across reachable nodes
//	GET  /v1/jobs/{id}          forwarded to the node named by the ID's
//	                            node prefix (iofleetd -node-id)
//	GET  /v1/jobs/{id}/diagnosis forwarded likewise; text/plain honored
//	GET  /metrics               cluster-wide aggregate (JSON; Prometheus
//	                            text exposition with "Accept: text/plain")
//	GET  /v1/cluster            per-node health roster
//	GET  /healthz               liveness probe for the router itself
//
// Run the daemons with distinct -node-id values: that is what routes job
// lookups back to the accepting node. All routers and cluster-mode SDK
// clients of one fleet must agree on -nodes and -vnodes.
//
// Against an elastic fleet (iofleetd -advertise/-peers), set
// -roster-refresh: -nodes then only seeds discovery, and the router
// follows the live roster — daemons that join are routed to and daemons
// that leave are dropped without restarting the router. Poll failures
// keep the last known-good member list.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/ring"
	"ioagent/internal/fleet/router"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	id := flag.String("id", "router", "router identity (X-Fleet-Node on responses, X-Fleet-Forwarded-By on forwarded requests)")
	nodes := flag.String("nodes", "", "comma-separated iofleetd base URLs (required), e.g. http://10.0.0.1:8080,http://10.0.0.2:8080")
	vnodes := flag.Int("vnodes", ring.DefaultReplicas, "consistent-hash virtual nodes per member (all routers and cluster clients must agree)")
	maxBody := flag.Int64("max-body", 64<<20, "max trace upload size in bytes (exceeding it returns trace_too_large)")
	spoolDir := flag.String("spool-dir", "", "directory for temporary spools of streaming submissions without X-Fleet-Digest (default: OS temp dir)")
	spoolMax := flag.Int64("spool-max", 0, "max bytes spooled per header-less stream (0 = -max-body); digest-asserted streams never spool")
	nodeRetries := flag.Int("node-retries", 2, "attempts per node per forwarded call before failing over to the ring successor")
	nodeRetryDelay := flag.Duration("node-retry-delay", 100*time.Millisecond, "backoff between per-node attempts")
	rosterRefresh := flag.Duration("roster-refresh", 0, "poll the fleet's live roster at this interval and reroute over it (0 = static -nodes list)")
	flag.Parse()

	var members []string
	for _, m := range strings.Split(*nodes, ",") {
		if m = strings.TrimSpace(m); m != "" {
			members = append(members, m)
		}
	}
	if len(members) == 0 {
		log.Fatal("iofleet-router: -nodes is required (comma-separated iofleetd base URLs)")
	}

	rt, err := router.New(router.Config{
		ID:       *id,
		Members:  members,
		Replicas: *vnodes,
		MaxBody:  *maxBody,
		SpoolDir: *spoolDir,
		SpoolMax: *spoolMax,
		ClientOptions: []client.Option{
			client.WithRetry(*nodeRetries, *nodeRetryDelay),
		},
		RosterRefresh: *rosterRefresh,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	// Listen explicitly (rather than ListenAndServe) so ":0" resolves to a
	// real port in the startup log — the e2e smoke depends on it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: rt.Handler()}

	shutdown := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("iofleet-router: shutting down")
		if err := srv.Shutdown(context.Background()); err != nil {
			log.Printf("iofleet-router: shutdown: %v", err)
		}
		close(shutdown)
	}()
	log.Printf("iofleet-router: listening on %s as %s (%d nodes, %d vnodes)", ln.Addr(), *id, len(members), *vnodes)
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-shutdown
}
