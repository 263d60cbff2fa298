// Package fleettest boots real nodes (internal/fleet/node, the wiring
// iofleetd runs) inside a Go test: loopback listener, simulated model,
// teardown registered with the test.
package fleettest

import (
	"net"
	"sync"
	"testing"
	"time"

	"ioagent/internal/fleet"
	"ioagent/internal/fleet/node"
	"ioagent/internal/knowledge"
	"ioagent/internal/llm"
)

// index is built once per test binary: corpus embedding dominates pool
// construction and is identical (and read-only) across nodes.
var index = sync.OnceValue(knowledge.BuildIndex)

// Start boots a node on 127.0.0.1:0 and closes it when the test ends (a
// no-op if the test already closed or aborted it). A nil LLM selects the
// simulator, a nil agent index the shared one, zero workers two.
func Start(t testing.TB, cfg node.Config) *node.Node {
	t.Helper()
	if cfg.LLM == nil {
		cfg.LLM = llm.NewSim()
	}
	if cfg.Fleet.Agent.Index == nil {
		cfg.Fleet.Agent.Index = index()
	}
	if cfg.Fleet.Workers == 0 {
		cfg.Fleet.Workers = 2
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(cfg, ln)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// StartCluster boots one static node per id.
func StartCluster(t testing.TB, ids ...string) []*node.Node {
	t.Helper()
	nodes := make([]*node.Node, len(ids))
	for i, id := range ids {
		nodes[i] = Start(t, node.Config{Fleet: fleet.Config{NodeID: id}})
	}
	return nodes
}

// URLs lists the nodes' base URLs, in order — a member list.
func URLs(nodes []*node.Node) []string {
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.URL()
	}
	return urls
}

// WaitFor polls cond until it holds, failing the test after 10 s.
func WaitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}
