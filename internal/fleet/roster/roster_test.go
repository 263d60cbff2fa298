package roster_test

// Integration tests for the elastic-cluster layer: each node is booted by
// node.New, with its Manager gossiping over live HTTP. Intervals are
// milliseconds so convergence is fast; assertions poll with a deadline
// instead of assuming lockstep rounds.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/fleettest"
	"ioagent/internal/fleet/node"
	"ioagent/internal/fleet/ring"
	"ioagent/internal/fleet/roster"
)

const testInterval = 20 * time.Millisecond

// startNode boots an elastic node (internal/fleet/node, the wiring
// iofleetd runs) that advertises its own listener and gossips with peers.
func startNode(t *testing.T, replicate int, peers ...string) *node.Node {
	t.Helper()
	return fleettest.Start(t, node.Config{
		Fleet: fleet.Config{SemCache: true},
		Roster: &roster.Config{
			Peers:     peers,
			Interval:  testInterval,
			TTL:       8 * testInterval,
			Replicate: replicate,
			// One fast attempt: gossip tolerates failures, and tests kill
			// nodes on purpose.
			ClientOpts: []client.Option{client.WithRetry(1, time.Millisecond)},
		},
	})
}

func rosterSize(m *roster.Manager) int { return len(m.Snapshot().Members) }

func TestRosterGossipConvergence(t *testing.T) {
	n1 := startNode(t, 0)
	// n2 and n3 know only n1: full membership must arrive by gossip.
	n2 := startNode(t, 0, n1.URL())
	n3 := startNode(t, 0, n1.URL())

	for _, n := range []*node.Node{n1, n2, n3} {
		fleettest.WaitFor(t, "3-member roster on every node", func() bool { return rosterSize(n.Roster) == 3 })
	}

	// The wire view agrees: GET /v1/roster through the SDK.
	c := client.New(n3.URL())
	defer c.Close()
	r, err := c.Roster(context.Background())
	if err != nil {
		t.Fatalf("Roster: %v", err)
	}
	if len(r.Members) != 3 {
		t.Fatalf("wire roster has %d members, want 3", len(r.Members))
	}
	if r.Epoch == 0 {
		t.Error("epoch never bumped despite two joins")
	}
	want := map[string]bool{n1.URL(): true, n2.URL(): true, n3.URL(): true}
	for _, m := range r.Members {
		if !want[m.URL] {
			t.Errorf("unexpected roster member %q", m.URL)
		}
		if m.LastSeen.IsZero() {
			t.Errorf("member %q has no liveness evidence", m.URL)
		}
	}
}

func TestRosterStaticDaemonDisabled(t *testing.T) {
	n := fleettest.Start(t, node.Config{})
	c := client.New(n.URL())
	defer c.Close()

	if _, err := c.Roster(context.Background()); api.ErrorCode(err) != api.CodeRosterDisabled {
		t.Fatalf("static daemon roster error = %v, want %s", err, api.CodeRosterDisabled)
	}

	// The cache endpoints stay available: a static daemon can still be
	// seeded by a departing peer.
	added := time.Now().Add(-2 * time.Second)
	resp, err := c.CachePush(context.Background(), api.CachePushRequest{
		Entries: []api.CacheEntryWire{{Digest: "dig-static", Added: added, Text: "diag"}},
	})
	if err != nil || resp.Received != 1 {
		t.Fatalf("CachePush = %+v, %v; want 1 received", resp, err)
	}
	digests, err := c.CacheDigests(context.Background())
	if err != nil || len(digests) != 1 || digests[0] != "dig-static" {
		t.Fatalf("CacheDigests = %v, %v; want [dig-static]", digests, err)
	}
	if e, ok := n.Pool.CacheEntryFor("dig-static"); !ok || !e.Added.Equal(added) {
		t.Fatalf("ingested entry = %+v, %v; want original TTL clock %v", e, ok, added)
	}
}

// seed inserts n synthetic diagnoses (with similarity vectors) into a
// node's pool, returning the digests. Texts embed the digest so
// cross-node assertions can verify entry identity.
func seed(t *testing.T, n *node.Node, count int, added time.Time) []string {
	t.Helper()
	digests := make([]string, count)
	for i := range digests {
		d := fmt.Sprintf("digest-%04d", i)
		digests[i] = d
		if !n.Pool.CacheIngest(d, "diagnosis for "+d, added) {
			t.Fatalf("seed insert %s failed", d)
		}
		if !n.Pool.SemAdd(d, "darshan feature text "+d) {
			t.Fatalf("seed sem add %s failed", d)
		}
	}
	return digests
}

func TestHandoffOnJoinMovesOwnedDigests(t *testing.T) {
	n1 := startNode(t, 0)
	added := time.Now().Add(-3 * time.Second).Truncate(time.Millisecond)
	digests := seed(t, n1, 64, added)

	n2 := startNode(t, 0, n1.URL())
	fleettest.WaitFor(t, "join to converge", func() bool {
		return rosterSize(n1.Roster) == 2 && rosterSize(n2.Roster) == 2
	})

	// The digests that must arrive on n2 are exactly the ones whose
	// owner moved in the [n1] -> [n1, n2] transition.
	moved := ring.Changed(0, []string{n1.URL()}, []string{n1.URL(), n2.URL()}, digests)
	if len(moved) == 0 {
		t.Fatal("no digests moved on a 1->2 join; ring diff is broken")
	}
	fleettest.WaitFor(t, "moved digests pushed to the new owner", func() bool {
		// The sender counts a push only after the receiver's response, so
		// wait on the counters too, not just entry residency.
		return n2.Pool.Metrics().CacheLen >= len(moved) &&
			n1.Roster.Metrics().EntriesPushed >= int64(len(moved)) &&
			n2.Roster.Metrics().EntriesReceived >= int64(len(moved))
	})

	for _, d := range moved {
		e, ok := n2.Pool.CacheEntryFor(d)
		if !ok {
			t.Fatalf("moved digest %s never arrived on the new owner", d)
		}
		if e.Result.Text != "diagnosis for "+d {
			t.Errorf("digest %s arrived with wrong text %q", d, e.Result.Text)
		}
		if !e.Added.Equal(added) {
			t.Errorf("digest %s TTL clock = %v, want original %v", d, e.Added, added)
		}
		// The similarity vector moved with its diagnosis, and only ever
		// after it (the PR 6 invariant held mid-flight by construction:
		// receivers ingest cache-entry-first).
		if f, ok := n2.Pool.SemFeature(d); !ok || f != "darshan feature text "+d {
			t.Errorf("digest %s has no (or wrong) similarity vector on the new owner: %q, %v", d, f, ok)
		}
	}
	// Sender keeps its copies: handoff bounds staleness by TTL instead
	// of risking a zero-copy window.
	if got := n1.Pool.Metrics().CacheLen; got != len(digests) {
		t.Errorf("sender cache shrank to %d entries, want %d (no eviction on handoff)", got, len(digests))
	}

	hm1, hm2 := n1.Roster.Metrics(), n2.Roster.Metrics()
	if hm1.RingChanges == 0 || hm2.RosterSize != 2 {
		t.Errorf("counters off: %+v / %+v", hm1, hm2)
	}
}

func TestReplicationOnInsertWarmsSuccessor(t *testing.T) {
	n1 := startNode(t, 2)
	n2 := startNode(t, 2, n1.URL())
	fleettest.WaitFor(t, "join to converge", func() bool {
		return rosterSize(n1.Roster) == 2 && rosterSize(n2.Roster) == 2
	})

	// With two members, Successors(d, 2) is both nodes: every insert on
	// n1 must produce a warm copy on n2.
	added := time.Now().Truncate(time.Millisecond)
	for i := 0; i < 8; i++ {
		d := fmt.Sprintf("fresh-%02d", i)
		if !n1.Pool.CacheIngest(d, "diagnosis for "+d, added) {
			t.Fatalf("insert %s failed", d)
		}
	}
	fleettest.WaitFor(t, "replicas to land on the successor", func() bool {
		for i := 0; i < 8; i++ {
			if _, ok := n2.Pool.CacheEntryFor(fmt.Sprintf("fresh-%02d", i)); !ok {
				return false
			}
		}
		// The sender counts a push only after the receiver's response, so
		// the counters trail entry residency by one round-trip.
		return n1.Roster.Metrics().ReplicaPushed >= 8 && n2.Roster.Metrics().ReplicaReceived >= 8
	})

	// Convergence, not ping-pong: the successor's ingest is suppressed,
	// so it must not re-replicate the copies back.
	time.Sleep(10 * testInterval)
	if hm := n2.Roster.Metrics(); hm.ReplicaPushed != 0 {
		t.Errorf("successor re-replicated %d received copies; replication must not bounce", hm.ReplicaPushed)
	}
	if hm := n1.Roster.Metrics(); hm.ReplicaReceived != 0 {
		t.Errorf("origin received %d of its own copies back", hm.ReplicaReceived)
	}
}

func TestMemberExpiryAfterDeath(t *testing.T) {
	n1 := startNode(t, 0)
	n2 := startNode(t, 0, n1.URL())
	fleettest.WaitFor(t, "join to converge", func() bool {
		return rosterSize(n1.Roster) == 2 && rosterSize(n2.Roster) == 2
	})
	epochBefore := n1.Roster.Snapshot().Epoch

	// Kill n2 outright: gossip stops without a goodbye, the listener closes.
	n2.Abort()

	fleettest.WaitFor(t, "dead member to expire from the roster", func() bool {
		return rosterSize(n1.Roster) == 1
	})
	snap := n1.Roster.Snapshot()
	if snap.Members[0].URL != n1.URL() {
		t.Fatalf("surviving roster = %+v, want self only", snap.Members)
	}
	if snap.Epoch <= epochBefore {
		t.Errorf("epoch did not advance on expiry: %d -> %d", epochBefore, snap.Epoch)
	}
}
