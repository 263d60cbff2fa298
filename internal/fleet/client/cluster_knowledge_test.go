package client_test

import (
	"context"
	"testing"
	"time"

	"ioagent/internal/fleet"
	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/client"
	"ioagent/internal/fleet/fleettest"
	"ioagent/internal/fleet/knowledge"
	"ioagent/internal/fleet/node"
	"ioagent/internal/vectordb"
)

func knowledgeSeed() []vectordb.Document {
	return []vectordb.Document{
		{Key: "kb-small-write", Text: "Many small writes below the stripe size collapse bandwidth; aggregate into larger sequential writes."},
		{Key: "kb-metadata", Text: "Metadata-heavy workloads with thousands of opens overload the metadata server."},
		{Key: "kb-stripe", Text: "Stripe alignment avoids read-modify-write cycles on parallel file systems."},
		{Key: "kb-collective", Text: "Collective buffering aggregates small non-contiguous accesses into large contiguous ones."},
	}
}

// startKnowledgeNodes boots daemons whose pools carry ring-sharded
// knowledge planes: Replicas 1 so each document is indexed by exactly one
// node and the cluster search genuinely merges shards.
func startKnowledgeNodes(t *testing.T, ids ...string) []*node.Node {
	t.Helper()
	nodes := make([]*node.Node, len(ids))
	for i, id := range ids {
		nodes[i] = fleettest.Start(t, node.Config{
			Fleet:     fleet.Config{Workers: 1, NodeID: id},
			Knowledge: &knowledge.Config{Members: ids, Replicas: 1, Seed: knowledgeSeed()},
		})
	}
	return nodes
}

// TestClusterKnowledgeShardedSearchAndSwap drives the fleet-level corpus
// lifecycle: sharded status aggregation, scatter-gathered search across
// shards, broadcast upsert + swap, and the epoch-skew health signal when
// a swap reaches part of the fleet only.
func TestClusterKnowledgeShardedSearchAndSwap(t *testing.T) {
	nodes := startKnowledgeNodes(t, "n1", "n2")
	cl := clusterOf(t, nodes)
	ctx := context.Background()

	// Sharding invariant: every node sees the full corpus view, the owned
	// shards partition it exactly (Replicas 1), and the aggregate reports
	// both numbers.
	ks, err := cl.KnowledgeStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Epoch != 1 || ks.Docs != 4 || ks.OwnedDocs != 4 {
		t.Fatalf("aggregate status = %+v, want epoch 1, 4 docs, 4 owned across the fleet", ks)
	}
	perNode := 0
	for _, n := range nodes {
		m := n.Pool.Knowledge().Metrics()
		if m.Docs != 4 {
			t.Fatalf("node %s full view = %d docs, want 4", n.ID, m.Docs)
		}
		if m.OwnedDocs == 4 {
			t.Fatalf("node %s owns the whole corpus; sharding is not in effect", n.ID)
		}
		perNode += m.OwnedDocs
	}
	if perNode != 4 {
		t.Fatalf("shards cover %d docs, want a partition of 4", perNode)
	}

	// Scatter-gather merges shards: a broad query must surface documents
	// that no single node indexes together.
	sr, err := cl.KnowledgeSearch(ctx, api.KnowledgeSearchRequest{
		Query: "small writes stripe alignment metadata collective buffering",
	})
	if err != nil {
		t.Fatal(err)
	}
	docsSeen := map[string]bool{}
	for _, h := range sr.Hits {
		docsSeen[h.Key] = true
	}
	if len(docsSeen) != 4 || sr.Epoch != 1 {
		t.Fatalf("merged search saw %d distinct docs at epoch %d, want all 4 at epoch 1", len(docsSeen), sr.Epoch)
	}

	// Broadcast a staged doc and promote it everywhere.
	if err := cl.KnowledgeUpsert(ctx, api.KnowledgeUpsertRequest{
		Docs: []api.KnowledgeDoc{{Key: "kb-burst", Text: "Burst buffer drain contention stalls checkpoints during maintenance."}},
	}); err != nil {
		t.Fatal(err)
	}
	epoch, err := cl.KnowledgeSwap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("broadcast swap epoch = %d, want 2", epoch)
	}
	sr, err = cl.KnowledgeSearch(ctx, api.KnowledgeSearchRequest{Query: "burst buffer drain contention checkpoint"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range sr.Hits {
		found = found || h.Key == "kb-burst"
	}
	if !found || sr.Epoch != 2 {
		t.Fatalf("post-swap merged search (epoch %d) missed the new document", sr.Epoch)
	}

	// Converged fleet: health rows carry the epoch, no skew.
	h := cl.Health(ctx)
	for _, row := range h.Nodes {
		if row.KnowledgeEpoch != 2 {
			t.Fatalf("node %s health epoch = %d, want 2", row.Node, row.KnowledgeEpoch)
		}
	}
	if h.KnowledgeEpochSkew {
		t.Fatal("converged fleet reports epoch skew")
	}

	// A swap that reaches one node only must surface as skew.
	c1 := client.New(nodes[0].URL(), client.WithRetry(1, time.Millisecond))
	t.Cleanup(c1.Close)
	if _, err := c1.KnowledgeUpsert(ctx, api.KnowledgeUpsertRequest{Remove: []string{"kb-burst"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.KnowledgeSwap(ctx); err != nil {
		t.Fatal(err)
	}
	if h := cl.Health(ctx); !h.KnowledgeEpochSkew {
		t.Fatal("partial swap not reported as knowledge epoch skew")
	}
}
