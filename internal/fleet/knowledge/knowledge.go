// Package knowledge is the fleet-served knowledge plane: the RAG corpus as
// a first-class, epoch-versioned cluster resource instead of a constant
// compiled into each agent.
//
// A Plane owns the corpus for one node. Three properties distinguish it
// from the embedded index agents use standalone:
//
//   - Ring sharding. With Config.Members set, documents are sharded over
//     the fleet's consistent-hash ring by document key: a node indexes only
//     the chunks of documents it owns (the ring owner plus Replicas-1
//     successors, so every document has a replica and single-node loss
//     never removes a document from the cluster's reach). The serving
//     layer scatter-gathers per-node top-k into a cluster-wide answer.
//   - Epoch-versioned hot swap. Mutations (Upsert) accumulate in a staged
//     epoch — a cloned index plus a delta — and become visible only when
//     Swap promotes the staged epoch atomically. Retrievals in flight at
//     the swap keep reading the epoch they started on; there is no torn
//     state and no retrieval-blocking write lock.
//   - Optional rerank. A Reranker (typically a cheap LLM judge) reorders
//     the top-k between vector search and the agent's self-reflection
//     stage; rerank failures fall back to vector order, never fail the
//     retrieval.
//
// The Plane implements ioagent.Retriever, which is how a fleet pool's
// agents retrieve through it. Mutations are observable through
// Config.OnEvent so internal/fleet/store can journal them; Export and
// Restore round-trip the full state for checkpoints.
package knowledge

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ioagent/internal/fleet/api"
	"ioagent/internal/fleet/ring"
	corpus "ioagent/internal/knowledge"
	"ioagent/internal/vectordb"
)

// ErrNothingStaged is returned by Swap when no Upsert has staged an epoch
// since the last promotion — swapping would republish the current epoch
// under a new version for no reason, so it is refused.
var ErrNothingStaged = errors.New("knowledge: nothing staged to swap")

// EventKind names a corpus mutation observed through Config.OnEvent.
type EventKind string

const (
	// EventUpsert fires on every Upsert call, after the staged epoch has
	// absorbed it. The event carries the exact arguments, so replaying
	// events in order reproduces the staged state.
	EventUpsert EventKind = "upsert"
	// EventSwap fires when Swap promotes the staged epoch; Epoch is the
	// newly current version.
	EventSwap EventKind = "swap"
)

// Event is one corpus mutation notification.
type Event struct {
	Kind   EventKind
	Docs   []vectordb.Document // upserted documents (EventUpsert)
	Remove []string            // removed document keys (EventUpsert)
	Epoch  uint64              // promoted version (EventSwap)
}

// Config tunes a Plane. The zero value serves the built-in corpus,
// unsharded, brute-force, with no reranker.
type Config struct {
	// NodeID is this node's name in Members. Required when Members is set;
	// ignored otherwise.
	NodeID string
	// Members lists every node participating in corpus sharding (the same
	// vocabulary the cluster layer uses for node IDs). Empty disables
	// sharding: the node indexes every document.
	Members []string
	// Replicas is how many nodes index each document (the ring owner plus
	// Replicas-1 successors; default 2, so losing one node never loses a
	// document). Values beyond len(Members) index everywhere.
	Replicas int
	// ANN enables the HNSW graph on the shard index (see vectordb.Options).
	ANN bool
	// Reranker, when set, reorders retrieval results (see Reranker).
	Reranker Reranker
	// OnEvent, if set, observes mutations synchronously from Upsert and
	// Swap — the persistence layer's journaling hook. It runs under the
	// Plane's mutation lock and must not call back into the Plane.
	OnEvent func(Event)
	// Seed is the initial corpus (epoch 1). nil selects the built-in
	// 66-document corpus; an empty non-nil slice starts empty.
	Seed []vectordb.Document
}

// epoch is one immutable corpus version: the full document view plus the
// locally-indexed shard. Readers hold a loaded *epoch for the duration of
// one retrieval; promotion swaps the pointer and never mutates a published
// epoch.
type epoch struct {
	version uint64
	docs    map[string]vectordb.Document
	index   *vectordb.Index
}

// Plane is one node's view of the fleet knowledge corpus. All methods are
// safe for concurrent use; Retrieve never blocks on mutations.
type Plane struct {
	cfg  Config
	ring *ring.Ring // nil when unsharded

	cur atomic.Pointer[epoch]

	// mu guards the staged epoch and its delta bookkeeping.
	mu            sync.Mutex
	staged        *epoch
	stagedAdds    map[string]vectordb.Document
	stagedRemoves map[string]bool

	queries     atomic.Int64
	rerankCalls atomic.Int64
	rerankErrs  atomic.Int64
	// retired* accumulate the search-path counters of epochs that have
	// been swapped out, so Metrics totals survive promotions.
	retiredANN   atomic.Uint64
	retiredExact atomic.Uint64

	latency api.Histogram // retrieval latency, search plus rerank
}

// New builds a Plane serving Config.Seed as epoch 1.
func New(cfg Config) *Plane {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	p := &Plane{cfg: cfg}
	if len(cfg.Members) > 0 {
		p.ring = ring.New(0)
		p.ring.Add(cfg.Members...)
	}
	seed := cfg.Seed
	if seed == nil {
		seed = corpus.Documents()
	}
	ep := &epoch{version: 1, docs: make(map[string]vectordb.Document, len(seed)), index: p.newIndex()}
	for _, d := range seed {
		ep.docs[d.Key] = d
		if p.owned(d.Key) {
			ep.index.Add(d)
		}
	}
	p.cur.Store(ep)
	return p
}

// newIndex builds an empty shard index with the paper's chunking parameters
// (matching knowledge.BuildIndex, so a single-node plane retrieves exactly
// what an embedded agent would).
func (p *Plane) newIndex() *vectordb.Index {
	return vectordb.New(vectordb.Options{ChunkSize: 512, Overlap: 20, ANN: p.cfg.ANN})
}

// owned reports whether this node indexes the document: always when
// unsharded, otherwise when the node is among the key's first Replicas
// ring successors (owner included).
func (p *Plane) owned(key string) bool {
	if p.ring == nil {
		return true
	}
	for _, m := range p.ring.Successors(key, p.cfg.Replicas) {
		if m == p.cfg.NodeID {
			return true
		}
	}
	return false
}

// Retrieve implements ioagent.Retriever: top-k search over the current
// epoch's shard index, reranked when a Reranker is configured. The epoch
// pointer is loaded once, so a concurrent Swap never tears a retrieval.
func (p *Plane) Retrieve(query string, k int) []vectordb.Hit {
	start := time.Now()
	ep := p.cur.Load()
	hits := ep.index.Search(query, k)
	if p.cfg.Reranker != nil && len(hits) > 1 {
		p.rerankCalls.Add(1)
		if reordered, err := p.cfg.Reranker.Rerank(query, hits); err == nil {
			hits = reordered
		} else {
			// Rerank is an ordering refinement, not a correctness gate:
			// fall back to vector order rather than failing the retrieval.
			p.rerankErrs.Add(1)
		}
	}
	p.queries.Add(1)
	p.latency.Observe(time.Since(start))
	return hits
}

// Upsert stages document additions/updates (docs) and removals (remove)
// into the staged epoch, creating it from the current epoch if none exists.
// Staged changes are invisible to Retrieve until Swap promotes them. A
// document with an empty key is rejected.
func (p *Plane) Upsert(docs []vectordb.Document, remove []string) error {
	for _, d := range docs {
		if d.Key == "" {
			return fmt.Errorf("knowledge: upsert: document with empty key")
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.upsertLocked(docs, remove)
	if p.cfg.OnEvent != nil {
		p.cfg.OnEvent(Event{Kind: EventUpsert, Docs: docs, Remove: remove})
	}
	return nil
}

// upsertLocked applies one upsert to the staged epoch without emitting an
// event (shared by Upsert, Restore, and WAL replay). Caller holds p.mu.
func (p *Plane) upsertLocked(docs []vectordb.Document, remove []string) {
	p.stageLocked()
	for _, key := range remove {
		delete(p.staged.docs, key)
		p.staged.index.Remove(key)
		delete(p.stagedAdds, key)
		p.stagedRemoves[key] = true
	}
	for _, d := range docs {
		p.staged.docs[d.Key] = d
		p.staged.index.Remove(d.Key)
		if p.owned(d.Key) {
			p.staged.index.Add(d)
		}
		delete(p.stagedRemoves, d.Key)
		p.stagedAdds[d.Key] = d
	}
}

// stageLocked materializes the staged epoch as a clone of the current one.
// Caller holds p.mu.
func (p *Plane) stageLocked() {
	if p.staged != nil {
		return
	}
	cur := p.cur.Load()
	st := &epoch{
		version: cur.version + 1,
		docs:    make(map[string]vectordb.Document, len(cur.docs)),
		index:   cur.index.Clone(),
	}
	for k, v := range cur.docs {
		st.docs[k] = v
	}
	p.staged = st
	p.stagedAdds = make(map[string]vectordb.Document)
	p.stagedRemoves = make(map[string]bool)
}

// Swap atomically promotes the staged epoch, making every change since the
// last promotion visible to new retrievals at once. Retrievals in flight
// finish on the epoch they loaded. Returns the promoted version, or
// ErrNothingStaged when no Upsert preceded it.
func (p *Plane) Swap() (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.staged == nil {
		return 0, ErrNothingStaged
	}
	version := p.promoteLocked(p.staged.version)
	if p.cfg.OnEvent != nil {
		p.cfg.OnEvent(Event{Kind: EventSwap, Epoch: version})
	}
	return version, nil
}

// promoteLocked publishes the staged epoch under the given version and
// retires the old epoch's search counters. Caller holds p.mu and has
// checked p.staged != nil.
func (p *Plane) promoteLocked(version uint64) uint64 {
	old := p.cur.Load()
	st := old.index.Stats()
	p.retiredANN.Add(st.ANNQueries)
	p.retiredExact.Add(st.ExactQueries)
	p.staged.version = version
	p.cur.Store(p.staged)
	p.staged = nil
	p.stagedAdds, p.stagedRemoves = nil, nil
	return version
}

// Epoch returns the current (promoted) corpus version.
func (p *Plane) Epoch() uint64 { return p.cur.Load().version }

// Doc returns a document from the current epoch's full corpus view (owned
// or not) by key.
func (p *Plane) Doc(key string) (vectordb.Document, bool) {
	d, ok := p.cur.Load().docs[key]
	return d, ok
}

// Metrics returns a snapshot of plane health. Query counters and the
// retrieval latency cover all epochs served; RetrievalP95 spans vector
// search plus rerank.
func (p *Plane) Metrics() api.KnowledgeStatus {
	ep := p.cur.Load()
	st := ep.index.Stats()
	m := api.KnowledgeStatus{
		Epoch:        ep.version,
		Docs:         len(ep.docs),
		OwnedDocs:    ep.index.Docs(),
		Queries:      p.queries.Load(),
		ANNQueries:   p.retiredANN.Load() + st.ANNQueries,
		ExactQueries: p.retiredExact.Load() + st.ExactQueries,
		RerankCalls:  p.rerankCalls.Load(),
		RerankErrors: p.rerankErrs.Load(),
	}
	p.mu.Lock()
	m.StagedOps = len(p.stagedAdds) + len(p.stagedRemoves)
	p.mu.Unlock()
	if cr, ok := p.cfg.Reranker.(interface{ CostUSD() float64 }); ok {
		m.RerankCostUSD = cr.CostUSD()
	}
	m.RetrievalBuckets = p.latency.Snapshot()
	m.RetrievalP95 = m.RetrievalBuckets.Quantile(0.95)
	return m
}

// State is the serializable form of a Plane: the promoted epoch plus any
// staged-but-unswapped delta, so a checkpoint taken mid-stage loses
// nothing. Produced by Export, consumed by Restore.
type State struct {
	Epoch        uint64              `json:"epoch"`
	Docs         []vectordb.Document `json:"docs"`
	StagedDocs   []vectordb.Document `json:"staged_docs,omitempty"`
	StagedRemove []string            `json:"staged_remove,omitempty"`
}

// Export snapshots the plane's full state: the promoted corpus (sorted by
// key for deterministic serialization) and the staged delta.
func (p *Plane) Export() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	ep := p.cur.Load()
	s := State{Epoch: ep.version, Docs: sortedDocs(ep.docs)}
	s.StagedDocs = sortedDocs(p.stagedAdds)
	for key := range p.stagedRemoves {
		s.StagedRemove = append(s.StagedRemove, key)
	}
	sort.Strings(s.StagedRemove)
	return s
}

func sortedDocs(m map[string]vectordb.Document) []vectordb.Document {
	if len(m) == 0 {
		return nil
	}
	out := make([]vectordb.Document, 0, len(m))
	for _, d := range m {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Restore replaces the plane's state with a previously Exported one,
// rebuilding the shard index and re-staging any staged delta. No events
// are emitted — Restore replays persisted state, it does not create new
// history. Intended for boot-time recovery, before the plane serves
// retrievals.
func (p *Plane) Restore(s State) {
	ep := &epoch{version: s.Epoch, docs: make(map[string]vectordb.Document, len(s.Docs)), index: p.newIndex()}
	for _, d := range s.Docs {
		ep.docs[d.Key] = d
		if p.owned(d.Key) {
			ep.index.Add(d)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cur.Store(ep)
	p.staged = nil
	p.stagedAdds, p.stagedRemoves = nil, nil
	if len(s.StagedDocs) > 0 || len(s.StagedRemove) > 0 {
		p.upsertLocked(s.StagedDocs, s.StagedRemove)
	}
}

// ReplayUpsert re-applies a journaled upsert without emitting an event.
// Replay is idempotent: re-staging an already-staged document overwrites
// it in place.
func (p *Plane) ReplayUpsert(docs []vectordb.Document, remove []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.upsertLocked(docs, remove)
}

// ReplaySwap re-applies a journaled promotion without emitting an event.
// A promotion at or below the current version is stale — the snapshot
// already covered it, and therefore also covered every upsert journaled
// before it, so any delta those upserts re-staged is discarded. A newer
// version promotes the staged epoch, or — when nothing is staged —
// republishes the current corpus under the journaled version.
func (p *Plane) ReplaySwap(version uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.cur.Load()
	if version <= cur.version {
		p.staged = nil
		p.stagedAdds, p.stagedRemoves = nil, nil
		return
	}
	if p.staged != nil {
		p.promoteLocked(version)
		return
	}
	p.cur.Store(&epoch{version: version, docs: cur.docs, index: cur.index})
}
