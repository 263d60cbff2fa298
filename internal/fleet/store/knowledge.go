package store

import (
	"errors"
	"path/filepath"
	"sync"

	"ioagent/internal/fleet/knowledge"
	"ioagent/internal/vectordb"
)

// knowledgeWALName is the knowledge plane's mutation journal; its
// snapshot is knowledge.json (see snapshot.go).
const knowledgeWALName = "knowledge.wal"

// Knowledge WAL record operations: one upsert batch, one epoch promotion.
const (
	opKnowledgeUpsert = "kdoc"
	opKnowledgeSwap   = "kswap"
)

// krecord is one knowledge WAL line.
type krecord struct {
	Op     string              `json:"op"`
	Docs   []vectordb.Document `json:"docs,omitempty"`
	Remove []string            `json:"remove,omitempty"`
	Epoch  uint64              `json:"epoch,omitempty"`
}

// KnowledgeStore persists one node's knowledge plane: every Upsert and
// Swap is journaled write-ahead through the plane's OnEvent hook, and
// Checkpoint collapses the journal into an atomic snapshot. Like Store it
// survives SIGKILL — recovery replays the snapshot plus the journal tail,
// tolerating a torn final line. All methods are safe for concurrent use.
type KnowledgeStore struct {
	dir  string
	opts Options

	// ckpt serialises checkpoints: a checkpoint's cut is an offset into
	// the very file its rewrite replaces. Taken before mu, never under it.
	ckpt sync.Mutex
	mu   sync.Mutex
	log  *recordLog // knowledge.wal

	// Recovered state, consumed by Replay.
	snap    *knowledge.State
	records []krecord
}

// OpenKnowledge attaches to (creating if needed) the state directory and
// recovers persisted knowledge state: the snapshot is loaded, the WAL is
// scanned, and a torn or corrupt WAL tail is truncated away (warnings go
// to Options.Logf). Call Replay to apply the recovered state to a plane.
func OpenKnowledge(dir string, opts Options) (*KnowledgeStore, error) {
	opts, err := opts.prepare(dir)
	if err != nil {
		return nil, err
	}
	ks := &KnowledgeStore{dir: dir, opts: opts}

	snap, warn, err := readSnapshot[knowledgeSnapshot](filepath.Join(dir, knowledgeSnapshotName), "knowledge snapshot")
	if err != nil {
		return nil, err
	}
	if warn != "" {
		opts.Logf("store: %s", warn)
	}
	if snap.Version == snapshotVersion { // the zero document when none was loaded
		ks.snap = &snap.State
	}
	var tail string
	ks.log, tail, err = openRecordLog(filepath.Join(dir, knowledgeWALName), "knowledge wal", opts.Fsync, func(off int, rec krecord, _ []byte) {
		switch rec.Op {
		case opKnowledgeUpsert, opKnowledgeSwap:
			ks.records = append(ks.records, rec)
		default:
			opts.Logf("store: knowledge wal: ignoring unknown op %q at offset %d", rec.Op, off)
		}
	})
	if err != nil {
		return nil, err
	}
	if tail != "" {
		opts.Logf("store: %s", tail)
	}
	return ks, nil
}

// Replay applies the recovered snapshot and journal tail to the plane, in
// write order, without emitting new events. Idempotent against records the
// snapshot already covers (stale promotions discard their staged delta).
// Call it once, after New-ing the plane and before it serves retrievals —
// and before wiring OnEvent, or replay itself would be re-journaled.
func (ks *KnowledgeStore) Replay(p *knowledge.Plane) {
	ks.mu.Lock()
	snap, records := ks.snap, ks.records
	ks.mu.Unlock()
	if snap != nil {
		p.Restore(*snap)
	}
	for _, rec := range records {
		switch rec.Op {
		case opKnowledgeUpsert:
			p.ReplayUpsert(rec.Docs, rec.Remove)
		case opKnowledgeSwap:
			p.ReplaySwap(rec.Epoch)
		}
	}
}

// HasRecovered reports whether Open found any persisted knowledge state
// (snapshot or journal records) to replay.
func (ks *KnowledgeStore) HasRecovered() bool {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.snap != nil || len(ks.records) > 0
}

// OnEvent journals one plane mutation; pass it as the plane's
// Config.OnEvent. The append is synchronous — with FsyncAlways an upsert
// is on stable storage before Upsert returns to the HTTP handler — and
// append failures are logged, never surfaced, because event hooks cannot
// fail the mutation that already happened.
func (ks *KnowledgeStore) OnEvent(e knowledge.Event) {
	var rec krecord
	switch e.Kind {
	case knowledge.EventUpsert:
		rec = krecord{Op: opKnowledgeUpsert, Docs: e.Docs, Remove: e.Remove}
	case knowledge.EventSwap:
		rec = krecord{Op: opKnowledgeSwap, Epoch: e.Epoch}
	default:
		return
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if _, err := ks.log.append(rec); errors.Is(err, ErrClosed) {
		ks.opts.Logf("store: knowledge event after close: dropped")
	} else if err != nil {
		ks.opts.Logf("%v", err)
	}
}

// Checkpoint snapshots the plane's full state (including any staged,
// unswapped delta) to knowledge.json and drops the WAL records the
// snapshot covers; a store with nothing journaled since the last
// checkpoint skips itself. The cut is the WAL's end offset taken BEFORE
// the export: a record below it was appended under the plane's mutation
// lock after its mutation applied, so the export — which takes that lock
// afterwards — contains it. Everything at or above the cut is carried
// over, covered by the snapshot or not: replay is idempotent, which is
// also why a crash between the snapshot's rename and the rewrite is safe.
func (ks *KnowledgeStore) Checkpoint(p *knowledge.Plane) error {
	return ks.checkpoint(p, false)
}

// FinalCheckpoint is Checkpoint with the skip disabled, for the drain
// path: it also collapses records recovered at boot and never re-covered.
func (ks *KnowledgeStore) FinalCheckpoint(p *knowledge.Plane) error {
	return ks.checkpoint(p, true)
}

func (ks *KnowledgeStore) checkpoint(p *knowledge.Plane, force bool) error {
	ks.ckpt.Lock()
	defer ks.ckpt.Unlock()
	ks.mu.Lock()
	cut, clean, closed := ks.log.size, ks.log.n == 0, ks.log.f == nil
	ks.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if clean && !force {
		return nil
	}
	doc := &knowledgeSnapshot{State: p.Export()}
	if err := writeSnapshot(filepath.Join(ks.dir, knowledgeSnapshotName), "knowledge snapshot", doc, ks.opts.Fsync != FsyncOff); err != nil {
		return err
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.log.rewrite(nil, cut)
}

// Close syncs and closes the WAL. Events arriving after Close are dropped
// with a log line.
func (ks *KnowledgeStore) Close() error {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.log.close()
}
