package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"ioagent/internal/fleet/knowledge"
	"ioagent/internal/vectordb"
)

// Knowledge-plane persistence lives in its own sidecar files —
// knowledge.wal (mutation journal) and knowledge.json (corpus snapshot) —
// deliberately separate from the job journal: corpus epochs and job
// lifecycles have different write rates, different compaction triggers,
// and an operator may wipe one without losing the other.
const (
	knowledgeWALName         = "knowledge.wal"
	knowledgeSnapshotName    = "knowledge.json"
	knowledgeSnapshotVersion = 1
)

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

// knowledgeSnapshot is the on-disk form of knowledge.json.
type knowledgeSnapshot struct {
	Version int             `json:"version"`
	State   knowledge.State `json:"state"`
}

// KnowledgeStore persists one node's knowledge plane: every Upsert and
// Swap is journaled write-ahead through the plane's OnEvent hook, and
// Checkpoint collapses the journal into an atomic snapshot. Like Store it
// survives SIGKILL — recovery replays the snapshot plus the journal tail,
// tolerating a torn final line. All methods are safe for concurrent use.
type KnowledgeStore struct {
	dir  string
	opts Options

	mu       sync.Mutex
	wal      *os.File
	appended int

	// Recovered state, consumed by Replay.
	snap    *knowledge.State
	records []krecord
}

// OpenKnowledge attaches to (creating if needed) the state directory and
// recovers persisted knowledge state: the snapshot is loaded, the WAL is
// scanned, and a torn or corrupt WAL tail is truncated away (warnings go
// to Options.Logf). Call Replay to apply the recovered state to a plane.
func OpenKnowledge(dir string, opts Options) (*KnowledgeStore, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create state dir: %w", err)
	}
	ks := &KnowledgeStore{dir: dir, opts: opts}

	if data, err := os.ReadFile(ks.path(knowledgeSnapshotName)); err == nil {
		var snap knowledgeSnapshot
		switch uerr := json.Unmarshal(data, &snap); {
		case uerr != nil:
			opts.Logf("store: ignoring corrupt knowledge snapshot: %v", uerr)
		case snap.Version != knowledgeSnapshotVersion:
			opts.Logf("store: ignoring knowledge snapshot with unknown version %d", snap.Version)
		default:
			ks.snap = &snap.State
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: read knowledge snapshot: %w", err)
	}

	walPath := ks.path(knowledgeWALName)
	valid := int64(0)
	if data, err := os.ReadFile(walPath); err == nil {
		for off := 0; off < len(data); {
			nl := bytes.IndexByte(data[off:], '\n')
			if nl < 0 {
				opts.Logf("store: knowledge wal: dropping torn tail (%d bytes)", len(data)-off)
				break
			}
			var rec krecord
			if uerr := json.Unmarshal(data[off:off+nl], &rec); uerr != nil {
				opts.Logf("store: knowledge wal: dropping corrupt tail at offset %d: %v", off, uerr)
				break
			}
			switch rec.Op {
			case opKnowledgeUpsert, opKnowledgeSwap:
				ks.records = append(ks.records, rec)
			default:
				opts.Logf("store: knowledge wal: ignoring unknown op %q at offset %d", rec.Op, off)
			}
			off += nl + 1
			valid = int64(off)
		}
		if valid < int64(len(data)) {
			if terr := os.Truncate(walPath, valid); terr != nil {
				return nil, fmt.Errorf("store: truncate knowledge wal tail: %w", terr)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: read knowledge wal: %w", err)
	}

	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open knowledge wal: %w", err)
	}
	ks.wal = f
	return ks, nil
}

func (ks *KnowledgeStore) path(name string) string { return ks.dir + string(os.PathSeparator) + name }

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
	if ks.wal == nil {
		ks.opts.Logf("store: knowledge event after close: dropped")
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		ks.opts.Logf("store: marshal knowledge record: %v", err)
		return
	}
	line = append(line, '\n')
	if _, err := ks.wal.Write(line); err != nil {
		ks.opts.Logf("store: append knowledge wal: %v", err)
		return
	}
	if ks.opts.Fsync == FsyncAlways {
		if err := ks.wal.Sync(); err != nil {
			ks.opts.Logf("store: fsync knowledge wal: %v", err)
		}
	}
	ks.appended++
}

// Checkpoint snapshots the plane's full state (including any staged,
// unswapped delta) to knowledge.json and truncates the WAL the snapshot
// now covers. The snapshot write is atomic; a crash between the write and
// the truncation only leaves covered records, which replay idempotently.
func (ks *KnowledgeStore) Checkpoint(p *knowledge.Plane) error {
	state := p.Export()
	data, err := json.Marshal(knowledgeSnapshot{Version: knowledgeSnapshotVersion, State: state})
	if err != nil {
		return fmt.Errorf("store: marshal knowledge snapshot: %w", err)
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if ks.wal == nil {
		return ErrClosed
	}
	if err := atomicWrite(ks.path(knowledgeSnapshotName), data, ks.opts.Fsync != FsyncOff); err != nil {
		return fmt.Errorf("store: write knowledge snapshot: %w", err)
	}
	if err := atomicWrite(ks.path(knowledgeWALName), nil, ks.opts.Fsync != FsyncOff); err != nil {
		return fmt.Errorf("store: truncate knowledge wal: %w", err)
	}
	f, err := os.OpenFile(ks.path(knowledgeWALName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen knowledge wal: %w", err)
	}
	ks.wal.Close()
	ks.wal = f
	ks.appended = 0
	return nil
}

// Appended returns the WAL records written since the last checkpoint —
// the daemon's trigger for periodic checkpointing.
func (ks *KnowledgeStore) Appended() int {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.appended
}

// Close syncs and closes the WAL. Events arriving after Close are dropped
// with a log line.
func (ks *KnowledgeStore) Close() error {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if ks.wal == nil {
		return nil
	}
	if ks.opts.Fsync != FsyncOff {
		if err := ks.wal.Sync(); err != nil {
			ks.wal.Close()
			ks.wal = nil
			return fmt.Errorf("store: fsync knowledge wal on close: %w", err)
		}
	}
	err := ks.wal.Close()
	ks.wal = nil
	return err
}
