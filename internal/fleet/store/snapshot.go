package store

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ioagent/internal/fleet/knowledge"
)

// The three snapshot files in a state directory. knowledge.json sits
// beside knowledge.wal, deliberately apart from the job files: corpus
// epochs and job lifecycles have different write rates and checkpoint
// triggers, and an operator may wipe one without losing the other.
const (
	snapshotName          = "snapshot.json"  // result cache
	semIndexName          = "semindex.json"  // similarity index (feature text per cached digest)
	knowledgeSnapshotName = "knowledge.json" // knowledge-plane corpus
)

// snapshotVersion guards the on-disk format of every snapshot file. A
// reader finding a version it does not understand ignores the file: a lost
// cache or similarity index costs recomputation, and the logs alone
// preserve correctness.
const snapshotVersion = 1

// versioned is the header every snapshot document embeds; it is the only
// part of a document the codec itself reads or writes.
type versioned struct {
	Version int `json:"version"`
}

func (v *versioned) header() *versioned { return v }

// SnapshotEntry is one persisted result-cache entry. Only the canonical
// report text is stored: the parsed Report is reconstructed on load with
// llm.ParseReport, and per-fragment pipeline intermediates are not
// persisted (they exist for introspection of a live run, not for serving).
type SnapshotEntry struct {
	Digest string    `json:"digest"`
	Text   string    `json:"text"`
	Added  time.Time `json:"added"`
}

// snapshotDoc is the on-disk document of snapshot.json (E = SnapshotEntry)
// and semindex.json (E = fleet.SemEntry).
type snapshotDoc[E any] struct {
	versioned
	SavedAt time.Time `json:"saved_at"`
	Entries []E       `json:"entries"`
}

// knowledgeSnapshot is the on-disk document of knowledge.json.
type knowledgeSnapshot struct {
	versioned
	State knowledge.State `json:"state"`
}

// readSnapshot loads the snapshot document at path. A missing file yields
// the zero document; so does a corrupt or version-incompatible one, with a
// warning instead of a failed recovery. Stale temp files of an interrupted
// write are removed on the way.
func readSnapshot[D any, P interface {
	*D
	header() *versioned
}](path, label string) (doc D, warning string, err error) {
	removeStaleTemps(path)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return doc, "", nil
	}
	if err != nil {
		return doc, "", fmt.Errorf("store: read %s: %w", label, err)
	}
	if uerr := json.Unmarshal(data, P(&doc)); uerr != nil {
		var zero D
		return zero, fmt.Sprintf("%s: ignoring corrupt file: %v", label, uerr), nil
	}
	if v := P(&doc).header().Version; v != snapshotVersion {
		var zero D
		return zero, fmt.Sprintf("%s: ignoring unsupported version %d", label, v), nil
	}
	return doc, "", nil
}

// writeSnapshot stamps doc with the current version and atomically
// replaces the file at path with it (see atomicWrite).
func writeSnapshot(path, label string, doc interface{ header() *versioned }, sync bool) error {
	doc.header().Version = snapshotVersion
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("store: marshal %s: %w", label, err)
	}
	if err := atomicWrite(path, data, sync); err != nil {
		return fmt.Errorf("store: write %s: %w", label, err)
	}
	return nil
}
