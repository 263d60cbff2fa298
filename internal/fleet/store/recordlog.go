package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// recordLog is the one newline-delimited JSON record log in the package:
// journal.wal and knowledge.wal are both one of these. A record is
// durable once its line, newline included, is in the file; a crash
// mid-append leaves a torn final line, which the next open cuts off. The
// log does no locking: its owner's mutex guards every call.
type recordLog struct {
	path  string
	label string // names the file in warnings and errors
	fsync FsyncMode
	f     *os.File // nil once closed
	size  int64    // file length, the offset the next append lands at
	n     int      // records appended since open that no rewrite has seen
}

// openRecordLog reads the log at path (a missing file is an empty log),
// hands every complete record to apply in file order — off is the line's
// offset, line is only valid during the call — stops at the first line
// that is torn (no newline) or is not a JSON R, truncates the file there,
// and opens it for appending. tail is the warning for a dropped tail, ""
// when the file was whole. Stale temp files of an interrupted rewrite are
// removed on the way.
func openRecordLog[R any](path, label string, fsync FsyncMode, apply func(off int, rec R, line []byte)) (l *recordLog, tail string, err error) {
	removeStaleTemps(path)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, "", fmt.Errorf("store: read %s: %w", label, err)
	}
	valid := 0
	for valid < len(data) {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			tail = fmt.Sprintf("%s: dropping torn tail (%d bytes)", label, len(data)-valid)
			break
		}
		line := data[valid : valid+nl]
		var rec R
		if uerr := json.Unmarshal(line, &rec); uerr != nil {
			tail = fmt.Sprintf("%s: dropping corrupt tail at offset %d: %v", label, valid, uerr)
			break
		}
		apply(valid, rec, line)
		valid += nl + 1
	}
	if valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, "", fmt.Errorf("store: truncate %s tail: %w", label, err)
		}
	}
	// Read-write: rewrite reads back the records it has to keep.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, "", fmt.Errorf("store: open %s: %w", label, err)
	}
	return &recordLog{path: path, label: label, fsync: fsync, f: f, size: int64(valid)}, tail, nil
}

// append frames rec as one line and writes it, fsyncing under FsyncAlways
// (FsyncBatch and FsyncOff leave it to the page cache until a rewrite or
// close). It returns the line as written, for owners that retain lines.
func (l *recordLog) append(rec any) ([]byte, error) {
	if l.f == nil {
		return nil, ErrClosed
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: marshal %s record: %w", l.label, err)
	}
	line = append(line, '\n')
	n, err := l.f.Write(line)
	l.size += int64(n)
	if err != nil {
		return nil, fmt.Errorf("store: append %s: %w", l.label, err)
	}
	l.n++
	if l.fsync == FsyncAlways {
		if err := l.f.Sync(); err != nil {
			return nil, fmt.Errorf("store: fsync %s: %w", l.label, err)
		}
	}
	return line, nil
}

// rewrite atomically replaces the log with head followed by every byte
// the old file holds from offset keepFrom on, and reopens it for
// appending. keepFrom == size keeps nothing (compaction from retained
// lines); an earlier offset carries over records appended since a cut the
// caller took. A crash mid-rewrite leaves the previous file intact.
func (l *recordLog) rewrite(head []byte, keepFrom int64) error {
	if l.f == nil {
		return ErrClosed
	}
	kept := make([]byte, l.size-keepFrom)
	if _, err := l.f.ReadAt(kept, keepFrom); err != nil {
		return fmt.Errorf("store: read back %s: %w", l.label, err)
	}
	data := append(head, kept...)
	if err := atomicWrite(l.path, data, l.fsync != FsyncOff); err != nil {
		return fmt.Errorf("store: compact %s: %w", l.label, err)
	}
	// The old descriptor now points at the unlinked pre-rewrite file;
	// swap it before any further append.
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen %s: %w", l.label, err)
	}
	l.f.Close()
	l.f, l.size, l.n = f, int64(len(data)), bytes.Count(kept, []byte{'\n'})
	return nil
}

// close syncs (unless FsyncOff) and closes the log; appends and rewrites
// afterwards return ErrClosed. Closing twice is a no-op.
func (l *recordLog) close() error {
	if l.f == nil {
		return nil
	}
	var err error
	if l.fsync != FsyncOff {
		if err = l.f.Sync(); err != nil {
			err = fmt.Errorf("store: fsync %s on close: %w", l.label, err)
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// atomicWrite writes data to path via a same-directory temp file and
// rename, so readers only ever observe the old or the new content — never
// a torn write. When sync is set, the file is fsynced before the rename and
// the directory after it, making the replacement durable across power loss.
func atomicWrite(path string, data []byte, sync bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	if sync {
		if d, err := os.Open(dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}

// removeStaleTemps deletes the temp files a kill between atomicWrite's
// CreateTemp and Rename left beside path; nothing else ever would, and
// one can be as large as the file it was to replace.
func removeStaleTemps(path string) {
	dir, prefix := filepath.Dir(path), filepath.Base(path)+".tmp-"
	entries, _ := os.ReadDir(dir) // best effort: a stale temp is waste, not damage
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
