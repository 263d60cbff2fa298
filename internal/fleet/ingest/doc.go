// Package ingest is the fleet's streaming trace-ingest subsystem: it
// turns arriving bytes into decoded, content-addressed Darshan logs
// without ever requiring the full body in memory first.
//
// It is also the fleet's one trace front door: the decision "what
// rendering is this and what does it decode to" is made here and nowhere
// else, so every hop — daemon, router, SDK, CLI — turns the same bytes
// into the same (log, content digest) pair.
//
// Two entry shapes feed it:
//
//   - Parser consumes one trace as an io.Writer — chunked HTTP bodies,
//     pipes, files read in slices. It sniffs the rendering from the
//     first bytes (gzip magic means the binary codec; "# DXT trace"
//     means DXT per-operation text; anything else is darshan-parser
//     text), and in the text cases begins pre-processing on every
//     complete line as it lands, so a multi-megabyte upload is mostly
//     parsed by the time its last chunk arrives. Chunk boundaries are
//     invisible: any split of the same bytes yields byte-for-byte the
//     same decoded log as a whole-body parse (fuzz-tested). Decode is
//     the same answer for a caller that already holds the whole trace.
//
//   - Manager holds resumable upload sessions: a client opens a session,
//     appends chunks at asserted offsets (PATCH-style, tus-like), can
//     disconnect and resume at the server's offset, and finally
//     completes the session into a parsed trace. Each appended chunk is
//     fed to the session's Parser immediately and, when a spool
//     directory is configured, appended to a per-session spool file so
//     half-finished uploads survive a daemon restart (the store journals
//     the session open; recovery re-feeds the spool through a fresh
//     Parser and the client resumes where it left off).
//
// A hop that holds a whole buffered body may also ask through a Memo,
// which remembers the digest of bytes this process has already decoded:
// Memo.Decode answers exactly what Decode answers, and a byte-identical
// resubmission costs one SHA-256 instead of a decode. The streaming
// shapes above never consult it.
//
// Both paths end in the same place: a decoded *darshan.Log plus its
// canonical content digest (darshan.ContentDigest), which is identical
// for every rendering of one trace and is what the
// cluster routes on (api.DigestHeader). The pool accepts the pair via
// fleet.SubmitPreparsed without re-encoding or re-parsing anything.
package ingest
