// Package node builds one fleet daemon. New is the wiring iofleetd runs
// and the only in-process boot tests and drivers use: open the stores,
// recover, build the pool with its persistence and replication hooks,
// replay, join the roster, serve. Close and Abort own the teardown order
// (docs/ARCHITECTURE.md, layer 6), so a Go test can boot a node, drain
// it or kill it, and boot it again on the same state directory.
package node

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ioagent/internal/fleet"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/fleet/knowledge"
	"ioagent/internal/fleet/roster"
	"ioagent/internal/fleet/server"
	"ioagent/internal/fleet/store"
	"ioagent/internal/llm"
)

// Config is what iofleetd's flags fill in: four sub-configs plus the values
// that belong to the node as a whole. New copies what it changes, and owns
// (overwrites) the sub-config fields named below.
type Config struct {
	LLM llm.Client // the model backend every diagnosis calls
	// Fleet.NodeID names the whole node. Hooks set in Fleet keep running,
	// ahead of the store's and the roster's.
	Fleet   fleet.Config
	Uploads ingest.Config // New owns NodeID, MaxBytes (= MaxBody), SpoolDir, OnEvent
	// Roster, when non-nil, makes the node an elastic-fleet member; an empty
	// SelfURL advertises the listener's address. New owns NodeID, Pool,
	// OnChange.
	Roster    *roster.Config
	Knowledge *knowledge.Config // non-nil serves the knowledge plane; New owns NodeID, OnEvent

	StateDir          string        // job journal, cache snapshot, upload spool (empty = in-memory only)
	KnowledgeStateDir string        // knowledge WAL and corpus snapshot (default StateDir)
	Fsync             string        // durability of both stores, see store.ParseFsyncMode
	SnapshotInterval  time.Duration // maintenance tick: expire idle uploads, checkpoint changed state (default 30s)
	MaxBody           int64         // bounds one trace, buffered or uploaded (default 64 MiB)
}

// Node is one recovered, wired, serving daemon.
type Node struct {
	ID      string
	Pool    *fleet.Pool
	Uploads *ingest.Manager
	Roster  *roster.Manager // nil for a static fleet member

	ln       net.Listener
	srv      *http.Server
	draining atomic.Bool
	store    *store.Store
	kstore   *store.KnowledgeStore

	stopGossip, stopTick func() // each cancels its loop and waits for it
	serveDone            chan struct{}
	serveErr             error
	once                 sync.Once
}

// loop runs fn on its own goroutine; stop cancels it and waits for it.
func loop(fn func(context.Context)) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); fn(ctx) }()
	return func() { cancel(); <-done }
}

// chain runs a caller's hook ahead of the node's own.
func chain[T any](first, then func(T)) func(T) {
	if first == nil {
		return then
	}
	return func(v T) { first(v); then(v) }
}

// New boots a node on ln and takes ownership of it: a failed New closes
// the listener along with whatever it had opened.
func New(cfg Config, ln net.Listener) (_ *Node, err error) {
	n := &Node{ID: cfg.Fleet.NodeID, ln: ln}
	defer func() {
		if err != nil {
			if n.Pool != nil {
				n.Pool.Close()
			}
			n.closeFiles()
			ln.Close()
		}
	}()
	mode, err := store.ParseFsyncMode(cfg.Fsync)
	if err != nil {
		return nil, err
	}
	opts := store.Options{Fsync: mode}

	fc := cfg.Fleet
	var mgr atomic.Pointer[roster.Manager]
	if cfg.StateDir != "" {
		if n.store, err = store.Open(cfg.StateDir, opts); err != nil {
			return nil, err
		}
		fc.OnJobEvent = chain(fc.OnJobEvent, n.store.OnJobEvent)
		fc.OnCacheInsert = chain(fc.OnCacheInsert, n.store.CacheChanged)
		fc.OnCacheEvict = chain(fc.OnCacheEvict, n.store.CacheChanged)
	}
	if cfg.Roster != nil {
		// The roster manager needs the pool and the pool's insert hook
		// needs the manager (successor replication), so the manager
		// late-binds through a slot: inserts that land before it exists
		// (replay) simply don't replicate.
		fc.OnCacheInsert = chain(fc.OnCacheInsert, func(digest string) {
			if m := mgr.Load(); m != nil {
				m.CacheInserted(digest)
			}
		})
	}

	// The knowledge plane's WAL and snapshot are sidecar files, so corpus
	// epochs survive SIGKILL independently of the job journal. Replay
	// happens before the pool exists and never emits events, so wiring
	// OnEvent up front cannot re-journal the recovery.
	if cfg.Knowledge != nil {
		kc := *cfg.Knowledge
		kc.NodeID = n.ID
		kdir := cfg.KnowledgeStateDir
		if kdir == "" {
			kdir = cfg.StateDir
		}
		if kdir != "" {
			if n.kstore, err = store.OpenKnowledge(kdir, opts); err != nil {
				return nil, err
			}
			kc.OnEvent = n.kstore.OnEvent
		}
		plane := knowledge.New(kc)
		if n.kstore != nil {
			n.kstore.Replay(plane)
			if n.kstore.HasRecovered() {
				log.Printf("iofleetd: knowledge plane recovered from %s: epoch %d, %d documents", kdir, plane.Epoch(), plane.Metrics().Docs)
			}
		}
		fc.Knowledge = plane
	}

	n.Pool = fleet.New(cfg.LLM, fc)

	// With a state dir, upload sessions spool to disk and their opens ride
	// the journal, so half-finished uploads survive a restart.
	uc := cfg.Uploads
	uc.NodeID, uc.MaxBytes = n.ID, cfg.MaxBody
	if n.store != nil {
		uc.SpoolDir, uc.OnEvent = n.store.UploadDir(), n.store.OnUploadEvent
	}
	if n.Uploads, err = ingest.NewManager(uc); err != nil {
		return nil, err
	}

	if n.store != nil {
		restored, resubmitted, err := n.store.Replay(n.Pool)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		revived, err := n.store.ReplayUploads(n.Uploads)
		if err != nil {
			return nil, fmt.Errorf("replay uploads: %w", err)
		}
		log.Printf("iofleetd: recovered state from %s: %d cached diagnoses restored, %d unfinished jobs resubmitted, %d upload sessions revived",
			n.store.Dir(), restored, resubmitted, revived)
	}

	// Gossip starts after recovery, so a restarted node rejoins with its
	// restored cache in place and the first ring change hands the right
	// entries over.
	if cfg.Roster != nil {
		rc := *cfg.Roster
		if rc.SelfURL == "" {
			rc.SelfURL = n.URL()
		}
		rc.NodeID, rc.Pool = n.ID, n.Pool
		rc.OnChange = func(added, removed []string) {
			log.Printf("iofleetd: roster change: +%v -%v", added, removed)
			if n.store != nil {
				// Audit trail: the journal answers "when did the ring
				// change under this daemon" after an incident.
				for _, u := range added {
					n.store.MemberJoined(u)
				}
				for _, u := range removed {
					n.store.MemberLeft(u)
				}
			}
		}
		n.Roster = roster.New(rc)
		mgr.Store(n.Roster)
		n.stopGossip = loop(n.Roster.Run)
		log.Printf("iofleetd: elastic member %s (peers %v, replicate %d)", rc.SelfURL, rc.Peers, rc.Replicate)
	}

	sc := server.Config{
		Pool: n.Pool, Store: n.store, Uploads: n.Uploads, Draining: &n.draining,
		MaxBody: cfg.MaxBody, NodeID: n.ID,
	}
	if n.store != nil {
		// Runtime class changes (POST /v1/sched/tenants) ride the journal,
		// so a restarted node replays them before resubmitting backlog.
		sc.OnTenantClass = n.store.TenantClass
	}
	if n.Roster != nil {
		sc.Elastic = n.Roster // a typed-nil manager must not enable the roster endpoints
	}
	n.srv = &http.Server{Handler: server.NewMux(sc)}

	interval := cfg.SnapshotInterval
	if interval <= 0 {
		interval = 30 * time.Second
	}
	n.stopTick = loop(func(ctx context.Context) { n.tick(ctx, interval) })

	n.serveDone = make(chan struct{})
	go func() {
		defer close(n.serveDone)
		if err := n.srv.Serve(ln); err != http.ErrServerClosed {
			n.serveErr = err
		}
	}()
	return n, nil
}

// URL is the node's base URL at its listener's resolved address.
func (n *Node) URL() string { return "http://" + n.ln.Addr().String() }

// Wait blocks until the node stops serving: nil after Close or Abort, the
// accept loop's error otherwise.
func (n *Node) Wait() error {
	<-n.serveDone
	return n.serveErr
}

// tick is the maintenance loop. It runs on every node — a stateless one
// still has idle upload sessions to expire; checkpoints happen only where
// there is a store to write.
func (n *Node) tick(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			n.Uploads.Sweep()
			// Both checkpoints skip themselves when nothing changed: an
			// idle pool or corpus costs zero write traffic.
			if n.store != nil {
				if err := n.store.Checkpoint(n.Pool); err != nil {
					log.Printf("iofleetd: checkpoint: %v", err)
				}
			}
			if n.kstore != nil {
				if err := n.kstore.Checkpoint(n.Pool.Knowledge()); err != nil {
					log.Printf("iofleetd: knowledge checkpoint: %v", err)
				}
			}
		case <-ctx.Done():
			return
		}
	}
}

// Close is the SIGTERM path. New submissions are refused (and the refusal
// journaled) from the first instant; in-flight responses finish; gossip
// and replication stop before the pool they read from; the pool drains;
// then the final checkpoints cover the tail and the files close. Close
// and Abort are one-shot: whichever runs first wins.
func (n *Node) Close() {
	n.once.Do(func() {
		n.draining.Store(true)
		if err := n.srv.Shutdown(context.Background()); err != nil {
			log.Printf("iofleetd: shutdown: %v", err)
		}
		n.stopRoster()
		n.Pool.Close()
		n.stopTick()
		if n.kstore != nil {
			if err := n.kstore.FinalCheckpoint(n.Pool.Knowledge()); err != nil {
				log.Printf("iofleetd: final knowledge checkpoint: %v", err)
			}
		}
		if n.store != nil {
			// The pool has drained: every journaled job is covered, so
			// this snapshots the final cache and compacts the journal to
			// (at most) jobs that failed permanently mid-drain.
			if err := n.store.FinalCheckpoint(n.Pool); err != nil {
				log.Printf("iofleetd: final checkpoint: %v", err)
			}
		}
		n.closeFiles()
		if n.store != nil {
			log.Printf("iofleetd: state persisted to %s", n.store.Dir())
		}
	})
}

// Abort severs the node the way a crash would: the listener refuses, open
// connections break mid-flight, gossip stops without a goodbye, nothing is
// drained or checkpointed, and the files close so that work still running
// in the abandoned pool can no longer reach the state directory.
func (n *Node) Abort() {
	n.once.Do(func() {
		n.srv.Close()
		if n.Roster != nil {
			n.stopGossip()
		}
		n.stopTick()
		n.closeFiles()
		// The abandoned pool's workers exit once its backlog has run;
		// in-flight replication pushes time out on their own.
		go func() { n.stopRoster(); n.Pool.Close() }()
	})
}

// stopRoster ends gossip, then replication, and waits for both. They read
// from the pool, so this comes before Pool.Close.
func (n *Node) stopRoster() {
	if n.Roster != nil {
		n.stopGossip()
		n.Roster.Close()
	}
}

func (n *Node) closeFiles() {
	if n.kstore != nil {
		if err := n.kstore.Close(); err != nil {
			log.Printf("iofleetd: close knowledge store: %v", err)
		}
	}
	if n.store != nil {
		if err := n.store.Close(); err != nil {
			log.Printf("iofleetd: close store: %v", err)
		}
	}
}
