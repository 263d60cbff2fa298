package bufpool

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
)

// TestBodyLifetimeLastHolderReturns: a buffer goes back to the pool only
// when its last holder lets go, whichever holder that is, and a body
// read or replayed after that sees ErrReleased, never the bytes of
// whoever got the buffer next.
func TestBodyLifetimeLastHolderReturns(t *testing.T) {
	b := Get(16)
	copy(b.B, "0123456789abcdef")
	body := b.NewBody()
	replay, err := body.Replay()
	if err != nil {
		t.Fatal(err)
	}
	b.Release() // the caller lets go first; both bodies still hold
	if got := b.state.Load() & 0xffffffff; got != 2 {
		t.Fatalf("holders after the caller's release = %d, want 2", got)
	}
	if data, err := io.ReadAll(body); err != nil || string(data) != "0123456789abcdef" {
		t.Fatalf("body read %q, %v", data, err)
	}
	body.Close()
	body.Close() // harmless
	if data, err := io.ReadAll(replay.(*Body)); err != nil || string(data) != "0123456789abcdef" {
		t.Fatalf("replay read %q, %v", data, err)
	}
	replay.Close()
	if got := b.state.Load() & 0xffffffff; got != 0 {
		t.Fatalf("holders after every close = %d, want 0", got)
	}
	if _, err := body.Read(make([]byte, 4)); !errors.Is(err, ErrReleased) {
		t.Errorf("read after close = %v, want ErrReleased", err)
	}
	if _, err := body.Replay(); !errors.Is(err, ErrReleased) {
		t.Errorf("replay after the last holder let go = %v, want ErrReleased", err)
	}
}

// TestBodyLifetimeStaleReplay: a replay built for one generation of a
// buffer cannot hold the buffer once it has been recycled and handed
// out again.
func TestBodyLifetimeStaleReplay(t *testing.T) {
	// A buffer of generation 1 outside the pool, so that the test can
	// play the pool's part.
	b := &Buf{B: make([]byte, 8), pooled: true}
	b.state.Store(1<<32 | 1)
	body := b.NewBody()
	body.Close()
	// As if the caller let go too and a Get handed the buffer out again.
	b.state.Store(2<<32 | 1)
	if _, err := body.Replay(); !errors.Is(err, ErrReleased) {
		t.Errorf("replay of an old generation = %v, want ErrReleased", err)
	}
	if got := b.state.Load(); got != 2<<32|1 {
		t.Errorf("the stale replay changed the new generation's state to %#x", got)
	}
}

// TestBodyLifetimeUnpooled: a wrapped buffer is the caller's memory:
// bodies over it read it, and no release ever recycles it.
func TestBodyLifetimeUnpooled(t *testing.T) {
	data := []byte("caller's bytes")
	b := Wrap(data)
	if b.Pooled() {
		t.Fatal("a wrapped buffer reports pooled")
	}
	body := b.NewBody()
	body.Close()
	b.Release()
	b.Release()
	replay, err := body.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(replay); err != nil || !bytes.Equal(got, data) {
		t.Errorf("replay of a wrapped buffer = %q, %v", got, err)
	}
	if Get(maxPooled + 1).Pooled() {
		t.Error("a buffer over the bound is pooled")
	}
}

// TestBodyLifetimeConcurrent: many goroutines get, fill, share and
// release buffers; each body reads back exactly what its buffer held
// when the body was made. Run it with -race.
func TestBodyLifetimeConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := Get(512)
				want := bytes.Repeat([]byte{byte(g*31 + i)}, 512)
				copy(b.B, want)
				body := b.NewBody()
				done := make(chan struct{})
				go func() {
					defer close(done)
					defer body.Close()
					if got, err := io.ReadAll(body); err != nil || !bytes.Equal(got, want) {
						t.Errorf("goroutine %d, buffer %d: read %d bytes, %v; not what was written", g, i, len(got), err)
					}
				}()
				b.Release() // the reader may still be reading
				<-done
			}
		}(g)
	}
	wg.Wait()
}
