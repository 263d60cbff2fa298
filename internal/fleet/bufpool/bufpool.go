// Package bufpool recycles the byte buffers of the fleet's buffered HTTP
// bodies — a submission's request body at the router and at the node,
// and a 2xx reply body in the SDK — through one bounded sync.Pool.
//
// A buffer can have several holders at once. The router's handler holds
// the trace it read while the SDK forwards it, and every request body the
// SDK builds over it holds it too, because an http.RoundTripper may read
// and close a request body after RoundTrip returns. So a Buf counts its
// holders, and the last holder to let go returns it to the pool. Nobody
// waits for the others: a handler drops its hold and replies.
package bufpool

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// maxPooled bounds the buffers the pool keeps: one large trace must not
// pin its buffer for the process lifetime.
const maxPooled = 1 << 20

var pool = sync.Pool{New: func() any { return &Buf{pooled: true} }}

// Buf is a byte buffer with a count of holders. B is the content; it is
// valid while the caller holds the Buf.
type Buf struct {
	B []byte
	// state is the buffer's generation (high 32 bits), bumped on every
	// Get, and its holder count (low 32 bits). A late request body
	// replay names the generation it was built for, so it can never
	// take a hold on a buffer that was recycled and handed out again.
	state  atomic.Uint64
	pooled bool
}

// Get returns a buffer of length n with one holder, the caller, who
// must Release it. A buffer over the pool's bound is allocated and left
// to the garbage collector.
func Get(n int) *Buf {
	if n > maxPooled {
		return Wrap(make([]byte, n))
	}
	b := pool.Get().(*Buf)
	if cap(b.B) < n {
		b.B = make([]byte, n)
	}
	b.B = b.B[:n]
	b.state.Store((b.state.Load()>>32+1)<<32 | 1)
	return b
}

// Wrap returns an unpooled Buf over data: its holds are not counted and
// releasing it does nothing, so a caller's own bytes take the same paths
// as a pooled body without ever entering the pool.
func Wrap(data []byte) *Buf { return &Buf{B: data} }

// Pooled reports whether b came from the pool, so that its holders are
// counted; a Wrap'd or oversized buffer is only the caller's memory.
func (b *Buf) Pooled() bool { return b.pooled }

// Release drops one hold. The last hold returns a pooled buffer to the
// pool; b's bytes must not be touched after. A nil Buf is a no-op.
func (b *Buf) Release() {
	if b == nil || !b.pooled {
		return
	}
	s := b.state.Add(^uint64(0)) // one holder fewer
	switch uint32(s) {
	case 0:
		if cap(b.B) <= maxPooled {
			pool.Put(b)
		}
	case ^uint32(0):
		panic("bufpool: buffer released more often than held")
	}
}

// generation is b's current generation.
func (b *Buf) generation() uint32 { return uint32(b.state.Load() >> 32) }

// hold adds a holder to generation gen of b, unless that generation has
// already been let go by every holder.
func (b *Buf) hold(gen uint32) bool {
	if !b.pooled {
		return true
	}
	for {
		s := b.state.Load()
		if uint32(s>>32) != gen || uint32(s) == 0 {
			return false
		}
		if b.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// ErrReleased is what a Body's Read and Replay report once the buffer it
// would read is no longer held.
var ErrReleased = errors.New("bufpool: body read after its buffer was released")

// NewBody returns a request body that reads b.B and holds b until it is
// closed. The caller must hold b. Set the request's ContentLength to
// len(b.B) and its GetBody to the body's Replay.
func (b *Buf) NewBody() *Body {
	gen := b.generation()
	if !b.hold(gen) {
		panic("bufpool: NewBody on a buffer nobody holds")
	}
	return &Body{buf: b, gen: gen}
}

// Body is an io.ReadCloser over a held Buf. Close drops its hold once;
// a Read that races a Close sees either the bytes or ErrReleased, never
// a recycled buffer.
type Body struct {
	buf *Buf
	gen uint32

	mu     sync.Mutex
	off    int
	closed bool
}

func (r *Body) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrReleased
	}
	if r.off >= len(r.buf.B) {
		return 0, io.EOF
	}
	n := copy(p, r.buf.B[r.off:])
	r.off += n
	return n, nil
}

// Close drops the body's hold on its buffer. Closing twice is harmless.
func (r *Body) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		r.buf.Release()
	}
	return nil
}

// Replay is an http.Request GetBody: a fresh body over the same bytes,
// with its own hold, for the transport's or the client's resend. It
// fails once every holder of the buffer has let go.
func (r *Body) Replay() (io.ReadCloser, error) {
	if !r.buf.hold(r.gen) {
		return nil, ErrReleased
	}
	return &Body{buf: r.buf, gen: r.gen}, nil
}
