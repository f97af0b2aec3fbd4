package transcode

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Payload pool size classes: powers of two from 64 B to 16 MiB. A
// request above the largest class falls back to a plain allocation.
const (
	poolMinClass = 6  // 64 B
	poolMaxClass = 24 // 16 MiB
	// poolClassCap bounds how many idle buffers one size class retains,
	// so the pool's memory stays proportional to the live working set
	// rather than the historical peak.
	poolClassCap = 4096
)

// PayloadPool recycles frame payload buffers between pipeline stages.
// It is the allocation-discipline half of the batched executor: a stage
// that re-encodes a frame takes its output buffer from the pool and
// returns the input buffer, and the pipeline sink returns delivered
// payloads, so a steady-state stream allocates nothing per frame.
//
// Buffers are bucketed into power-of-two size classes behind per-class
// locks. Get returns a buffer of exactly the requested length whose
// contents are UNDEFINED — callers must overwrite every byte (every
// producer in this package does). A nil *PayloadPool is valid and
// degrades to plain make/garbage-collection, which keeps pooling an
// opt-in property of the pipeline rather than of the stage types.
type PayloadPool struct {
	classes [poolMaxClass + 1]payloadClass

	// misses counts Gets that had to allocate, which tests use to prove
	// the steady state recycles instead of allocating.
	misses atomic.Int64

	// outstanding counts pool-eligible buffers currently checked out:
	// +1 per Get, -1 per Put. Leak audits assert it returns to zero
	// after a run — valid only under the ownership discipline this
	// package follows (every Get-ed buffer is eventually Put exactly
	// once, and nothing else is Put).
	outstanding atomic.Int64
}

type payloadClass struct {
	mu   sync.Mutex
	bufs [][]byte
}

// NewPayloadPool returns an empty pool.
func NewPayloadPool() *PayloadPool { return &PayloadPool{} }

// sizeClass returns the class whose buffers can hold n bytes.
func sizeClass(n int) int {
	c := bits.Len(uint(n - 1))
	if c < poolMinClass {
		c = poolMinClass
	}
	return c
}

// Get returns a buffer of length n with undefined contents. The caller
// owns it until handed to another stage or returned with Put.
func (p *PayloadPool) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	if p == nil {
		return make([]byte, n)
	}
	c := sizeClass(n)
	if c > poolMaxClass {
		return make([]byte, n)
	}
	p.outstanding.Add(1)
	cl := &p.classes[c]
	cl.mu.Lock()
	if last := len(cl.bufs) - 1; last >= 0 {
		b := cl.bufs[last]
		cl.bufs[last] = nil
		cl.bufs = cl.bufs[:last]
		cl.mu.Unlock()
		return b[:n]
	}
	cl.mu.Unlock()
	p.misses.Add(1)
	return make([]byte, n, 1<<c)
}

// Put returns a buffer to the pool. The caller must not touch b again.
// Buffers the pool did not produce are accepted too (they join the
// class their capacity floors into); undersized or oversized ones are
// dropped to the garbage collector.
func (p *PayloadPool) Put(b []byte) {
	if p == nil || cap(b) < 1<<poolMinClass {
		return
	}
	// Floor, not round: a class-c shelf promises cap >= 1<<c.
	c := bits.Len(uint(cap(b))) - 1
	if c > poolMaxClass {
		return
	}
	// A full shelf still counts as returned — the buffer left the
	// caller's ownership either way.
	p.outstanding.Add(-1)
	cl := &p.classes[c]
	cl.mu.Lock()
	if len(cl.bufs) < poolClassCap {
		cl.bufs = append(cl.bufs, b[:cap(b)])
	}
	cl.mu.Unlock()
}

// Misses reports how many Gets allocated because no recycled buffer was
// available.
func (p *PayloadPool) Misses() int64 {
	if p == nil {
		return 0
	}
	return p.misses.Load()
}

// Outstanding reports how many pool-eligible buffers are checked out
// (Get minus Put). Zero after a pipeline run means no payload buffer
// leaked on a failure or cancellation path.
func (p *PayloadPool) Outstanding() int64 {
	if p == nil {
		return 0
	}
	return p.outstanding.Load()
}

// putShelf returns bufs (full-capacity slices of class c) under one
// lock. As with Put, buffers past the class cap count as returned and
// go to the garbage collector.
func (p *PayloadPool) putShelf(c int, bufs [][]byte) {
	p.outstanding.Add(-int64(len(bufs)))
	cl := &p.classes[c]
	cl.mu.Lock()
	if room := poolClassCap - len(cl.bufs); room > 0 {
		cl.bufs = append(cl.bufs, bufs[:min(room, len(bufs))]...)
	}
	cl.mu.Unlock()
}

// PayloadCache is the handle a chain's elements draw payload buffers
// through: a single-owner front for a PayloadPool. Unbound (its state
// between scheduling turns) it forwards every Get and Put to the pool,
// so goroutines may share it the way they share the pool. Bound to a
// set of PayloadShelves, Put keeps up to 2·batch buffers per size class
// and Get takes them back last-in first-out, so the buffers a chain's
// sink returns feed its own source on the same core with no shared
// lock. Get falls back to the pool only when its shelf is empty, so a
// turn never holds more buffers than it had in flight at once. Flush
// returns everything shelved in one locked append per class. Shelved
// buffers still count as checked out of the pool, so its Outstanding()
// is exact once the cache is flushed.
//
// A nil *PayloadCache is valid and allocates plainly, like a nil pool.
type PayloadCache struct {
	pool    *PayloadPool
	shelves *PayloadShelves
	limit   int
}

// NewPayloadCache returns an unbound cache in front of pool; a nil pool
// yields a nil cache.
func NewPayloadCache(pool *PayloadPool) *PayloadCache {
	if pool == nil {
		return nil
	}
	return &PayloadCache{pool: pool}
}

// PayloadShelves is the storage a bound PayloadCache keeps buffers on.
// Flush leaves it empty but keeps its capacity, so one PayloadShelves
// lent to a succession of caches (an executor worker lends its own to
// every chain it runs) allocates only while it first grows.
type PayloadShelves struct {
	classes [poolMaxClass + 1][][]byte
}

// Len reports how many buffers are shelved.
func (s *PayloadShelves) Len() int {
	n := 0
	for _, shelf := range s.classes {
		n += len(shelf)
	}
	return n
}

// Bind makes the cache shelve buffers on sh, up to 2·batch per size
// class, until the next Flush. sh must be empty and bound to no other
// cache. Binding a nil cache is a no-op.
func (c *PayloadCache) Bind(sh *PayloadShelves, batch int) {
	if c == nil {
		return
	}
	c.shelves = sh
	c.limit = 2 * max(batch, 1)
}

// Flush returns every shelved buffer to the pool and unbinds the
// shelves, leaving them empty. Flushing an unbound or nil cache is a
// no-op.
func (c *PayloadCache) Flush() {
	if c == nil || c.shelves == nil {
		return
	}
	sh := c.shelves
	for cl, s := range sh.classes {
		if len(s) > 0 {
			c.pool.putShelf(cl, s)
			clear(s)
			sh.classes[cl] = s[:0]
		}
	}
	c.shelves = nil
}

// Get returns a buffer of length n with undefined contents, from the
// shelves when bound, else from the pool.
func (c *PayloadCache) Get(n int) []byte {
	if c == nil {
		if n <= 0 {
			return nil
		}
		return make([]byte, n)
	}
	if sh := c.shelves; sh != nil && n > 0 {
		if cl := sizeClass(n); cl <= poolMaxClass {
			s := sh.classes[cl]
			if last := len(s) - 1; last >= 0 {
				b := s[last]
				s[last] = nil
				sh.classes[cl] = s[:last]
				return b[:n]
			}
		}
	}
	return c.pool.Get(n)
}

// Put returns a buffer: onto its class's shelf when bound and the shelf
// has room, else to the pool. The caller must not touch b again.
func (c *PayloadCache) Put(b []byte) {
	if c == nil {
		return
	}
	if sh := c.shelves; sh != nil && cap(b) >= 1<<poolMinClass {
		if cl := bits.Len(uint(cap(b))) - 1; cl <= poolMaxClass {
			s := sh.classes[cl]
			if len(s) < c.limit {
				if cap(s) == 0 {
					s = make([][]byte, 0, c.limit)
				}
				sh.classes[cl] = append(s, b[:cap(b)])
				return
			}
		}
	}
	c.pool.Put(b)
}
