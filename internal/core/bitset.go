package core

// The distinct-format acyclicity rule (Section 4.2) needs a per-label set
// of the formats already used along the path. The seed implementation
// copied a map[media.Format]bool on every relaxation, which dominated the
// allocation profile on large graphs. Formats are interned to dense
// indices at graph-build time (graph.Graph.FormatIndex), so the set
// becomes an immutable bitset: a single inline uint64 for graphs with up
// to 64 distinct formats, extended by arena-allocated overflow words
// beyond that.

// formatMask is an immutable set of interned format indices. The zero
// value is the empty set. Copying the struct shares the overflow words,
// which is safe because masks are never mutated in place — with() returns
// a derived mask.
type formatMask struct {
	lo  uint64   // formats 0..63
	ext []uint64 // formats 64.., shared between derived masks
}

// has reports whether format index i is in the set.
func (m formatMask) has(i int) bool {
	if i < 64 {
		return m.lo&(1<<uint(i)) != 0
	}
	w := (i - 64) >> 6
	if w >= len(m.ext) {
		return false
	}
	return m.ext[w]&(1<<uint((i-64)&63)) != 0
}

// with returns m ∪ {i}. Overflow words are allocated from the arena
// (extWords is the graph-wide overflow word count, 0 for ≤64 formats).
func (m formatMask) with(i int, arena *wordArena, extWords int) formatMask {
	if i < 64 {
		m.lo |= 1 << uint(i)
		return m
	}
	ext := arena.alloc(extWords)
	copy(ext, m.ext)
	ext[(i-64)>>6] |= 1 << uint((i-64)&63)
	m.ext = ext
	return m
}

// extWordsFor returns the number of overflow words a graph with
// formatCount distinct formats needs.
func extWordsFor(formatCount int) int {
	if formatCount <= 64 {
		return 0
	}
	return (formatCount - 64 + 63) / 64
}

// wordArena bump-allocates overflow word slices in large slabs so that
// graphs with >64 formats pay one slab allocation per ~1024 masks instead
// of one per relaxation. reset rewinds it to its first slab: the slabs
// are kept for the next Select on the same scratch, and alloc hands
// their words out zeroed.
type wordArena struct {
	slabs [][]uint64
	slab  int // index of the slab being filled
	used  int // words handed out from it
}

func (a *wordArena) alloc(words int) []uint64 {
	if words == 0 {
		return nil
	}
	for a.slab < len(a.slabs) && len(a.slabs[a.slab])-a.used < words {
		a.slab++
		a.used = 0
	}
	if a.slab == len(a.slabs) {
		a.slabs = append(a.slabs, make([]uint64, max(1024, words)))
	}
	s := a.slabs[a.slab][a.used : a.used+words : a.used+words]
	a.used += words
	clear(s)
	return s
}

func (a *wordArena) reset() { a.slab, a.used = 0, 0 }

// labelArena bump-allocates labels in chunks. Labels live until Select
// returns (they back the expanded set and path reconstruction), so the
// arena never frees individually; reset rewinds it to its first chunk
// for the next Select on the same scratch. Chunks are never moved, so
// label pointers stay stable.
type labelArena struct {
	chunks [][]label
	chunk  int // index of the chunk being filled
	used   int // labels handed out from it
}

const labelChunkSize = 256

func (a *labelArena) alloc() *label {
	if a.chunk < len(a.chunks) && a.used == len(a.chunks[a.chunk]) {
		a.chunk++
		a.used = 0
	}
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]label, labelChunkSize))
	}
	l := &a.chunks[a.chunk][a.used]
	a.used++
	return l
}

func (a *labelArena) reset() { a.chunk, a.used = 0, 0 }
