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
// of one per relaxation.
type wordArena struct {
	slab []uint64
}

func (a *wordArena) alloc(words int) []uint64 {
	if words == 0 {
		return nil
	}
	if len(a.slab) < words {
		n := 1024
		if n < words {
			n = words
		}
		a.slab = make([]uint64, n)
	}
	s := a.slab[:words:words]
	a.slab = a.slab[words:]
	return s
}

// labelArena bump-allocates labels in chunks. Labels live until Select
// returns (they back the expanded set and path reconstruction), so the
// arena never frees individually — dropping the arena frees everything.
// Chunks are never moved, so label pointers stay stable.
type labelArena struct {
	chunk []label
	used  int
	// size is the length of the next chunk; 0 means labelChunkSize.
	// Select sizes the first chunk to the graph's vertex count (capped
	// at labelChunkSize): a Select rarely relabels a vertex, so a small
	// graph's labels fit one small chunk.
	size int
}

const labelChunkSize = 256

func (a *labelArena) alloc() *label {
	if a.used == len(a.chunk) {
		if a.size <= 0 {
			a.size = labelChunkSize
		}
		a.chunk = make([]label, a.size)
		a.used = 0
		a.size = labelChunkSize
	}
	l := &a.chunk[a.used]
	a.used++
	return l
}
