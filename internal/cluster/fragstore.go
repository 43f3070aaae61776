package cluster

import (
	"cmp"
	"math/big"
	"slices"

	"confaudit/internal/logmodel"
)

// fragstore is everything a node holds for the glsns it stores: each
// record's item run, the attribute index over their values (index.go),
// and the digest elements materialized from their exponents. It has
// four parts:
//
//   - an arena: every held run is copied into append-only chunks, so a
//     run never pins the frame or journal record it arrived in. A
//     written byte never changes, and a chunk is never reused: a reader
//     holding a run slice keeps its chunk alive however the store
//     changes after the read lock is released.
//   - a table: pages of pointer-free slots, each page covering
//     pageSlots consecutive glsns and keyed by glsn >> pageBits, kept in
//     ascending key order. Memory grows with the records held, not with
//     the span of their glsns, and every walk is in glsn order.
//   - the attribute index: per attribute of the node's sorted A_i, by
//     slot, and per value key, a sorted glsn run (index.go). An install
//     takes its keys from the item walk, so it reads none of the run's
//     values again; only the run an overwrite or remove lets go of is
//     walked, to unindex it.
//   - elems, a side map of the lazily materialized digest elements
//     (Node.Digest). A (re)install or remove of a glsn clears its
//     entry, so an element never outlives the content it was computed
//     from.
//
// Overwrites and removes leave dead bytes in the arena; once they
// outweigh the live runs (and at least a chunk's worth), the live runs
// are copied into fresh chunks and the old ones are left to the
// collector. A fragstore is not safe for concurrent use: the node's
// state lock guards it, and run slices it hands out may be read after
// that lock is released.
type fragstore struct {
	pages []*fragPage // ascending by key; a page holding no record is dropped
	count int         // records held
	arena fragArena
	elems map[logmodel.GLSN]*big.Int
	attrs []logmodel.Attr // A_node, sorted: idx[i] indexes attrs[i]
	idx   []attrIndex
	// hashMask narrows every string key's hash. It is all ones; a test
	// narrows it to drive every string key through collision chains.
	hashMask uint64
}

const (
	// pageBits sizes a table page at 1<<pageBits glsns (3 KiB of slots).
	pageBits  = 8
	pageSlots = 1 << pageBits
	// chunkSize is the arena chunk size. A run longer than
	// chunkSize/8 gets a chunk of its own, which bounds the tail a full
	// chunk wastes.
	chunkSize = 64 << 10
)

// fragSlot locates one held run in the arena; n == 0 marks an empty
// slot (every item run is at least a few bytes long).
type fragSlot struct {
	chunk, off, n uint32
}

// fragPage is one table page. It holds no pointers, so the collector
// never scans it.
type fragPage struct {
	key   uint64 // glsn >> pageBits of every glsn on the page
	live  int    // non-empty slots
	slots [pageSlots]fragSlot
}

// newFragstore returns an empty store indexing the sorted attributes
// attrs, the node's A_i.
func newFragstore(attrs []logmodel.Attr) *fragstore {
	return &fragstore{
		arena:    fragArena{cur: -1},
		elems:    make(map[logmodel.GLSN]*big.Int),
		attrs:    attrs,
		idx:      make([]attrIndex, len(attrs)),
		hashMask: ^uint64(0),
	}
}

// fragArena is the store's append-only byte arena.
type fragArena struct {
	chunks [][]byte // each at its full length; written bytes never change
	cur    int      // chunk small runs are appended to; -1 before the first
	fill   int      // bytes written to chunks[cur]
	used   int      // bytes of every run ever written to chunks
	live   int      // bytes of the runs still held
}

// put copies run into the arena and returns its slot.
func (a *fragArena) put(run []byte) fragSlot {
	n := len(run)
	a.used += n
	a.live += n
	if n > chunkSize/8 {
		a.chunks = append(a.chunks, slices.Clone(run))
		return fragSlot{chunk: uint32(len(a.chunks) - 1), n: uint32(n)}
	}
	if a.cur < 0 || a.fill+n > chunkSize {
		a.chunks = append(a.chunks, make([]byte, chunkSize))
		a.cur, a.fill = len(a.chunks)-1, 0
	}
	sl := fragSlot{chunk: uint32(a.cur), off: uint32(a.fill), n: uint32(n)}
	copy(a.chunks[a.cur][a.fill:], run)
	a.fill += n
	return sl
}

// run returns a slot's bytes, capped so that no append reaches past them.
func (a *fragArena) run(sl fragSlot) []byte {
	end := sl.off + sl.n
	return a.chunks[sl.chunk][sl.off:end:end]
}

// free marks a slot's bytes dead.
func (a *fragArena) free(sl fragSlot) { a.live -= int(sl.n) }

// page returns the index of the page keyed key in s.pages, or where it
// belongs and false.
func (s *fragstore) page(key uint64) (int, bool) {
	// Ascending installs land on the last page, or just past it.
	if n := len(s.pages); n > 0 {
		switch last := s.pages[n-1].key; {
		case last == key:
			return n - 1, true
		case last < key:
			return n, false
		}
	}
	return slices.BinarySearchFunc(s.pages, key, func(p *fragPage, k uint64) int { return cmp.Compare(p.key, k) })
}

// get returns the run held for g.
func (s *fragstore) get(g logmodel.GLSN) ([]byte, bool) {
	i, ok := s.page(uint64(g) >> pageBits)
	if !ok {
		return nil, false
	}
	sl := s.pages[i].slots[g&(pageSlots-1)]
	if sl.n == 0 {
		return nil, false
	}
	return s.arena.run(sl), true
}

// len returns the number of records held.
func (s *fragstore) len() int { return s.count }

// each calls fn with every held glsn and its run, in ascending glsn
// order.
func (s *fragstore) each(fn func(g logmodel.GLSN, run []byte)) {
	for _, p := range s.pages {
		for i, sl := range &p.slots {
			if sl.n != 0 {
				fn(logmodel.GLSN(p.key<<pageBits|uint64(i)), s.arena.run(sl))
			}
		}
	}
}

// install holds an item that passed viewItem and the A_node check
// (Node.admitItem) as its glsn's record, replacing what the glsn held,
// and indexes it by the keys those two resolved. The run is held as it
// is when its fragment already names node, as Split makes it; otherwise
// it is re-encoded once with node's ID stamped. It is the node's only
// install: the live store path and journal replay both call it.
func (s *fragstore) install(v *itemView, node string) {
	run := v.run
	if string(v.node) != node {
		run = v.stamped(node)
	}
	s.set(v.glsn, run, v.keys)
	delete(s.elems, v.glsn)
}

// set copies run into the arena as g's record and re-indexes g by keys,
// the run's resolved index keys. It keeps g's materialized element:
// install clears it, TamperFragment keeps it on purpose.
func (s *fragstore) set(g logmodel.GLSN, run []byte, keys []valueKey) {
	key := uint64(g) >> pageBits
	i, ok := s.page(key)
	if !ok {
		s.pages = slices.Insert(s.pages, i, &fragPage{key: key})
	}
	p := s.pages[i]
	sl := &p.slots[g&(pageSlots-1)]
	if sl.n != 0 {
		s.indexRemove(g, s.arena.run(*sl))
		s.arena.free(*sl)
	} else {
		p.live++
		s.count++
	}
	*sl = s.arena.put(run)
	s.indexAdd(g, keys)
	s.compactIfSparse()
}

// remove drops g's record, its index entries and its element,
// reporting whether g was held. It is the node's only remove, shared by
// deleteFragment and journal replay.
func (s *fragstore) remove(g logmodel.GLSN) bool {
	i, ok := s.page(uint64(g) >> pageBits)
	if !ok {
		return false
	}
	p := s.pages[i]
	sl := &p.slots[g&(pageSlots-1)]
	if sl.n == 0 {
		return false
	}
	s.indexRemove(g, s.arena.run(*sl))
	s.arena.free(*sl)
	*sl = fragSlot{}
	s.count--
	if p.live--; p.live == 0 {
		s.pages = slices.Delete(s.pages, i, i+1)
	}
	delete(s.elems, g)
	s.compactIfSparse()
	return true
}

// compactIfSparse copies the live runs into fresh chunks, in glsn
// order, once dead bytes outweigh them and fill at least a chunk. Every
// byte is copied at most once per as many bytes freed, so installs and
// removes stay amortized O(1). The old chunks are dropped, not reused:
// a scan may still be reading runs in them.
func (s *fragstore) compactIfSparse() {
	dead := s.arena.used - s.arena.live
	if dead < chunkSize || dead <= s.arena.live {
		return
	}
	old := s.arena
	s.arena = fragArena{cur: -1}
	for _, p := range s.pages {
		for i, sl := range &p.slots {
			if sl.n != 0 {
				p.slots[i] = s.arena.put(old.run(sl))
			}
		}
	}
}

// elem returns g's cached digest element, nil when none.
func (s *fragstore) elem(g logmodel.GLSN) *big.Int { return s.elems[g] }

// cacheElem caches elem as g's digest element, computed from run, if g
// still holds that very run. Runs are never modified and their bytes
// never reused while run is referenced, so the address names one
// install: an overwrite, remove or compaction in between leaves the
// element uncached.
func (s *fragstore) cacheElem(g logmodel.GLSN, run []byte, elem *big.Int) {
	if cur, ok := s.get(g); ok && &cur[0] == &run[0] {
		s.elems[g] = elem
	}
}
