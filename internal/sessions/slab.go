package sessions

import (
	"os"
	"sync/atomic"

	"tsppr/internal/seq"
)

// A slab holds every window of one store outside the Go heap, so the
// garbage collector neither scans it nor paces the heap on it: at GOGC
// 100 a byte the collector tracks costs about two bytes of resident
// memory, a slab byte one. Each session is a slot of slotItems items,
// its header and then its ring buffer, in fixed-size chunks that
// allocChunk maps and freeChunk unmaps. Slots are handed out in order
// and never reused, since sessions are never evicted.
//
// The header is size, pushed and the LSN of the last applied event, each
// 64-bit word as two items. The ring's head is not stored: a slot keeps
// the event at absolute position p at index p mod |W|, which seq.Ring's
// Push preserves, so head is (pushed − size) mod |W|.
type slab struct {
	windowCap int
	slotItems int // hdrItems + windowCap
	chunkLen  int // items per chunk: minSlotsPerChunk slots, rounded up to a page
	perChunk  int // slots per chunk: chunkLen / slotItems
	chunks    [][]seq.Item
	used      int // slots handed out in the last chunk
}

const (
	hdrItems         = 5   // size, pushed (2 items), lsn (2 items)
	minSlotsPerChunk = 256 // ~105 KiB a chunk at |W| = 100, 12 KiB at |W| = 5

	// A slot id is its chunk's index << slotBits | its place in the
	// chunk, so finding a slot takes a shift and a mask, not a division.
	// A chunk holds fewer than minSlotsPerChunk + a page of slots.
	slotBits = 12
)

// mapped counts the bytes of every live chunk in the process: what the
// rrc_sessions_slab_bytes gauge reports.
var mapped atomic.Int64

// MappedBytes returns the bytes of session-window slabs this process
// holds outside the Go heap.
func MappedBytes() int64 { return mapped.Load() }

func newSlab(windowCap int) *slab {
	slotItems := hdrItems + windowCap
	page := os.Getpagesize() / 4
	chunk := (minSlotsPerChunk*slotItems + page - 1) / page * page
	return &slab{windowCap: windowCap, slotItems: slotItems, chunkLen: chunk, perChunk: chunk / slotItems}
}

// alloc claims the next slot, zeroed: an empty ring at LSN 0. It maps a
// new chunk when the last one is full.
func (b *slab) alloc() int32 {
	if len(b.chunks) == 0 || b.used == b.perChunk {
		b.chunks = append(b.chunks, allocChunk(b.chunkLen))
		mapped.Add(int64(4 * b.chunkLen))
		b.used = 0
	}
	i := int32(len(b.chunks)-1)<<slotBits | int32(b.used)
	b.used++
	clear(b.slot(i))
	return i
}

// slot returns slot i's items, header first.
func (b *slab) slot(i int32) []seq.Item {
	off := int(i&(1<<slotBits-1)) * b.slotItems
	return b.chunks[i>>slotBits][off : off+b.slotItems : off+b.slotItems]
}

// ring returns the ring over slot sl's buffer: pushes land in the slab,
// and putSlot must record them in the header.
func (b *slab) ring(sl []seq.Item) seq.Ring {
	size, pushed := int(sl[0]), int(word(sl[1:]))
	return seq.RingOver(sl[hdrItems:], (pushed-size)%b.windowCap, size, pushed)
}

// putSlot records r's length and push count, and lsn, in slot sl's
// header.
func putSlot(sl []seq.Item, r *seq.Ring, lsn uint64) {
	sl[0] = seq.Item(r.Len())
	setWord(sl[1:], uint64(r.T()))
	setWord(sl[3:], lsn)
}

// slotLSN returns the LSN in slot sl's header.
func slotLSN(sl []seq.Item) uint64 { return word(sl[3:]) }

// bytes returns the slab's mapped size.
func (b *slab) bytes() int64 { return int64(4 * b.chunkLen * len(b.chunks)) }

// free unmaps every chunk.
func (b *slab) free() {
	mapped.Add(-b.bytes())
	for _, c := range b.chunks {
		freeChunk(c)
	}
	b.chunks = nil
}

func word(s []seq.Item) uint64 { return uint64(uint32(s[0])) | uint64(uint32(s[1]))<<32 }

func setWord(s []seq.Item, v uint64) { s[0], s[1] = seq.Item(uint32(v)), seq.Item(uint32(v>>32)) }
