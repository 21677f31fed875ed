package machine

import "mdabt/internal/host"

// pcTable is the trace tier's PC lookup table: one traceEntry for every
// instruction word, set where a step of a live trace starts, so that
// forming, entering, chaining and invalidating traces read arrays instead
// of hashing. Words are grouped in chunks of pcChunkWords (1 KiB of code),
// allocated when a step in one is first set and kept, cleared, for later
// traces, as a map keeps its buckets: a machine that re-forms the traces
// it dropped, or a Reset one that forms the traces of its next run over
// the same code, allocates nothing here. Clearing is entry by entry, so
// its cost follows the live steps. The table costs 16 B per 4 B word of
// every chunk ever touched.
//
// A chunk is found through a one-entry memo of the last chunk looked up,
// then a map. The memo also remembers a chunk that does not exist, as the
// shared empty noChunk, so formation's probes of the words past a trace's
// end cost no map lookup either. Keys are instruction-aligned PCs.
type pcTable struct {
	chunks  map[uint64]*pcChunk // by pc >> pcChunkShift
	lastKey uint64
	last    *pcChunk // chunks[lastKey], or &noChunk if there is none
	live    int      // entries set
}

const (
	pcChunkShift = 10
	pcChunkWords = 1 << pcChunkShift / host.InstBytes
)

type pcChunk [pcChunkWords]traceEntry

// noChunk stands in for every chunk not yet allocated. Nothing writes it:
// only set writes an entry, and set first allocates the real chunk.
var noChunk pcChunk

func newPCTable() pcTable {
	return pcTable{chunks: make(map[uint64]*pcChunk), last: &noChunk}
}

// chunk returns the chunk of pc, or &noChunk.
func (t *pcTable) chunk(pc uint64) *pcChunk {
	if pc>>pcChunkShift == t.lastKey {
		return t.last
	}
	return t.find(pc)
}

// find is chunk's memo miss: it looks pc's chunk up and memoizes it.
func (t *pcTable) find(pc uint64) *pcChunk {
	key := pc >> pcChunkShift
	c := t.chunks[key]
	if c == nil {
		c = &noChunk
	}
	t.lastKey, t.last = key, c
	return c
}

// pcWord is pc's index within its chunk.
func pcWord(pc uint64) uint64 { return pc / host.InstBytes % pcChunkWords }

// get returns the entry of the step at pc; its tr is nil when no live
// trace has a step at pc.
func (t *pcTable) get(pc uint64) traceEntry { return t.chunk(pc)[pcWord(pc)] }

// set records the step at pc, which must be unset.
func (t *pcTable) set(pc uint64, e traceEntry) {
	c := t.chunk(pc)
	if c == &noChunk {
		c = new(pcChunk)
		t.chunks[pc>>pcChunkShift], t.last = c, c
	}
	c[pcWord(pc)] = e
	t.live++
}

// del clears the entry at pc, if set.
func (t *pcTable) del(pc uint64) {
	if c := t.chunk(pc); c[pcWord(pc)].tr != nil {
		c[pcWord(pc)] = traceEntry{}
		t.live--
	}
}

// each calls f on every set entry, in no particular order, until f
// returns an error, which it returns.
func (t *pcTable) each(f func(pc uint64, e traceEntry) error) error {
	for key, c := range t.chunks {
		for i, e := range c {
			if e.tr == nil {
				continue
			}
			if err := f(key<<pcChunkShift+uint64(i)*host.InstBytes, e); err != nil {
				return err
			}
		}
	}
	return nil
}
