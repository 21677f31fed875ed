package machine

import (
	"testing"

	"mdabt/internal/host"
)

// TestPCTable sets, gets and deletes entries on both sides of a chunk
// boundary at farCode and at an address above 4 GiB, and checks the live
// count, that a chunk no step was ever set in reads as empty without being
// allocated, that deleting keeps a chunk for the next set, and that a
// set/delete cycle over kept chunks allocates nothing.
func TestPCTable(t *testing.T) {
	tab := newPCTable()
	tr := &trace{id: 1}
	const high = farCode + 5<<32
	if farCode%(1<<pcChunkShift) != 0 || high%(1<<pcChunkShift) != 0 {
		t.Fatal("farCode is not a chunk boundary")
	}
	var pcs []uint64
	for _, b := range []uint64{farCode, high} {
		pcs = append(pcs, b-2*host.InstBytes, b-host.InstBytes, b, b+host.InstBytes)
	}
	for _, pc := range pcs {
		if e := tab.get(pc); e.tr != nil {
			t.Fatalf("empty table has an entry at %#x", pc)
		}
	}
	if len(tab.chunks) != 0 {
		t.Fatalf("gets allocated %d chunks", len(tab.chunks))
	}
	for i, pc := range pcs {
		tab.set(pc, traceEntry{tr: tr, idx: int32(i)})
	}
	if tab.live != len(pcs) || len(tab.chunks) != 4 {
		t.Fatalf("%d entries live in %d chunks, want %d in 4", tab.live, len(tab.chunks), len(pcs))
	}
	for i, pc := range pcs {
		if e := tab.get(pc); e.tr != tr || e.idx != int32(i) {
			t.Fatalf("get(%#x) = %+v, want step %d", pc, e, i)
		}
	}
	// Unset words of the same chunks read as empty.
	for _, b := range []uint64{farCode, high} {
		for _, pc := range []uint64{b - 3*host.InstBytes, b + 2*host.InstBytes} {
			if e := tab.get(pc); e.tr != nil {
				t.Fatalf("get(%#x) = %+v, want no entry", pc, e)
			}
		}
	}
	// A neighbouring chunk that was never set reads as empty.
	if e := tab.get(high + 1<<pcChunkShift); e.tr != nil || len(tab.chunks) != 4 {
		t.Fatalf("unset chunk: entry %+v, %d chunks", e, len(tab.chunks))
	}

	// Delete the words just below each boundary, and one twice.
	kept := map[uint64]*pcChunk{}
	for k, c := range tab.chunks {
		kept[k] = c
	}
	for _, pc := range []uint64{farCode - host.InstBytes, high - host.InstBytes, high - host.InstBytes} {
		tab.del(pc)
		if tab.get(pc).tr != nil {
			t.Fatalf("entry at %#x survived its deletion", pc)
		}
	}
	if tab.live != len(pcs)-2 {
		t.Fatalf("%d entries live after 2 deletions, want %d", tab.live, len(pcs)-2)
	}
	for i, pc := range pcs {
		if pc == farCode-host.InstBytes || pc == high-host.InstBytes {
			continue
		}
		if e := tab.get(pc); e.tr != tr || e.idx != int32(i) {
			t.Fatalf("deleting a neighbour changed get(%#x) to %+v", pc, e)
		}
	}
	for _, pc := range pcs {
		tab.del(pc)
	}
	if tab.live != 0 {
		t.Fatalf("%d entries live after deleting all", tab.live)
	}
	if len(tab.chunks) != len(kept) {
		t.Fatalf("deletion dropped chunks: %d of %d left", len(tab.chunks), len(kept))
	}
	for k, c := range tab.chunks {
		if kept[k] != c {
			t.Fatalf("chunk %#x replaced", k<<pcChunkShift)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i, pc := range pcs {
			tab.set(pc, traceEntry{tr: tr, idx: int32(i)})
		}
		for _, pc := range pcs {
			tab.del(pc)
		}
	}); allocs != 0 {
		t.Fatalf("a set/delete cycle over kept chunks allocated %v objects", allocs)
	}
	if noChunk != (pcChunk{}) {
		t.Fatal("the shared empty chunk was written")
	}
}
