package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// protModel is the reference for the trap table: page state kept apart
// from Memory's own maps, and the trap predicates recomputed from it by
// brute force on every query.
type protModel struct {
	prot     map[uint64]Prot // absent ⇒ ProtAll
	unmapped map[uint64]bool
	watch    map[uint64]bool
	armed    bool
	maxPage  uint64 // highest page any operation covered since creation
}

func newProtModel() *protModel {
	return &protModel{prot: map[uint64]Prot{}, unmapped: map[uint64]bool{}, watch: map[uint64]bool{}}
}

func (r *protModel) ownLoad(i uint64) bool {
	if r.unmapped[i] {
		return true
	}
	p, ok := r.prot[i]
	return ok && p&ProtRead == 0
}

func (r *protModel) ownStore(i uint64) bool {
	if r.unmapped[i] || r.watch[i] {
		return true
	}
	p, ok := r.prot[i]
	return ok && p&ProtWrite == 0
}

// pageTrapped is the reference for PageTrapped: the store gate includes
// the guard bit inherited from a store-trapping predecessor.
func (r *protModel) pageTrapped(i uint64) (load, store bool) {
	return r.ownLoad(i), r.ownStore(i) || (i > 0 && r.ownStore(i-1))
}

// watchedRange is the reference for WatchedRange.
func (r *protModel) watchedRange(addr uint64, n int) bool {
	for i := addr >> PageShift; n > 0 && i <= (addr+uint64(n)-1)>>PageShift; i++ {
		if r.watch[i] {
			return true
		}
	}
	return false
}

func (r *protModel) accessTrap(addr uint64, size int, store bool) bool {
	for _, i := range []uint64{addr >> PageShift, (addr + uint64(size) - 1) >> PageShift} {
		ld, st := r.pageTrapped(i)
		if (store && st) || (!store && ld) {
			return true
		}
	}
	return false
}

// TestTrapTableReferenceModel drives random Protect/Unmap/Map/SetWatch/
// Reset sequences over page 0, neighbouring pairs and the pages at the top
// of the protectable range, and after every step compares AccessTrap (loads
// and stores, including accesses straddling past the table's end),
// PageTrapped, Watched, WatchedRange (ranges within a page, straddling
// into the next one or two, and past the table's end) and Armed against
// protModel. It also pins the table's size
// to the highest page ever armed plus its guard successor.
func TestTrapTableReferenceModel(t *testing.T) {
	top := denseLimit>>PageShift - 1 // highest protectable page
	anchors := []uint64{0, 1, 2, 5, 6, 7, 200, top - 2, top - 1, top}
	prots := []Prot{0, ProtRead, ProtWrite, ProtRW, ProtRead | ProtExec, ProtExec, ProtAll}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		ref := newProtModel()
		for step := 0; step < 400; step++ {
			first := anchors[rng.Intn(len(anchors))]
			pages := uint64(1 + rng.Intn(3))
			if first+pages-1 > top {
				pages = top - first + 1
			}
			// Unaligned ranges cover every page they overlap.
			addr := first<<PageShift + uint64(rng.Intn(PageSize))
			size := (pages-1)<<PageShift + 1
			if lim := (first+pages)<<PageShift - addr; size > lim {
				size = lim
			}
			var op string
			switch k := rng.Intn(20); {
			case k < 6:
				p := prots[rng.Intn(len(prots))]
				op = fmt.Sprintf("Protect(%#x, %#x, %v)", addr, size, p)
				m.Protect(addr, size, p)
				ref.each(addr, size, func(i uint64) {
					delete(ref.unmapped, i)
					if p == ProtAll {
						delete(ref.prot, i)
					} else {
						ref.prot[i] = p
					}
				})
			case k < 9:
				op = fmt.Sprintf("Unmap(%#x, %#x)", addr, size)
				m.Unmap(addr, size)
				ref.each(addr, size, func(i uint64) {
					delete(ref.prot, i)
					ref.unmapped[i] = true
				})
			case k < 11:
				op = fmt.Sprintf("Map(%#x, %#x)", addr, size)
				m.Map(addr, size)
				ref.each(addr, size, func(i uint64) {
					delete(ref.prot, i)
					delete(ref.unmapped, i)
				})
			case k < 18:
				on := rng.Intn(3) != 0
				op = fmt.Sprintf("SetWatch(%#x, %#x, %v)", addr, size, on)
				m.SetWatch(addr, size, on)
				ref.each(addr, size, func(i uint64) {
					if on {
						ref.watch[i] = true
					} else {
						delete(ref.watch, i)
					}
				})
			default:
				op = "Reset"
				m.Reset()
				ref.prot, ref.unmapped, ref.watch = map[uint64]Prot{}, map[uint64]bool{}, map[uint64]bool{}
				ref.armed = false
			}
			if err := ref.check(m, anchors); err != nil {
				t.Fatalf("seed %d step %d after %s: %v", seed, step, op, err)
			}
		}
	}
}

// each applies fn to every page overlapping [addr, addr+size) and records
// the arming.
func (r *protModel) each(addr, size uint64, fn func(i uint64)) {
	last := (addr + size - 1) >> PageShift
	for i := addr >> PageShift; i <= last; i++ {
		fn(i)
	}
	r.armed = true
	r.maxPage = max(r.maxPage, last)
}

// check compares m against the model at every anchor page, its
// neighbours, and the pages around the end of m's trap table.
func (r *protModel) check(m *Memory, anchors []uint64) error {
	if m.Armed() != r.armed {
		return fmt.Errorf("Armed() = %v, want %v", m.Armed(), r.armed)
	}
	if r.armed || len(m.trap) > 0 {
		if want := r.maxPage + 2; uint64(len(m.trap)) != want {
			return fmt.Errorf("trap table covers %d pages, want %d", len(m.trap), want)
		}
	}
	end := uint64(len(m.trap))
	pages := []uint64{end, end + 1}
	if end > 0 {
		pages = append(pages, end-1)
	}
	for _, a := range anchors {
		pages = append(pages, a, a+1)
		if a > 0 {
			pages = append(pages, a-1)
		}
	}
	for _, i := range pages {
		ld, st := m.PageTrapped(i << PageShift)
		wld, wst := r.pageTrapped(i)
		if ld != wld || st != wst {
			return fmt.Errorf("PageTrapped(page %#x) = %v,%v, want %v,%v", i, ld, st, wld, wst)
		}
		base := i << PageShift
		for _, off := range []uint64{0, PageSize - 1} {
			if got, want := m.Watched(base+off), r.watch[i]; got != want {
				return fmt.Errorf("Watched(%#x) = %v, want %v", base+off, got, want)
			}
		}
		for _, w := range []struct {
			addr uint64
			n    int
		}{{base, 0}, {base, 1}, {base + 8, 8}, {base + PageSize - 1, 2}, {base + PageSize - 3, PageSize + 4}, {base, 3 * PageSize}} {
			if got, want := m.WatchedRange(w.addr, w.n), r.watchedRange(w.addr, w.n); got != want {
				return fmt.Errorf("WatchedRange(%#x, %d) = %v, want %v", w.addr, w.n, got, want)
			}
		}
		// In-page accesses at both ends, and accesses straddling into
		// the next page (past the table's end when i is its last page).
		for _, a := range []struct {
			addr uint64
			size int
		}{{base, 1}, {base, 8}, {base + PageSize - 8, 8}, {base + PageSize - 1, 2}, {base + PageSize - 3, 4}, {base + PageSize - 5, 8}} {
			for _, store := range []bool{false, true} {
				if got, want := m.AccessTrap(a.addr, a.size, store), r.accessTrap(a.addr, a.size, store); got != want {
					return fmt.Errorf("AccessTrap(%#x, %d, store=%v) = %v, want %v", a.addr, a.size, store, got, want)
				}
			}
		}
	}
	return nil
}
