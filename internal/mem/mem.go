// Package mem provides the sparse, little-endian simulated memory shared by
// the guest image, the translated code cache, and the host machine simulator.
//
// Memory is organized as fixed-size pages allocated on first touch. All
// multi-byte accessors are little-endian (both the guest x86-like ISA and the
// host Alpha-like ISA are little-endian) and place no alignment restrictions;
// alignment policy is enforced by the machine simulator, not by the memory.
//
// Page lookup is a two-level page table rather than a hash map, because page
// resolution sits on the hottest path of the whole simulator (every guest and
// host load/store, every instruction fetch miss). The low 4 GiB of the
// address space — which holds the guest image, the BT's private tables, and
// the translated code cache — resolves through a dense directory of lazily
// allocated second-level tables; the rare page above 4 GiB falls back to a
// map. A one-entry last-page cache short-circuits the common case of
// consecutive accesses landing on the same page.
package mem

import (
	"encoding/binary"
	"fmt"
)

const (
	// PageShift is log2 of the page size.
	PageShift = 13
	// PageSize is the size of one backing page (8 KiB).
	PageSize = 1 << PageShift
	pageMask = PageSize - 1

	// Two-level table geometry: an L2 table spans l2Span pages (8 MiB of
	// address space); the dense L1 directory spans l1Entries L2 tables
	// (4 GiB). Addresses at or above denseLimit use the map fallback.
	l2Bits     = 10
	l2Span     = 1 << l2Bits
	l2Mask     = l2Span - 1
	l1Entries  = 512
	denseLimit = uint64(l1Entries) << (PageShift + l2Bits)
)

type page = [PageSize]byte

type l2table [l2Span]*page

// Memory is a sparse byte-addressable memory. The zero value is ready to use.
// All addresses are 64-bit; untouched memory reads as zero.
type Memory struct {
	// Last-page cache: the page holding the most recently resolved address.
	// lastPage is nil until the first successful resolution, so the zero
	// value of lastIdx cannot produce a false hit.
	lastIdx  uint64
	lastPage *page

	dense  [l1Entries]*l2table
	high   map[uint64]*page // pages at/above denseLimit, by page index
	npages int

	// Page protections, store watches, and the machine trap-bit table
	// (prot.go). Zero value: everything mapped rwx, nothing watched.
	protState
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{}
}

// page returns the backing page for addr, allocating it (and its L2 table)
// on first touch.
func (m *Memory) page(addr uint64) *page {
	idx := addr >> PageShift
	if idx == m.lastIdx && m.lastPage != nil {
		return m.lastPage
	}
	var p *page
	if addr < denseLimit {
		l2 := m.dense[idx>>l2Bits]
		if l2 == nil {
			l2 = new(l2table)
			m.dense[idx>>l2Bits] = l2
		}
		p = l2[idx&l2Mask]
		if p == nil {
			p = new(page)
			l2[idx&l2Mask] = p
			m.npages++
		}
	} else {
		if m.high == nil {
			m.high = make(map[uint64]*page)
		}
		p = m.high[idx]
		if p == nil {
			p = new(page)
			m.high[idx] = p
			m.npages++
		}
	}
	m.lastIdx, m.lastPage = idx, p
	return p
}

// peek returns the page for addr if it exists, without allocating.
func (m *Memory) peek(addr uint64) *page {
	idx := addr >> PageShift
	if idx == m.lastIdx && m.lastPage != nil {
		return m.lastPage
	}
	var p *page
	if addr < denseLimit {
		if l2 := m.dense[idx>>l2Bits]; l2 != nil {
			p = l2[idx&l2Mask]
		}
	} else {
		p = m.high[idx]
	}
	if p != nil {
		m.lastIdx, m.lastPage = idx, p
	}
	return p
}

// PeekPage returns the backing array of addr's page, or nil if the page
// has never been touched. The pointer is stable for the page's lifetime,
// so hot interpreters may cache it across accesses and read/write the
// page directly — provided they perform their own protection and watch
// checks first (the memory layer does none on this path) and drop the
// cached pointer when the run ends.
func (m *Memory) PeekPage(addr uint64) *[PageSize]byte {
	return m.peek(addr)
}

// Read8 reads one byte.
func (m *Memory) Read8(addr uint64) byte {
	p := m.peek(addr)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint64, v byte) {
	m.page(addr)[addr&pageMask] = v
}

// Read reads n bytes (n ≤ 8) starting at addr as a little-endian integer.
// It panics if n is not in 1..8.
func (m *Memory) Read(addr uint64, n int) uint64 {
	// Fast path: the access is contained in one page; the common power-of-
	// two sizes are single word copies.
	off := addr & pageMask
	if off+uint64(n) <= PageSize {
		p := m.peek(addr)
		switch n {
		case 1:
			if p == nil {
				return 0
			}
			return uint64(p[off])
		case 2:
			if p == nil {
				return 0
			}
			return uint64(binary.LittleEndian.Uint16(p[off : off+2]))
		case 4:
			if p == nil {
				return 0
			}
			return uint64(binary.LittleEndian.Uint32(p[off : off+4]))
		case 8:
			if p == nil {
				return 0
			}
			return binary.LittleEndian.Uint64(p[off : off+8])
		}
		checkSize("Read", n)
		if p == nil {
			return 0
		}
		var v uint64
		for i := n - 1; i >= 0; i-- {
			v = v<<8 | uint64(p[off+uint64(i)])
		}
		return v
	}
	checkSize("Read", n)
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(m.Read8(addr+uint64(i)))
	}
	return v
}

// Write writes the n low-order bytes (n ≤ 8) of v little-endian at addr.
// It panics if n is not in 1..8.
func (m *Memory) Write(addr uint64, v uint64, n int) {
	off := addr & pageMask
	if off+uint64(n) <= PageSize {
		p := m.page(addr)
		switch n {
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:off+2], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:off+4], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:off+8], v)
			return
		}
		checkSize("Write", n)
		for i := 0; i < n; i++ {
			p[off+uint64(i)] = byte(v >> (8 * i))
		}
		return
	}
	checkSize("Write", n)
	for i := 0; i < n; i++ {
		m.Write8(addr+uint64(i), byte(v>>(8*i)))
	}
}

// checkSize panics when a Read/Write size is out of range. The fast paths
// above dispatch on the valid power-of-two sizes directly, so only the odd
// sizes and genuinely bad calls reach it.
func checkSize(op string, n int) {
	if n < 1 || n > 8 {
		panic(fmt.Sprintf("mem: %s size %d out of range", op, n))
	}
}

// Read16 reads a little-endian 16-bit value.
func (m *Memory) Read16(addr uint64) uint16 {
	off := addr & pageMask
	if off+2 <= PageSize {
		if p := m.peek(addr); p != nil {
			return binary.LittleEndian.Uint16(p[off : off+2])
		}
		return 0
	}
	return uint16(m.Read(addr, 2))
}

// Read32 reads a little-endian 32-bit value.
func (m *Memory) Read32(addr uint64) uint32 {
	off := addr & pageMask
	if off+4 <= PageSize {
		if p := m.peek(addr); p != nil {
			return binary.LittleEndian.Uint32(p[off : off+4])
		}
		return 0
	}
	return uint32(m.Read(addr, 4))
}

// Read64 reads a little-endian 64-bit value.
func (m *Memory) Read64(addr uint64) uint64 {
	off := addr & pageMask
	if off+8 <= PageSize {
		if p := m.peek(addr); p != nil {
			return binary.LittleEndian.Uint64(p[off : off+8])
		}
		return 0
	}
	return m.Read(addr, 8)
}

// Write16 writes a little-endian 16-bit value.
func (m *Memory) Write16(addr uint64, v uint16) {
	off := addr & pageMask
	if off+2 <= PageSize {
		binary.LittleEndian.PutUint16(m.page(addr)[off:off+2], v)
		return
	}
	m.Write(addr, uint64(v), 2)
}

// Write32 writes a little-endian 32-bit value.
func (m *Memory) Write32(addr uint64, v uint32) {
	off := addr & pageMask
	if off+4 <= PageSize {
		binary.LittleEndian.PutUint32(m.page(addr)[off:off+4], v)
		return
	}
	m.Write(addr, uint64(v), 4)
}

// Write64 writes a little-endian 64-bit value.
func (m *Memory) Write64(addr uint64, v uint64) {
	off := addr & pageMask
	if off+8 <= PageSize {
		binary.LittleEndian.PutUint64(m.page(addr)[off:off+8], v)
		return
	}
	m.Write(addr, v, 8)
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & pageMask
		n := PageSize - off
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		if p := m.peek(addr); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			for i := range dst[:n] {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += n
	}
}

// WriteBytes copies src into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr & pageMask
		n := PageSize - off
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		copy(m.page(addr)[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
}

// Reset zeroes every allocated page while keeping the backing arena —
// pages, L2 tables, the high map, and the protection maps and trap table
// all stay allocated — so a pooled engine can reuse the memory for its
// next program without reallocating. After Reset all reads return zero
// and no page is protected or watched, exactly as in a fresh Memory.
func (m *Memory) Reset() {
	for _, l2 := range m.dense {
		if l2 == nil {
			continue
		}
		for _, p := range l2 {
			if p != nil {
				clear(p[:])
			}
		}
	}
	for _, p := range m.high {
		clear(p[:])
	}
	m.resetProt()
}

// Pages reports the number of allocated pages (for footprint accounting).
func (m *Memory) Pages() int { return m.npages }

// Footprint reports the allocated backing-store size in bytes.
func (m *Memory) Footprint() int { return m.npages * PageSize }
