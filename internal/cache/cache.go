// Package cache models the Alpha ES40 on-chip cache hierarchy used by the
// paper's evaluation machine: split 64 KiB 2-way L1 instruction and data
// caches backed by a unified 2 MiB direct-mapped L2 (paper §V-A).
//
// The model is a classic set-associative tag array with true-LRU replacement
// and charges additional latency cycles on misses. It tracks no data, only
// tags; it is used by the machine simulator to account for the code-locality
// effects the paper's code-rearrangement experiment (Fig. 11) depends on.
//
// Stats().Accesses counts probes, not the simulated program's accesses:
// both of the machine simulator's execution tiers skip the L1D probe for
// an access to the line of the previous access, a guaranteed hit that
// cannot change any later replacement decision. Misses, and so every
// charged cycle, are exact; Accesses and MissRate undercount hits.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name       string
	Size       int // total bytes
	LineSize   int // bytes per line, power of two
	Assoc      int // ways; Size/LineSize/Assoc sets must be a power of two
	HitLatency int // extra cycles charged when this level hits (beyond upper levels)
}

// Stats holds access counters for one cache.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses, or 0 when no accesses occurred.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a single set-associative tag array with LRU replacement.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	// tags[set*assoc+way] holds line+1, with 0 meaning invalid (folding the
	// validity bit into the tag keeps the probe loop to one comparison);
	// lru[set*assoc+way] holds a recency stamp.
	tags  []uint64
	lru   []uint64
	clock uint64
	stats Stats
}

// New builds a cache from cfg. It panics on a malformed geometry, since
// configurations are compile-time constants in this codebase.
func New(cfg Config) *Cache {
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	if cfg.Assoc <= 0 || cfg.Size%(cfg.LineSize*cfg.Assoc) != 0 {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d line=%d assoc=%d", cfg.Name, cfg.Size, cfg.LineSize, cfg.Assoc))
	}
	sets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets not a power of two", cfg.Name, sets))
	}
	var lineShift uint
	for 1<<lineShift != cfg.LineSize {
		lineShift++
	}
	n := sets * cfg.Assoc
	return &Cache{
		cfg:       cfg,
		lineShift: lineShift,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, n),
		lru:       make([]uint64, n),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access probes the cache for addr, allocating on miss. It reports whether
// the access hit. The direct-mapped and 2-way geometries — the only ones in
// the ES40 hierarchy — are specialized: together they sit on the simulator's
// per-instruction path, so the generic way loop is worth bypassing.
func (c *Cache) Access(addr uint64) bool {
	c.stats.Accesses++
	c.clock++
	line := addr >> c.lineShift
	key := line + 1
	switch c.cfg.Assoc {
	case 1:
		set := int(line & c.setMask)
		if c.tags[set] == key {
			return true
		}
		c.stats.Misses++
		c.tags[set] = key
		return false
	case 2:
		set := int(line&c.setMask) * 2
		t := c.tags[set : set+2 : set+2]
		l := c.lru[set : set+2 : set+2]
		if t[0] == key {
			l[0] = c.clock
			return true
		}
		if t[1] == key {
			l[1] = c.clock
			return true
		}
		c.stats.Misses++
		w := 0
		if t[0] != 0 && (t[1] == 0 || l[1] < l[0]) {
			w = 1
		}
		t[w] = key
		l[w] = c.clock
		return false
	}
	set := int(line&c.setMask) * c.cfg.Assoc
	// Hit?
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.tags[set+w] == key {
			c.lru[set+w] = c.clock
			return true
		}
	}
	c.stats.Misses++
	// Fill: pick an invalid way or the least recently used one.
	victim := set
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.tags[set+w] == 0 {
			victim = set + w
			break
		}
		if c.lru[set+w] < c.lru[victim] {
			victim = set + w
		}
	}
	c.tags[victim] = key
	c.lru[victim] = c.clock
	return false
}

// Contains reports whether addr's line is resident, without updating state.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line&c.setMask) * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.tags[set+w] == line+1 {
			return true
		}
	}
	return false
}

// Flush invalidates the entire cache. Statistics are preserved.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = 0
	}
}

// Reset restores the cache to its just-built state: all lines invalid, LRU
// clock and statistics zeroed. Unlike Flush it leaves no trace of past
// activity, so a reused simulated machine behaves bit-identically to a
// fresh one.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
	}
	for i := range c.lru {
		c.lru[i] = 0
	}
	c.clock = 0
	c.stats = Stats{}
}

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

// LineShift returns log2(LineSize), for callers that memoize
// line-granular probe results.
func (c *Cache) LineShift() uint { return c.lineShift }

// Hierarchy is the two-level split-L1 hierarchy of the ES40. A probe charges
// 0 extra cycles on an L1 hit, L2.HitLatency on an L1 miss that hits in L2,
// and MemLatency when both miss.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	MemLatency   int
	memAccesses  uint64
}

// ES40Params returns the cache geometry of the paper's evaluation machine
// (§V-A): 64 KiB 2-way split L1 I/D, 2 MiB direct-mapped unified L2.
func ES40Params() (l1i, l1d, l2 Config, memLatency int) {
	l1i = Config{Name: "L1I", Size: 64 << 10, LineSize: 64, Assoc: 2, HitLatency: 0}
	l1d = Config{Name: "L1D", Size: 64 << 10, LineSize: 64, Assoc: 2, HitLatency: 0}
	l2 = Config{Name: "L2", Size: 2 << 20, LineSize: 64, Assoc: 1, HitLatency: 12}
	return l1i, l1d, l2, 120
}

// NewES40 builds the ES40 hierarchy.
func NewES40() *Hierarchy {
	l1i, l1d, l2, memLat := ES40Params()
	return &Hierarchy{L1I: New(l1i), L1D: New(l1d), L2: New(l2), MemLatency: memLat}
}

// Fetch probes the instruction path for addr and returns the extra latency
// cycles to charge.
func (h *Hierarchy) Fetch(addr uint64) int { return h.probe(h.L1I, addr) }

// Data probes the data path for addr and returns the extra latency cycles to
// charge.
func (h *Hierarchy) Data(addr uint64) int { return h.probe(h.L1D, addr) }

func (h *Hierarchy) probe(l1 *Cache, addr uint64) int {
	if l1.Access(addr) {
		return 0
	}
	if h.L2.Access(addr) {
		return h.L2.cfg.HitLatency
	}
	h.memAccesses++
	return h.MemLatency
}

// MemAccesses reports the number of accesses that missed all cache levels.
func (h *Hierarchy) MemAccesses() uint64 { return h.memAccesses }

// Reset restores every level to its just-built state (see Cache.Reset).
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.memAccesses = 0
}
