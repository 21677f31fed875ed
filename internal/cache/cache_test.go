package cache

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{Name: "t", Size: 1024, LineSize: 64, Assoc: 2, HitLatency: 10})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x103f) {
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1040) {
		t.Fatal("next-line access hit while cold")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want 4 accesses / 2 misses", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 8 sets, 2 ways; addresses 64*8=512 apart collide
	const stride = 512
	a, b, d := uint64(0), uint64(stride), uint64(2*stride)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent
	c.Access(d) // evicts b (LRU)
	if !c.Contains(a) {
		t.Fatal("a evicted, want kept (MRU)")
	}
	if c.Contains(b) {
		t.Fatal("b kept, want evicted (LRU)")
	}
	if !c.Contains(d) {
		t.Fatal("d not resident after fill")
	}
}

func TestFlush(t *testing.T) {
	c := small()
	c.Access(0)
	c.Flush()
	if c.Contains(0) {
		t.Fatal("line survived flush")
	}
	if c.Stats().Accesses != 1 {
		t.Fatal("flush reset stats")
	}
}

func TestContainsDoesNotAllocate(t *testing.T) {
	c := small()
	if c.Contains(0x40) {
		t.Fatal("cold Contains reported true")
	}
	if !c.Access(0x40) {
		// expected miss
	}
	if c.Stats().Accesses != 1 {
		t.Fatal("Contains counted as access")
	}
}

func TestAccessIdempotentAfterFill(t *testing.T) {
	c := small()
	f := func(addr uint64) bool {
		addr &= 0xffff
		c.Access(addr)
		return c.Access(addr) // immediately re-accessing must hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	c := small() // 1 KiB
	// Touch exactly the cache's capacity once, then re-walk: all hits.
	for a := uint64(0); a < 1024; a += 64 {
		c.Access(a)
	}
	before := c.Stats().Misses
	for a := uint64(0); a < 1024; a += 64 {
		if !c.Access(a) {
			t.Fatalf("capacity walk missed at %#x", a)
		}
	}
	if c.Stats().Misses != before {
		t.Fatal("misses grew on resident working set")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	bad := []Config{
		{Name: "line0", Size: 1024, LineSize: 0, Assoc: 1},
		{Name: "line3", Size: 1024, LineSize: 48, Assoc: 1},
		{Name: "sets3", Size: 192, LineSize: 64, Assoc: 1},
		{Name: "assoc0", Size: 1024, LineSize: 64, Assoc: 0},
	}
	for _, cfg := range bad {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %s did not panic", cfg.Name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewES40()
	if lat := h.Fetch(0); lat != h.MemLatency {
		t.Fatalf("cold fetch latency = %d, want %d", lat, h.MemLatency)
	}
	if lat := h.Fetch(0); lat != 0 {
		t.Fatalf("warm fetch latency = %d, want 0", lat)
	}
	if h.MemAccesses() != 1 {
		t.Fatalf("MemAccesses = %d, want 1", h.MemAccesses())
	}
	// Evict from L1I (64KiB 2-way, 512 sets => 32 KiB stride collides) but
	// stay in the 2 MiB L2: third conflicting line evicts the first from L1,
	// refetch should then be an L2 hit costing L2's latency.
	const stride = 32 << 10
	h.Fetch(1 * stride)
	h.Fetch(2 * stride)
	if lat := h.Fetch(0); lat != h.L2.Config().HitLatency {
		t.Fatalf("L2-hit fetch latency = %d, want %d", lat, h.L2.Config().HitLatency)
	}
}

func TestHierarchySplitL1(t *testing.T) {
	h := NewES40()
	h.Fetch(0x4000)
	// Same line through the data path must miss L1D (split caches) but hit L2.
	if lat := h.Data(0x4000); lat != h.L2.Config().HitLatency {
		t.Fatalf("data probe after fetch = %d, want L2 hit %d", lat, h.L2.Config().HitLatency)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("empty MissRate != 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Fatalf("MissRate = %v, want 0.25", s.MissRate())
	}
}

// lruModel is the reference for Cache: each set is a list of resident
// lines, most recently used first.
type lruModel struct {
	sets      [][]uint64
	assoc     int
	lineShift uint
}

func newLRUModel(cfg Config) *lruModel {
	m := &lruModel{assoc: cfg.Assoc}
	for 1<<m.lineShift != cfg.LineSize {
		m.lineShift++
	}
	m.sets = make([][]uint64, cfg.Size/(cfg.LineSize*cfg.Assoc))
	return m
}

func (m *lruModel) access(addr uint64) bool {
	line := addr >> m.lineShift
	set := line % uint64(len(m.sets))
	l := m.sets[set]
	for i, x := range l {
		if x == line {
			copy(l[1:i+1], l[:i])
			l[0] = line
			return true
		}
	}
	if len(l) < m.assoc {
		l = append(l, 0)
	}
	copy(l[1:], l)
	l[0] = line
	m.sets[set] = l
	return false
}

func (m *lruModel) contains(addr uint64) bool {
	line := addr >> m.lineShift
	for _, x := range m.sets[line%uint64(len(m.sets))] {
		if x == line {
			return true
		}
	}
	return false
}

func (m *lruModel) reset() {
	for i := range m.sets {
		m.sets[i] = nil
	}
}

// TestCacheReferenceModel sends seeded random address streams through
// direct-mapped, 2-way and 4-way caches (the last on the generic way loop)
// and checks every probe, Contains and the counters against a per-set
// LRU-list model, with Resets and Flushes mid-stream.
func TestCacheReferenceModel(t *testing.T) {
	for _, assoc := range []int{1, 2, 4} {
		cfg := Config{Name: "ref", Size: 1024, LineSize: 64, Assoc: assoc}
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c, m := New(cfg), newLRUModel(cfg)
			var want Stats
			for i := 0; i < 5000; i++ {
				// 64 lines over a 16-line cache: hits and conflict misses.
				addr := uint64(rng.Intn(64*64)) + uint64(seed)<<20
				switch r := rng.Intn(500); {
				case r == 0:
					c.Reset()
					m.reset()
					want = Stats{}
				case r == 1:
					c.Flush()
					m.reset()
				}
				if got, exp := c.Contains(addr), m.contains(addr); got != exp {
					t.Fatalf("assoc %d seed %d step %d: Contains(%#x) = %v, model %v", assoc, seed, i, addr, got, exp)
				}
				hit, exp := c.Access(addr), m.access(addr)
				if hit != exp {
					t.Fatalf("assoc %d seed %d step %d: Access(%#x) hit = %v, model %v", assoc, seed, i, addr, hit, exp)
				}
				want.Accesses++
				if !exp {
					want.Misses++
				}
				if c.Stats() != want {
					t.Fatalf("assoc %d seed %d step %d: stats %+v, want %+v", assoc, seed, i, c.Stats(), want)
				}
			}
		}
	}
}

// TestNewES40Bytes bounds the memory a fresh ES40 hierarchy allocates: the
// tag arrays of the three levels (16 KiB per 2-way L1 with its recency
// stamps, 256 KiB for the direct-mapped L2, which keeps no stamps). Every
// fresh simulated machine builds one.
func TestNewES40Bytes(t *testing.T) {
	const runs = 10
	const budget = 320 << 10
	keep := make([]*Hierarchy, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewES40()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Errorf("NewES40 allocates %d bytes, budget %d", per, budget)
	}
	runtime.KeepAlive(keep)
}

func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{Name: "b", Size: 64 << 10, LineSize: 64, Assoc: 2})
	c.Access(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(0)
	}
}
