package core

import (
	"fmt"

	"mdabt/internal/guest"
	"mdabt/internal/mem"
	"mdabt/internal/store"
)

// interpretBlock interprets one execution of the basic block starting at
// pc: it steps the reference CPU until a block-ending instruction has
// executed (or the block-length cap is hit), collecting the MDA profile and
// charging interpreter cycles. It returns the guest PC after the block.
//
// Like RunCensus it follows straight-line code by index through the decode
// cache's dense window and probes the cache only where EIP leaves it.
func (e *Engine) interpretBlock(pc uint32) (uint32, error) {
	e.CPU.EIP = pc
	var acc guest.Access
	de, err := e.decoded(pc)
	for n := 1; ; n++ {
		if err != nil {
			return 0, fmt.Errorf("core: interpret at %#x: %w", pc, err)
		}
		if err := e.CPU.Exec(e.Mem, pc, &de.inst, int(de.len), &acc); err != nil {
			return 0, err
		}
		e.stats.InterpretedInsts++
		e.Mach.AddCycles(interpCyclesPerInst)
		// Self-modifying code: an interpreted store into a watched code page
		// invalidates the stale translations and decode entries it covers.
		// Translated stores reach here too — the write trap reroutes them to
		// this interpreter, so this hook is the single SMC choke point.
		if e.Mem.Armed() {
			if acc.Store && e.Mem.WatchedRange(uint64(acc.EA), int(acc.Size)) {
				e.smcWrite(uint64(acc.EA), int(acc.Size))
			}
			if acc.N == 2 && e.Mem.WatchedRange(uint64(acc.EA2), int(acc.Size)) {
				e.smcWrite(uint64(acc.EA2), int(acc.Size))
			}
		}
		e.stats.InterpretedMDAs += de.count(&acc)
		if e.CPU.Halted {
			e.halted = true
			return e.CPU.EIP, nil
		}
		if de.inst.Op.EndsBlock() || n == maxBlockInsts {
			return e.CPU.EIP, nil
		}
		next := pc + uint32(de.len)
		pc = e.CPU.EIP
		if de = e.dec.fallThrough(pc); pc == next && de != nil {
			// decoded's fetch check (CheckFetch passes every fetch while
			// no protection is set).
			if mf := e.Mem.CheckFetch(uint64(pc), int(de.len)); mf != nil {
				err = &guest.Fault{PC: pc, Mem: *mf}
			}
		} else {
			de, err = e.decoded(pc)
		}
	}
}

// Census is a pure-interpretation measurement of a guest program: the data
// behind Table I (NMI, MDA counts, MDA ratio) and Figure 15 (per-site
// misalignment ratio classes). No host machine is involved.
type Census struct {
	Insts   uint64 // guest instructions executed
	MemRefs uint64 // data memory accesses (all sizes)
	MDAs    uint64 // misaligned accesses
	// Sites holds every static instruction that made at least one
	// non-byte access, sorted by PC (store.TrapProfile's canonical form).
	Sites    []store.TrapSite
	Halted   bool
	FinalCPU guest.CPU
}

// Profile views the census as a one-session trap profile sharing c.Sites;
// callers must not mutate it.
func (c *Census) Profile() *store.TrapProfile {
	return &store.TrapProfile{Sessions: 1, Sites: c.Sites}
}

// NMI returns the number of distinct static instructions that performed at
// least one MDA (Table I's NMI column).
func (c *Census) NMI() int {
	n := 0
	for _, s := range c.Sites {
		if s.MDA > 0 {
			n++
		}
	}
	return n
}

// Ratio returns MDAs / memory references (Table I's Ratio column).
func (c *Census) Ratio() float64 {
	if c.MemRefs == 0 {
		return 0
	}
	return float64(c.MDAs) / float64(c.MemRefs)
}

// RatioClasses buckets MDA sites by per-site misalignment ratio, matching
// Figure 15's categories. The four counts are sites with ratio <50%, =50%,
// >50% (but below 100%), and =100%.
func (c *Census) RatioClasses() (lt, eq, gt, always int) {
	for _, s := range c.Sites {
		if s.MDA == 0 {
			continue
		}
		total := s.MDA + s.Aligned
		switch {
		case s.Aligned == 0:
			always++
		case s.MDA*2 == total:
			eq++
		case s.MDA*2 < total:
			lt++
		default:
			gt++
		}
	}
	return lt, eq, gt, always
}

// RunCensus interprets the program at entry until HALT (or maxInsts) and
// returns its alignment census. When the memory has page protections armed
// and the program faults, the census collected so far is returned alongside
// the *guest.Fault (the engine cosim tests compare this partial state
// against the DBT's rewound state).
func RunCensus(m *mem.Memory, entry uint32, maxInsts uint64) (*Census, error) {
	cpu := &guest.CPU{}
	cpu.Reset(entry)
	c := &Census{}
	// Per-site counts accumulate in the decode-cache entries (no map hit per
	// memory reference); Sites is materialized once at the end.
	var dec decodeCache
	finish := func(err error) (*Census, error) {
		var tp store.TrapProfile
		dec.each(func(pc uint32, de *decEntry) {
			if p := de.prof; p != nil {
				tp.Add(pc, p.mda, p.aligned)
			}
		})
		c.Sites = tp.Sites
		c.Halted = cpu.Halted
		c.FinalCPU = *cpu
		return c, err
	}
	var acc guest.Access
	for c.Insts < maxInsts && !cpu.Halted {
		pc := cpu.EIP
		de, _, err := dec.decoded(pc, m)
		if err != nil {
			return nil, fmt.Errorf("core: census at %#x: %w", pc, err)
		}
		// Run straight-line code from pc, stepping to each fall-through by
		// index into the dense window. The cache is probed again only when
		// EIP leaves the straight line (a control transfer or a REPMOVS4
		// re-execution) or the fall-through is not decoded: a first visit,
		// code outside the window, or a decode a store just dropped.
		for {
			if m.Armed() {
				if f := m.CheckFetch(uint64(pc), int(de.len)); f != nil {
					return finish(&guest.Fault{PC: pc, Mem: *f})
				}
			}
			if err := cpu.Exec(m, pc, &de.inst, int(de.len), &acc); err != nil {
				return finish(err)
			}
			// Self-modifying code: drop decode entries a store overwrote so
			// the next visit re-decodes the new bytes.
			if acc.Store && dec.mayContain(uint64(acc.EA), int(acc.Size)) {
				dec.invalidateWrite(uint64(acc.EA), int(acc.Size))
			}
			if acc.N == 2 && dec.mayContain(uint64(acc.EA2), int(acc.Size)) {
				dec.invalidateWrite(uint64(acc.EA2), int(acc.Size))
			}
			c.Insts++
			c.MemRefs += uint64(acc.N)
			c.MDAs += de.count(&acc)
			next := pc + uint32(de.len)
			if cpu.EIP != next || cpu.Halted || c.Insts >= maxInsts {
				break
			}
			if de = dec.fallThrough(next); de == nil {
				break
			}
			pc = next
		}
	}
	return finish(nil)
}

// TrainProfile runs the program at entry under the census interpreter (the
// profiling pre-execution of the paper's Fig. 3) and returns its profile:
// the static-profile mechanism's site set is its StaticSites.
func TrainProfile(m *mem.Memory, entry uint32, maxInsts uint64) (*store.TrapProfile, error) {
	c, err := RunCensus(m, entry, maxInsts)
	if err != nil {
		return nil, err
	}
	if !c.Halted {
		return nil, fmt.Errorf("core: train profile: program did not halt within %d instructions", maxInsts)
	}
	return c.Profile(), nil
}
