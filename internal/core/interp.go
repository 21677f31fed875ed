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
func (e *Engine) interpretBlock(pc uint32) (uint32, error) {
	e.CPU.EIP = pc
	for n := 0; n < maxBlockInsts; n++ {
		cur := e.CPU.EIP
		de, err := e.decoded(cur)
		if err != nil {
			return 0, fmt.Errorf("core: interpret at %#x: %w", cur, err)
		}
		info, err := e.CPU.Exec(e.Mem, cur, &de.inst, de.len)
		if err != nil {
			return 0, err
		}
		e.stats.InterpretedInsts++
		e.Mach.AddCycles(interpCyclesPerInst)
		// Self-modifying code: an interpreted store into a watched code page
		// invalidates the stale translations and decode entries it covers.
		// Translated stores reach here too — the write trap reroutes them to
		// this interpreter, so this hook is the single SMC choke point.
		if e.Mem.Armed() {
			if info.IsMem && info.IsStore && e.Mem.WatchedRange(uint64(info.EA), info.Size) {
				e.smcWrite(uint64(info.EA), info.Size)
			}
			if info.IsMem2 && info.IsStore2 && e.Mem.WatchedRange(uint64(info.EA2), info.Size2) {
				e.smcWrite(uint64(info.EA2), info.Size2)
			}
		}
		if info.IsMem && info.Size > 1 {
			s := de.profile()
			if info.MDA {
				s.mda++
				e.stats.InterpretedMDAs++
			} else {
				s.aligned++
			}
		}
		if info.IsMem2 {
			s := de.profile()
			if info.MDA2 {
				s.mda++
				e.stats.InterpretedMDAs++
			} else {
				s.aligned++
			}
		}
		if e.CPU.Halted {
			e.halted = true
			return e.CPU.EIP, nil
		}
		if de.inst.Op.EndsBlock() {
			break
		}
	}
	return e.CPU.EIP, nil
}

// profile returns (creating if needed) the block profile for pc.
func (e *Engine) profile(pc uint32) *blockProfile {
	p := e.profiles[pc]
	if p == nil {
		p = &blockProfile{}
		e.profiles[pc] = p
	}
	return p
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
		dec.forEachProf(func(pc uint32, p *siteProfile) { tp.Add(pc, p.mda, p.aligned) })
		c.Sites = tp.Sites
		c.Halted = cpu.Halted
		c.FinalCPU = *cpu
		return c, err
	}
	for c.Insts < maxInsts && !cpu.Halted {
		pc := cpu.EIP
		de, _, err := dec.decoded(pc, m)
		if err != nil {
			return nil, fmt.Errorf("core: census at %#x: %w", pc, err)
		}
		if m.Armed() {
			if f := m.CheckFetch(uint64(pc), de.len); f != nil {
				return finish(&guest.Fault{PC: pc, Mem: *f})
			}
		}
		info, err := cpu.Exec(m, pc, &de.inst, de.len)
		if err != nil {
			return finish(err)
		}
		// Self-modifying code: drop decode entries a store overwrote so the
		// next visit re-decodes the new bytes.
		if info.IsMem && info.IsStore && dec.mayContain(uint64(info.EA), info.Size) {
			dec.invalidateWrite(uint64(info.EA), info.Size)
		}
		if info.IsMem2 && info.IsStore2 && dec.mayContain(uint64(info.EA2), info.Size2) {
			dec.invalidateWrite(uint64(info.EA2), info.Size2)
		}
		c.Insts++
		if info.IsMem {
			c.MemRefs++
			if info.Size > 1 {
				s := de.profile()
				if info.MDA {
					s.mda++
					c.MDAs++
				} else {
					s.aligned++
				}
			}
		}
		if info.IsMem2 {
			c.MemRefs++
			if info.Size2 > 1 {
				s := de.profile()
				if info.MDA2 {
					s.mda++
					c.MDAs++
				} else {
					s.aligned++
				}
			}
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
