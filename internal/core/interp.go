package core

import (
	"errors"
	"fmt"

	"mdabt/internal/guest"
	"mdabt/internal/mem"
	"mdabt/internal/store"
)

// interpretBlock interprets one execution of the basic block starting at
// pc: it runs the guest executor until a block-ending instruction has
// executed (or the block-length cap is hit), collecting the MDA profile and
// charging interpreter cycles. It returns the guest PC after the block.
//
// Like RunCensus it runs straight-line code through the decode cache's
// dense window (guest.Code.Run) and probes the cache only where a run
// stops short of the block's end: at an entry not decoded, outside the
// window, after a REPMOVS4 re-execution outside it, or after a store into
// a watched page.
func (e *Engine) interpretBlock(pc uint32) (uint32, error) {
	e.CPU.EIP = pc
	for left := uint64(maxBlockInsts); ; {
		pc := e.CPU.EIP
		de, err := e.decoded(pc)
		if err != nil {
			return 0, fmt.Errorf("core: interpret at %#x: %w", pc, err)
		}
		r, err := e.dec.Run(&e.CPU, e.Mem, de, left)
		e.stats.InterpretedInsts += r.Insts
		e.stats.InterpretedMDAs += r.MDAs
		e.Mach.AddCycles(interpCyclesPerInst * r.Insts)
		if err != nil {
			return 0, err
		}
		if r.Held {
			// Self-modifying code: an interpreted store into a watched code
			// page invalidates the stale translations and decode entries it
			// covers. Translated stores reach here too — the write trap
			// reroutes them to this interpreter, so this hook is the single
			// SMC choke point.
			a := &r.Acc
			if a.Store && e.Mem.WatchedRange(uint64(a.EA), int(a.Size)) {
				e.smcWrite(uint64(a.EA), int(a.Size))
			}
			if a.N == 2 && e.Mem.WatchedRange(uint64(a.EA2), int(a.Size)) {
				e.smcWrite(uint64(a.EA2), int(a.Size))
			}
			e.stats.InterpretedMDAs += r.Last.Count(a)
		}
		if e.CPU.Halted {
			e.halted = true
			return e.CPU.EIP, nil
		}
		if left -= r.Insts; left == 0 || r.Last.Inst.Op.EndsBlock() {
			return e.CPU.EIP, nil
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

// CensusBudget is the instruction budget of a whole-benchmark census — the
// train run a static profile comes from, the experiments' censuses and
// their fault references. Every benchmark model halts well inside it.
const CensusBudget = 300_000_000

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
			if p := de.Prof; p != nil {
				tp.Add(pc, p.MDA, p.Aligned)
			}
		})
		c.Sites = tp.Sites
		c.Halted = cpu.Halted
		c.FinalCPU = *cpu
		return c, err
	}
	for c.Insts < maxInsts && !cpu.Halted {
		pc := cpu.EIP
		de, _, err := dec.decoded(pc, m)
		if err != nil {
			var gf *guest.Fault
			if errors.As(err, &gf) {
				return finish(err)
			}
			return nil, fmt.Errorf("core: census at %#x: %w", pc, err)
		}
		// Run straight-line code from pc. The executor steps to each
		// fall-through by index into the dense window; the cache is probed
		// again only when EIP leaves the straight line (a control transfer,
		// or a REPMOVS4 re-execution outside the window) or the
		// fall-through is not decoded: a first visit, code outside the
		// window, or a decode a store just dropped.
		r, err := dec.Run(cpu, m, de, maxInsts-c.Insts)
		c.Insts += r.Insts
		c.MemRefs += r.Refs
		c.MDAs += r.MDAs
		if err != nil {
			return finish(err)
		}
		if r.Held {
			// Self-modifying code: drop decode entries the store overwrote
			// so the next visit re-decodes the new bytes.
			a := &r.Acc
			if a.Store {
				dec.invalidateWrite(uint64(a.EA), int(a.Size))
			}
			if a.N == 2 {
				dec.invalidateWrite(uint64(a.EA2), int(a.Size))
			}
			c.MDAs += r.Last.Count(a)
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
