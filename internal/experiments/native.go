package experiments

import (
	"fmt"

	"mdabt/internal/cache"
	"mdabt/internal/guest"
	"mdabt/internal/mem"
	"mdabt/internal/workload"
)

// Figure 1's substrate: native execution on an x86 machine that tolerates
// misaligned accesses. The cost model charges one cycle per instruction,
// small extra latency for loads, a split-access penalty when a misaligned
// access crosses a cache line (how contemporary x86 cores implement MDA),
// and data-cache miss latency.
const (
	nativeLoadExtra  = 2
	nativeMDAPenalty = 2 // misaligned but within one line
	nativeSplitLine  = 8 // misaligned across a cache-line boundary
	nativeLine       = 64
)

// nativeCycles interprets the program on the native-x86 cost model and
// returns simulated cycles.
func (s *Session) nativeCycles(name, variant string) (uint64, error) {
	key := "native|" + name + "|" + variant
	s.mu.Lock()
	c, ok := s.native[key]
	s.mu.Unlock()
	if ok {
		return c, nil
	}
	p, err := s.Program(name, variant)
	if err != nil {
		return 0, err
	}
	m := mem.New()
	p.Load(m, workload.Ref)
	cpu := &guest.CPU{}
	cpu.Reset(p.Entry())
	caches := cache.NewES40() // contemporary geometry; only the data path is used
	// Each instruction is decoded once, into a table per code image
	// (indexed by PC; n == 0 until decoded). The models do not modify
	// their code.
	type decoded struct {
		inst guest.Inst
		n    uint8
	}
	images := [2]struct {
		base  uint32
		insts []decoded
	}{{guest.CodeBase, make([]decoded, len(p.Main))}, {guest.SharedLib, make([]decoded, len(p.Lib))}}
	var cycles uint64
	var acc guest.Access
	for steps := uint64(0); !cpu.Halted; steps++ {
		if steps > 400_000_000 {
			return 0, fmt.Errorf("experiments: native %s did not halt", name)
		}
		pc := cpu.EIP
		var de *decoded
		for i := range images {
			if off := pc - images[i].base; off < uint32(len(images[i].insts)) {
				de = &images[i].insts[off]
			}
		}
		if de == nil {
			return 0, fmt.Errorf("experiments: native %s: pc %#x outside the code images", name, pc)
		}
		if de.n == 0 {
			var buf [guest.MaxInstLen]byte
			m.ReadBytes(uint64(pc), buf[:])
			inst, n, derr := guest.Decode(buf[:])
			if derr != nil {
				return 0, derr
			}
			*de = decoded{inst, uint8(n)}
		}
		if err := cpu.Exec(m, pc, &de.inst, int(de.n), &acc); err != nil {
			return 0, err
		}
		cycles++
		if acc.N > 0 {
			if !acc.Store {
				cycles += nativeLoadExtra
			}
			cycles += uint64(caches.Data(uint64(acc.EA)))
			if acc.MDA() {
				if acc.EA/nativeLine != (acc.EA+uint32(acc.Size)-1)/nativeLine {
					cycles += nativeSplitLine
				} else {
					cycles += nativeMDAPenalty
				}
			}
		}
	}
	s.mu.Lock()
	s.native[key] = cycles
	s.mu.Unlock()
	return cycles, nil
}
