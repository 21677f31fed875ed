package core

import (
	"fmt"
	"slices"
	"strings"

	"mdabt/internal/guest"
	"mdabt/internal/host"
)

// DumpTraces renders every live trace: its id, host code span, compacted
// step count, the member translations it overlaps (guest PC and kind), its
// static side-exit targets, and the memoized chain links it has followed.
// Empty when no trace is live.
func (e *Engine) DumpTraces() string {
	infos := e.Mach.TraceInfos()
	if len(infos) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, ti := range infos {
		fmt.Fprintf(&sb, "trace %d: host [%#x,%#x), %d steps\n", ti.ID, ti.Start, ti.End, ti.Steps)
		for _, sp := range e.blockSpans {
			if sp.lo >= ti.End || sp.hi <= ti.Start {
				continue
			}
			unit := "block"
			if sp.b.nblocks > 1 {
				unit = fmt.Sprintf("superblock(%d blocks)", sp.b.nblocks)
			}
			fmt.Fprintf(&sb, "  member %s %#x: host [%#x,%#x)\n", unit, sp.b.guestPC, sp.lo, sp.hi)
		}
		for _, x := range ti.Exits {
			fmt.Fprintf(&sb, "  side exit -> host %#x\n", x)
		}
		for _, l := range ti.Links {
			fmt.Fprintf(&sb, "  chain %#x -> %#x\n", l.FromPC, l.ToPC)
		}
	}
	return sb.String()
}

// DumpBlock renders the translation of the block at guest pc: the guest
// instructions side by side with the emitted host code, annotated with the
// per-site policy artifacts (patched branches show up as the patched
// instruction). It returns an error if the block is not translated.
func (e *Engine) DumpBlock(pc uint32) (string, error) {
	b := e.dec.blockAt(pc)
	if b == nil {
		return "", fmt.Errorf("core: block %#x is not translated", pc)
	}
	var sb strings.Builder
	unit := "block"
	if b.nblocks > 1 {
		unit = fmt.Sprintf("trace(%d blocks)", b.nblocks)
	}
	fmt.Fprintf(&sb, "%s %#x: %d guest insts -> %d host bytes at %#x\n",
		unit, b.guestPC, len(b.insts), b.hostSize, b.hostEntry)
	for _, u := range b.insts {
		fmt.Fprintf(&sb, "  %#08x  %s", u.pc, guest.Disasm(u.pc, u.inst, u.len))
		if u.pol != polNone {
			fmt.Fprintf(&sb, "  ; site: policy=%s", u.pol)
			if e.Opt.StaticAlign {
				fmt.Fprintf(&sb, " align=%s", u.verdict)
			}
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("host code:\n")
	for hpc := b.hostEntry; hpc < b.hostEntry+b.hostSize; hpc += host.InstBytes {
		w := e.Mem.Read32(hpc)
		marker := " "
		if ref, ok := e.sites[hpc]; ok && ref.site.patched[hpc] {
			marker = "*" // patched by the exception handler
		} else if b.alignedPCs[hpc] {
			marker = "a" // proven aligned (static verdict or BT-internal data)
		} else if b.guardedPCs[hpc] {
			marker = "g" // plain op inside an alignment-guarded arm
		}
		fmt.Fprintf(&sb, " %s%#010x  %s\n", marker, hpc, host.DisasmWord(hpc, w))
	}
	return sb.String(), nil
}

// DumpStats renders a human-readable statistics summary.
func (e *Engine) DumpStats() string {
	s := e.stats
	c := e.Mach.Counters()
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycles=%d insts=%d traps=%d trap-cycles=%d\n",
		c.Cycles, c.Insts, c.MisalignTraps, c.TrapCycles)
	fmt.Fprintf(&sb, "translated=%d retrans=%d rearranged=%d multi-version=%d adaptive=%d/%d\n",
		s.BlocksTranslated, s.Retranslations, s.Rearrangements, s.MultiVersion,
		s.AdaptiveSites, s.AdaptiveReverts)
	fmt.Fprintf(&sb, "patches=%d stubs=%d links=%d flushes=%d interp-insts=%d\n",
		s.Patches, s.MDAStubs, s.Links, s.Flushes, s.InterpretedInsts)
	if e.Opt.StaticAlign {
		fmt.Fprintf(&sb, "static-align: analyzed=%d sites aligned=%d misaligned=%d unknown=%d violations=%d\n",
			s.StaticAnalyzedInsts, s.StaticAlignedSites, s.StaticMisalignedSites,
			s.StaticUnknownSites, s.StaticAlignViolations)
	}
	full := e.Stats() // includes the fault-plan total
	fmt.Fprintf(&sb, "degraded: stub-full=%d unpatchable=%d interp-fallbacks=%d demotions=%d injected-faults=%d\n",
		full.StubZoneFull, full.UnpatchableSites, full.InterpFallbacks,
		full.TrapStormDemotions, full.InjectedFaults)
	fmt.Fprintf(&sb, "code-cache=%dB blocks=%d\n", e.cc.used(), e.Blocks())
	return sb.String()
}

// TranslatedPCs lists the guest PCs with live translations, sorted.
func (e *Engine) TranslatedPCs() []uint32 {
	var pcs []uint32
	for _, sp := range e.blockSpans {
		if !sp.b.invalid {
			pcs = append(pcs, sp.b.guestPC)
		}
	}
	slices.Sort(pcs)
	return pcs
}
