package core

import (
	"fmt"

	"mdabt/internal/align"
	"mdabt/internal/host"
)

// This file wires the static alignment analysis and the translation
// verifier (internal/align) into the engine. The analysis side runs once
// per program at Run entry and feeds verdicts into sitePolicies and
// memAccessSub; the verifier side lints every live translation from
// CheckInvariants, Engine.Lint, and `dbtrun -lint`.

// buildAlignDB runs the whole-program alignment analysis from entry,
// through the engine's decode cache, and charges its modeled cost. It goes
// through the watching decode wrapper: every page the analysis touches can
// later be translated from its cached entry, so it must be armed for
// self-modifying stores like any other decoded code page.
func (e *Engine) buildAlignDB(entry uint32) {
	e.alignDB = align.Analyze(e.alignDecoder(), entry)
	e.alignEntry = entry
	e.stats.StaticAnalyzedInsts = uint64(e.alignDB.Insts())
	if !e.Opt.AOT {
		// Under the AOT tier the analysis is part of the offline build, like
		// the pre-translation pass itself: no simulated cycles.
		e.Mach.AddCycles(analyzeCyclesPerInst * uint64(e.alignDB.Insts()))
	}
}

// noteAlignViolation records a misaligned access trapping at a host PC of
// unit b that the translator emitted under a proven-aligned claim — a
// lattice soundness bug. Execution still recovers through the software
// fixup; the counter makes the bug visible to the soundness cosim test.
func (e *Engine) noteAlignViolation(b *block, pc uint64) {
	if b.word(pc).tags&align.TagProven != 0 {
		e.stats.StaticAlignViolations++
		e.event(EvDegrade, b.guestPC, pc, "static-align violation: proven-aligned site trapped")
	}
}

// checkBrkPayload validates a BRKBT service payload against the engine's
// exit and adaptive tables (the verifier's CheckBrk policy).
func (e *Engine) checkBrkPayload(pc uint64, payload uint32) error {
	switch {
	case payload == svcHalt, payload == svcIndirect:
		return nil
	case payload&svcAdaptiveFlag != 0:
		if id := payload &^ svcAdaptiveFlag; int(id) >= len(e.adaptives) {
			return fmt.Errorf("adaptive id %d out of range (%d registered)", id, len(e.adaptives))
		}
		return nil
	case payload >= svcExitBase:
		idx := payload - svcExitBase
		if int(idx) >= len(e.exits) {
			return fmt.Errorf("exit id %d out of range (%d registered)", idx, len(e.exits))
		}
		if ex := e.exits[idx]; ex.hostPC != pc {
			return fmt.Errorf("exit %d is registered at %#x", idx, ex.hostPC)
		}
		return nil
	}
	return fmt.Errorf("unassigned service payload")
}

// verifyBlock lints one live translation: it reads the block's words back
// out of simulated memory and hands them to align.Verify together with the
// tags of its per-word table (trap sites, alignment claims, patches,
// attribution) and the link policies for out-of-block branches and BRKBT
// payloads.
func (e *Engine) verifyBlock(b *block) []align.Finding {
	words := make([]uint32, len(b.words))
	tags := make([]align.WordTag, len(b.words))
	for i, w := range b.words {
		words[i] = e.Mem.Read32(b.hostEntry + uint64(i)*host.InstBytes)
		tags[i] = w.tags
		if w.site != noSite {
			tags[i] |= align.TagTrapSite
		}
		if w.inst != noInst {
			tags[i] |= align.TagAttributed
		}
	}
	return align.Verify(align.HostBlock{
		Entry: b.hostEntry,
		Words: words,
		Tags:  tags,
		CheckBranch: func(pc, target uint64) error {
			for _, ex := range b.exits {
				if ex.hostPC != pc {
					continue
				}
				// A chained exit must branch to its target's current entry.
				if !ex.linked {
					return fmt.Errorf("exit %d is unlinked but holds an out-of-block branch", ex.id)
				}
				tb := e.dec.blockAt(ex.targetGuest)
				if tb == nil {
					return fmt.Errorf("exit %d is linked to untranslated guest %#x", ex.id, ex.targetGuest)
				}
				if target != tb.hostEntry {
					return fmt.Errorf("exit %d branches to %#x, want block entry %#x", ex.id, target, tb.hostEntry)
				}
				return nil
			}
			if b.word(pc).tags&align.TagPatched != 0 {
				// A patched trap site must branch into the MDA stub zone.
				lo, hi := e.cc.stubNext, e.cc.base+e.cc.size
				if target < lo || target >= hi {
					return fmt.Errorf("patched site branches to %#x, outside the stub zone [%#x,%#x)", target, lo, hi)
				}
				return nil
			}
			return fmt.Errorf("no exit or patch record for this branch")
		},
		CheckBrk: e.checkBrkPayload,
	})
}

// Lint runs the static translation verifier over every live translation,
// returning one line per finding (`dbtrun -lint`; the experiment sessions
// call it after every run). Under Options.AOT it also reports the
// pre-translation pass's image-coverage findings — recovered blocks or
// indirect targets the pass failed to account for — so AOT output faces
// the same CI gate as JIT output.
func (e *Engine) Lint() []string {
	var out []string
	for _, pc := range e.TranslatedPCs() {
		for _, f := range e.verifyBlock(e.dec.blockAt(pc)) {
			out = append(out, fmt.Sprintf("block %#x: %s", pc, f))
		}
	}
	for _, f := range e.aotCoverage {
		out = append(out, fmt.Sprintf("aot coverage: %s", f))
	}
	if e.aotPreseedSkips > 0 {
		// A stale or foreign adopted schedule (e.g. a store artifact that
		// validated but was built for another build of the program) is a
		// degraded warm start, not an error: the skipped entries fall back
		// to dynamic discovery. Surface it so operators see the cold spots.
		out = append(out, fmt.Sprintf(
			"aot preseed: %d schedule entries left to dynamic discovery (adopted image does not match the loaded program)",
			e.aotPreseedSkips))
	}
	return out
}
