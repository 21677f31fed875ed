package core

import (
	"errors"
	"fmt"

	"mdabt/internal/align"
	"mdabt/internal/guest"
)

// This file is the engine half of the ahead-of-time tier (DESIGN.md §13):
// before the first guest instruction of a run executes, every block of the
// recovered whole-binary CFG is translated into the code cache, so the
// simulated program starts against a warm cache exactly as if a serialized
// translated image had been loaded. The analysis half — CFG recovery and
// the image format — lives in internal/align and internal/aot.

// alignDecoder adapts the engine's decode cache to the analysis Decoder
// shape. Decoding through the cache matters twice over: translations later
// reuse the cached entries, and every code page the offline pass touches
// gets its self-modification write watch armed like dynamically discovered
// code, so PR 6's SMC machinery covers pre-translated blocks unchanged.
func (e *Engine) alignDecoder() align.Decoder {
	return func(pc uint32) (guest.Inst, int, error) {
		de, err := e.decoded(pc)
		if err != nil {
			return guest.Inst{}, 0, err
		}
		return de.Inst, int(de.Len), nil
	}
}

// preseedAOT runs the offline pre-translation pass for entry: recover the
// CFG (or adopt the Options.AOTBlocks image schedule) and translate every
// block in ascending address order. The pass is modeled as offline work —
// no simulated cycles are charged and the translations count in
// Stats.AOTBlocks — so a run over a self-recovered schedule is
// bit-identical to one adopting the equivalent serialized image.
//
// Failures degrade instead of aborting, mirroring the dynamic ladder: a
// block the cache cannot hold is blacklisted to the interpreter, and a
// block the engine cannot decode (possible only under a mismatched adopted
// image) is left to dynamic discovery. Every recovered block is accounted
// one way or another; VerifyCoverage findings — there should be none —
// surface through Engine.Lint alongside the per-block verifier.
func (e *Engine) preseedAOT(entry uint32) {
	schedule := e.Opt.AOTBlocks
	var cfg *align.CFG
	if schedule == nil {
		cfg = align.RecoverCFG(e.alignDecoder(), entry, maxBlockInsts)
		schedule = cfg.BlockPCs()
	}
	covered := make(map[uint32]bool, len(schedule))
	e.aotPass = true
	for _, pc := range schedule {
		covered[pc] = true
		if st := e.dec.stateAt(pc); st != nil && (st.blk != nil || st.blacklisted) {
			continue
		}
		if _, err := e.ensureTranslated(pc); err != nil {
			if errors.Is(err, ErrBlockTooLarge) || errors.Is(err, errInjectedTranslate) {
				e.blacklistBlock(pc, err)
			} else {
				// Undecodable at pc: the recovery would not have scheduled it,
				// so this is an adopted image that does not match the loaded
				// program. Leave the block to dynamic discovery (which will
				// fail it properly only if it is ever reached).
				e.aotPreseedSkips++
				if e.events != nil {
					e.event(EvDegrade, pc, 0, "aot: left to dynamic discovery: "+err.Error())
				}
			}
		}
	}
	e.aotPass = false
	e.aotDone, e.aotEntry = true, entry
	e.aotCoverage = nil
	if cfg != nil {
		e.aotCoverage = cfg.VerifyCoverage(func(pc uint32) bool { return covered[pc] })
	}
	if e.events != nil {
		e.event(EvTranslate, entry, 0, fmt.Sprintf("aot preseed: %d blocks", e.stats.AOTBlocks))
	}
	e.selfCheck("aot preseed")
}

// RecoverCFG runs whole-binary CFG recovery from entry over the engine's
// loaded guest image, with the dynamic translator's own block bound. This
// is the seam internal/aot builds serializable images through, and what
// the cosim soundness tests cross-check against dynamic block discovery.
func (e *Engine) RecoverCFG(entry uint32) *align.CFG {
	return align.RecoverCFG(e.alignDecoder(), entry, maxBlockInsts)
}
