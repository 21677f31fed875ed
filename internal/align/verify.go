package align

import (
	"fmt"

	"mdabt/internal/host"
)

// This file is the static translation verifier: a structural linter over
// one emitted host block. It re-decodes the block's words and checks that
// the code is accounted for under the translator's own per-word tags:
//
//   - every word decodes;
//   - every alignment-trapping memory instruction (host.Op.Aligns) is
//     either a registered trap site (the misalignment handler can resolve
//     it), proven aligned (an Aligned verdict, or BT-internal data such as
//     adaptive streak counters and IBTC entries at constructed-aligned
//     addresses), or guarded (inside a multi-version/adaptive arm whose
//     alignment check makes the plain instruction unreachable when
//     misaligned) — MDA sequences themselves use only LDQ_U/STQ_U/LDA,
//     which never trap, so they need no tag;
//   - every data-accessing memory op lies in some guest instruction's
//     emission, or a memory fault there could not be attributed to a
//     precise guest instruction;
//   - branch targets resolve: in-block targets land inside the block, and
//     out-of-block branches (chained exits, handler patches) pass the
//     caller's CheckBranch policy;
//   - patch sites are well-formed: a word the exception handler claims to
//     have patched must be a trap site and now hold an unconditional BR,
//     and an unpatched trap site must still hold a trapping memory
//     instruction;
//   - BRKBT payloads pass the caller's CheckBrk policy (exit table /
//     service payload consistency).
//
// The verifier never trusts the emitted bytes over the tags or vice
// versa — a disagreement in either direction is a finding.

// WordTag is the set of translator claims about one emitted host word.
type WordTag uint8

// Word tags.
const (
	TagTrapSite   WordTag = 1 << iota // registered with the trap handler
	TagProven                         // emitted under a proven-aligned claim
	TagGuarded                        // inside an alignment-guarded arm
	TagPatched                        // trap site the handler patched into a BR
	TagAttributed                     // inside a guest instruction's emission
)

// HostBlock describes one translated block to the verifier.
type HostBlock struct {
	Entry uint64    // host address of Words[0]
	Words []uint32  // the block's code as currently in memory
	Tags  []WordTag // one tag set per word of Words

	// CheckBranch validates a branch at pc whose target lies outside the
	// block. nil forbids all out-of-block branches.
	CheckBranch func(pc, target uint64) error
	// CheckBrk validates a BRKBT payload. nil accepts any payload.
	CheckBrk func(pc uint64, payload uint32) error
}

// Finding is one verifier complaint.
type Finding struct {
	HostPC uint64
	Msg    string
}

func (f Finding) String() string {
	return fmt.Sprintf("%#x: %s", f.HostPC, f.Msg)
}

// Verify lints one emitted host block, returning every finding.
func Verify(b HostBlock) []Finding {
	var findings []Finding
	bad := func(pc uint64, format string, args ...any) {
		findings = append(findings, Finding{HostPC: pc, Msg: fmt.Sprintf(format, args...)})
	}
	if len(b.Tags) != len(b.Words) {
		bad(b.Entry, "%d word tags for %d words", len(b.Tags), len(b.Words))
		return findings
	}
	end := b.Entry + uint64(len(b.Words))*host.InstBytes

	for i, w := range b.Words {
		pc := b.Entry + uint64(i)*host.InstBytes
		tag := b.Tags[i]
		in, err := host.Decode(w)
		if err != nil {
			bad(pc, "undecodable word %#08x: %v", w, err)
			continue
		}
		switch {
		case tag&TagPatched != 0 && tag&TagTrapSite == 0:
			bad(pc, "patched PC is not a registered trap site")
		case tag&TagPatched != 0:
			if in.Op != host.BR || in.Ra != host.Zero {
				bad(pc, "patched trap site does not hold an unconditional BR (got %s)", host.DisasmWord(pc, w))
			}
		case tag&TagTrapSite != 0 && !in.Op.Aligns():
			bad(pc, "registered trap site no longer holds a trapping memory op (got %s)", host.DisasmWord(pc, w))
		}

		switch host.FormatOf(in.Op) {
		case host.FormatMem:
			if in.Op == host.LDA || in.Op == host.LDAH {
				break // address arithmetic, not an access
			}
			if tag&TagAttributed == 0 {
				bad(pc, "memory op %v lies in no guest instruction's emission", in.Op)
			}
			if !in.Op.Aligns() {
				break // byte accesses and LDQ_U/STQ_U never trap
			}
			if tag&(TagTrapSite|TagProven|TagGuarded) == 0 {
				bad(pc, "trap-prone %v is neither a registered trap site, proven aligned, nor guarded", in.Op)
			}
		case host.FormatPAL:
			if b.CheckBrk != nil {
				if err := b.CheckBrk(pc, in.Payload); err != nil {
					bad(pc, "BRKBT payload %d: %v", in.Payload, err)
				}
			}
		case host.FormatBra:
			target := in.BranchTarget(pc)
			if target >= b.Entry && target < end {
				break // in-block label: instruction-aligned by encoding
			}
			if b.CheckBranch == nil {
				bad(pc, "branch leaves the block (target %#x) with no link/patch record", target)
			} else if err := b.CheckBranch(pc, target); err != nil {
				bad(pc, "out-of-block branch to %#x: %v", target, err)
			}
		}
	}
	return findings
}
