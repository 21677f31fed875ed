package align

import (
	"errors"
	"strings"
	"testing"

	"mdabt/internal/host"
)

// verifyEntry is the host address of the test block's first word.
const verifyEntry = 0x8000_0000

// cleanHostBlock returns a small block that accounts for every word: one
// word of each shape the translator emits, tagged as the engine tags it.
// The out-of-block BR at word 5 is a patched trap site branching to its
// stub; CheckBranch accepts exactly that branch and CheckBrk exactly the
// one payload.
func cleanHostBlock(t *testing.T) HostBlock {
	t.Helper()
	br := func(pc, target uint64) uint32 {
		d, ok := host.BrDispFor(pc, target)
		if !ok {
			t.Fatalf("branch %#x -> %#x out of range", pc, target)
		}
		return host.MustEncode(host.Inst{Op: host.BR, Ra: host.Zero, Disp: d})
	}
	const stub = verifyEntry + 0x1000
	words := []uint32{
		host.MustEncode(host.Inst{Op: host.LDL, Ra: host.R1, Rb: host.R2}),  // 0: trap site
		host.MustEncode(host.Inst{Op: host.LDQU, Ra: host.R1, Rb: host.R2}), // 1: never traps
		host.MustEncode(host.Inst{Op: host.STL, Ra: host.R3, Rb: host.R4}),  // 2: proven aligned
		host.MustEncode(host.Inst{Op: host.LDL, Ra: host.R5, Rb: host.R2}),  // 3: guarded arm
		br(verifyEntry+4*host.InstBytes, verifyEntry),                       // 4: in-block branch
		br(verifyEntry+5*host.InstBytes, stub),                              // 5: patched trap site
		host.MustEncode(host.Inst{Op: host.BRKBT, Payload: 8}),              // 6: exit
	}
	tags := []WordTag{
		TagTrapSite | TagAttributed,
		TagAttributed,
		TagProven | TagAttributed,
		TagGuarded | TagAttributed,
		TagAttributed,
		TagTrapSite | TagPatched | TagAttributed,
		TagAttributed,
	}
	return HostBlock{
		Entry: verifyEntry,
		Words: words,
		Tags:  tags,
		CheckBranch: func(pc, target uint64) error {
			if pc == verifyEntry+5*host.InstBytes && target == stub {
				return nil
			}
			return errors.New("unexpected branch")
		},
		CheckBrk: func(pc uint64, payload uint32) error {
			if payload == 8 {
				return nil
			}
			return errors.New("unexpected payload")
		},
	}
}

// TestVerifyFindings: a clean block yields no findings, and each single
// corruption yields exactly one finding, at the corrupted word, naming
// what is wrong.
func TestVerifyFindings(t *testing.T) {
	const undecodable = 0x04000000 // opcode 0x01 is unassigned
	if _, err := host.Decode(undecodable); err == nil {
		t.Fatalf("%#08x decodes; pick an unassigned opcode", undecodable)
	}
	cases := []struct {
		name    string
		corrupt func(b *HostBlock)
		word    int // index of the word the finding names
		want    string
	}{
		{"undecodable word", func(b *HostBlock) { b.Words[1] = undecodable }, 1, "undecodable word"},
		{"untagged trap-prone op", func(b *HostBlock) { b.Tags[0] = TagAttributed }, 0,
			"neither a registered trap site, proven aligned, nor guarded"},
		{"trap-site tag on a non-trapping op", func(b *HostBlock) { b.Tags[1] |= TagTrapSite }, 1,
			"no longer holds a trapping memory op"},
		{"patched tag on a non-BR word", func(b *HostBlock) { b.Tags[0] |= TagPatched }, 0,
			"does not hold an unconditional BR"},
		{"patched tag without the trap-site tag", func(b *HostBlock) { b.Tags[4] |= TagPatched }, 4,
			"not a registered trap site"},
		{"memory op attributed to no instruction", func(b *HostBlock) { b.Tags[1] = 0 }, 1,
			"lies in no guest instruction's emission"},
		{"out-of-block branch with nil CheckBranch", func(b *HostBlock) { b.CheckBranch = nil }, 5,
			"branch leaves the block"},
		{"out-of-block branch CheckBranch rejects", func(b *HostBlock) {
			b.CheckBranch = func(uint64, uint64) error { return errors.New("no record") }
		}, 5, "out-of-block branch to"},
		{"BRKBT payload CheckBrk rejects", func(b *HostBlock) {
			b.CheckBrk = func(uint64, uint32) error { return errors.New("bad payload") }
		}, 6, "BRKBT payload 8"},
		{"tag count differs from word count", func(b *HostBlock) { b.Tags = b.Tags[:len(b.Tags)-1] }, 0,
			"word tags for"},
	}

	if fs := Verify(cleanHostBlock(t)); len(fs) != 0 {
		t.Fatalf("clean block: %d findings, first %s", len(fs), fs[0])
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := cleanHostBlock(t)
			tc.corrupt(&b)
			fs := Verify(b)
			if len(fs) != 1 {
				t.Fatalf("%d findings, want 1: %v", len(fs), fs)
			}
			if pc := verifyEntry + uint64(tc.word)*host.InstBytes; fs[0].HostPC != pc {
				t.Errorf("finding at %#x, want %#x", fs[0].HostPC, pc)
			}
			if !strings.Contains(fs[0].Msg, tc.want) {
				t.Errorf("finding %q does not mention %q", fs[0].Msg, tc.want)
			}
		})
	}
}
