package core

import (
	"os"
	"strings"
	"testing"

	"mdabt/internal/guest"
)

// dumpGoldenPath holds the exact DumpBlock text of every translation left
// by the dumpGoldenCases runs. The dump renders the per-instruction site
// policy, the static verdicts, trace layout, and the host-PC markers
// (patched, proven aligned, guarded), so it pins the translator's
// per-instruction records byte for byte.
const dumpGoldenPath = "testdata/dumpblock_golden.txt"

// traceEdgesImg builds a loop whose hot path takes a conditional branch
// (folded into a trace as an inverted side exit) and then a direct jump
// (folded away entirely).
func traceEdgesImg(t *testing.T, n int32) []byte {
	return buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Jmp("loop")
		b.Label("loop")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 2}) // MDA
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Mov(guest.ESI, guest.ECX)
		b.ALUImm(guest.ANDri, guest.ESI, 1023)
		b.CmpImm(guest.ESI, 1023)
		b.Jcc(guest.NE, "hot") // taken 1023/1024: the trace inverts it
		b.ALUImm(guest.XORri, guest.EAX, 0x5A5A)
		b.Label("hot")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 8})
		b.ALU(guest.XORrr, guest.EAX, guest.EDX)
		b.Jmp("tail") // the trace skips it
		b.Label("tail")
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, n)
		b.Jcc(guest.L, "loop")
		b.Halt()
	})
}

// shapesImg builds a loop with one site of each profile-driven shape: an
// alternating (mixed) load, an always-misaligned (adaptive) load, and an
// always-aligned (plain) store.
func shapesImg(t *testing.T, n int32) []byte {
	return buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Jmp("loop")
		b.Label("loop")
		b.Mov(guest.ESI, guest.ECX)
		b.ALUImm(guest.ANDri, guest.ESI, 2)
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, HasIndex: true, Index: guest.ESI, Scale: 1, Disp: 8})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 2})
		b.ALU(guest.XORrr, guest.EAX, guest.EDX)
		b.Store(guest.ST4, guest.MemRef{Base: guest.EBX, Disp: 16}, guest.EAX)
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, n)
		b.Jcc(guest.L, "loop")
		b.Halt()
	})
}

// dumpGoldenCases runs each golden configuration and returns the
// concatenated DumpBlock text of every live translation, in guest-PC
// order, under one header per case.
func dumpGoldenCases(t *testing.T) string {
	t.Helper()
	type dumpCase struct {
		name string
		img  []byte
		data []byte
		opt  Options
		want []string // fragments the case exists to cover
	}
	eh := DefaultOptions(ExceptionHandling)

	sb := DefaultOptions(DPEH)
	sb.HeatThreshold = 8
	sb.Superblocks = true

	shapes := DefaultOptions(DPEH)
	shapes.HeatThreshold = 8
	shapes.MultiVersion = true
	shapes.Adaptive = true

	direct := DefaultOptions(Direct)
	direct.StaticAlign = true
	alignData := patternData(64)
	// An aligned pointer at data[0] keeps the pointer-chased load valid.
	copy(alignData, []byte{0x10, 0, 0, byte(guest.DataBase >> 24)})

	aot := DefaultOptions(AOT)
	aot.Superblocks = true

	cases := []dumpCase{
		{"eh", mdaLoopImg(t, 50), patternData(256), eh, []string{"\n *"}},
		{"dpeh+superblocks", traceEdgesImg(t, 2000), patternData(256), sb, []string{"trace(3 blocks)"}},
		{"dpeh+multiversion+adaptive", shapesImg(t, 500), patternData(256), shapes,
			[]string{"policy=mixed", "policy=adaptive", "policy=plain", "\n g", "\n a"}},
		{"direct+staticalign", staticAlignProgram(t), alignData, direct,
			[]string{"align=aligned", "align=misaligned", "align=unknown"}},
		{"aot+superblocks", traceEdgesImg(t, 2000), patternData(256), aot, []string{"trace(2 blocks)"}},
	}
	var out strings.Builder
	for _, c := range cases {
		_, _, e := runDBT(t, c.img, c.data, c.opt)
		var text strings.Builder
		for _, pc := range e.TranslatedPCs() {
			d, err := e.DumpBlock(pc)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			text.WriteString(d)
		}
		for _, frag := range c.want {
			if !strings.Contains(text.String(), frag) {
				t.Errorf("%s: dumps lack %q; the case no longer covers what it is for", c.name, frag)
			}
		}
		out.WriteString("== " + c.name + " ==\n")
		out.WriteString(text.String())
	}
	return out.String()
}

// TestDumpBlockGolden pins the exact DumpBlock text of five translation
// shapes: an exception-handler patch, a DPEH trace with a skipped jump and
// an inverted conditional, per-site multi-version plus adaptive sites,
// static verdicts under Direct, and an AOT static trace.
func TestDumpBlockGolden(t *testing.T) {
	got := dumpGoldenCases(t)
	raw, err := os.ReadFile(dumpGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got: %q\nwant: %q", dumpGoldenPath, i+1, g, w)
		}
	}
}
