package core

import (
	"errors"
	"testing"
	"unsafe"

	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
)

// TestDecodeCacheDenseAndFar exercises both storage tiers of the PC-indexed
// decode cache: the dense window anchored at guest.CodeBase and the map
// fallback for out-of-window PCs.
func TestDecodeCacheDenseAndFar(t *testing.T) {
	m := mem.New()
	var b guest.Builder
	b.MovImm(guest.EAX, 7)
	b.Halt()
	img, err := b.Build(uint32(guest.CodeBase))
	if err != nil {
		t.Fatal(err)
	}
	farPC := decDenseBase + decDenseLimit + 0x100
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(uint64(farPC), img)

	var c decodeCache
	densePC := uint32(guest.CodeBase)

	for _, pc := range []uint32{densePC, farPC} {
		de, fresh, err := c.decoded(pc, m)
		if err != nil {
			t.Fatalf("decoded(%#x): %v", pc, err)
		}
		if de.Inst.Op != guest.MOVri || de.Len == 0 {
			t.Fatalf("decoded(%#x) = op %v len %d, want MOVri", pc, de.Inst.Op, de.Len)
		}
		if !fresh {
			t.Fatalf("decoded(%#x) not fresh on first lookup", pc)
		}
		// Repeat lookups must hand back the same slot (profiles attach to it).
		if again, fresh2, _ := c.decoded(pc, m); again != de || fresh2 {
			t.Fatalf("decoded(%#x) returned a different or fresh slot on repeat", pc)
		}
	}
	if uint32(len(c.Dense)) > decDenseLimit {
		t.Fatalf("dense window grew to %d entries, past the %d limit", len(c.Dense), decDenseLimit)
	}
	if c.far[farPC] == nil {
		t.Fatalf("far PC %#x not in the map tier", farPC)
	}

	// peek never allocates: an untouched PC inside the window but past the
	// grown prefix, and an untouched far PC, both report nil.
	if de := c.peek(densePC + uint32(len(c.Dense))); de != nil {
		t.Fatal("peek past the grown dense prefix allocated a slot")
	}
	if de := c.peek(farPC + 0x1000); de != nil {
		t.Fatal("peek of an unseen far PC allocated a slot")
	}
}

// TestDecodeCacheProfiles covers the fused per-site alignment profiles:
// lazy creation, profAt/clearProf, and the each walk across both tiers.
func TestDecodeCacheProfiles(t *testing.T) {
	m := mem.New()
	var b guest.Builder
	b.MovImm(guest.EAX, 7)
	b.Halt()
	img, err := b.Build(uint32(guest.CodeBase))
	if err != nil {
		t.Fatal(err)
	}
	densePC := uint32(guest.CodeBase)
	farPC := decDenseBase + decDenseLimit + 0x40
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(uint64(farPC), img)

	var c decodeCache
	for _, pc := range []uint32{densePC, farPC} {
		if got := c.profAt(pc); got != nil {
			t.Fatalf("profAt(%#x) = %p before any profiling", pc, got)
		}
		de, _, err := c.decoded(pc, m)
		if err != nil {
			t.Fatal(err)
		}
		a := guest.Access{N: 1, Size: 4, EA: 2}
		de.Count(&a)
		p := de.Prof
		if de.Count(&a); p == nil || de.Prof != p || p.MDA != 2 {
			t.Fatalf("profile for %#x not created once and kept: %+v", pc, p)
		}
		p.MDA = 5
		if got := c.profAt(pc); got != p {
			t.Fatalf("profAt(%#x) = %p, want %p", pc, got, p)
		}
	}

	seen := map[uint32]bool{}
	c.each(func(pc uint32, de *decEntry) {
		if p := de.Prof; p != nil {
			if p.MDA != 5 {
				t.Errorf("each(%#x): mda = %d, want 5", pc, p.MDA)
			}
			seen[pc] = true
		}
	})
	if !seen[densePC] || !seen[farPC] {
		t.Fatalf("each visited profiles at %v, want both %#x and %#x", seen, densePC, farPC)
	}

	// Retranslation resets a site's profile without touching the decode or
	// the PC's run state.
	st := c.state(densePC)
	st.traps = 3
	c.clearProf(densePC)
	if got := c.profAt(densePC); got != nil {
		t.Fatalf("profAt after clearProf = %p, want nil", got)
	}
	if de := c.peek(densePC); de == nil || de.Len == 0 {
		t.Fatal("clearProf dropped the decoded instruction")
	}
	if got := c.stateAt(densePC); got != st || got.traps != 3 {
		t.Fatalf("stateAt after clearProf = %+v, want the recorded state", got)
	}
}

// TestDecEntrySize pins the decode-cache entry at 48 bytes on 64-bit
// hosts: the per-PC run state is one pointer, paid for by narrowing the
// length, so the census's and the interpreter's arenas do not grow.
func TestDecEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sized for 64-bit hosts")
	}
	if got := unsafe.Sizeof(decEntry{}); got != 48 {
		t.Fatalf("decEntry is %d bytes, want 48", got)
	}
}

// TestPCStateSurvival pins what each engine event keeps of a guest PC's
// row in the per-PC table. A guest store over the instruction drops its
// decode and its translation but none of the PC's run state; a full cache
// flush drops only the block binding; Reset drops everything.
func TestPCStateSurvival(t *testing.T) {
	cases := []struct {
		name           string
		act            func(e *Engine, pc uint32)
		decoded, facts bool
	}{
		{"guest store over the instruction", func(e *Engine, pc uint32) {
			e.Mem.Write8(uint64(pc), e.Mem.Read8(uint64(pc)))
			e.smcWrite(uint64(pc), 1)
		}, false, true},
		{"cache flush", func(e *Engine, _ uint32) { e.flushAll() }, true, true},
		{"reset", func(e *Engine, _ uint32) { e.Reset(e.Opt) }, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, e := runDBT(t, shapesImg(t, 100), patternData(256), DefaultOptions(DPEH))
			b := anyBlock(e)
			if b == nil {
				t.Fatal("no live translation")
			}
			pc := b.guestPC
			st := e.dec.stateAt(pc)
			if st == nil || st.blk != b || st.heat == 0 {
				t.Fatalf("run left %+v at %#x, want a bound, heated entry", st, pc)
			}
			// The other facts arise on other paths (translation failure,
			// trap storms, adaptive reverts); plant them on the same row.
			st.blacklisted, st.softEmu, st.traps = true, true, 7
			st.retained.add(1)
			st.reverted.add(2)
			heat := st.heat

			tc.act(e, pc)

			if de := e.dec.peek(pc); (de != nil && de.Len != 0) != tc.decoded {
				t.Errorf("decoded = %v, want %v", !tc.decoded, tc.decoded)
			}
			if got := e.dec.blockAt(pc); got != nil {
				t.Errorf("block %v still bound at %#x", got, pc)
			}
			got := e.dec.stateAt(pc)
			if !tc.facts {
				if got != nil {
					t.Errorf("run state %+v survived", got)
				}
				return
			}
			if got != st || !got.blacklisted || !got.softEmu || got.traps != 7 || got.heat != heat ||
				!got.retained.has(1) || !got.reverted.has(2) {
				t.Errorf("run state at %#x = %+v, want every planted fact and heat %d", pc, got, heat)
			}
		})
	}
}

// TestDecodeCacheFarSpanSMC pins the census's self-modifying-code filter
// while far entries exist (shared-library code at guest.SharedLib, outside
// the dense window): a stack or data store is not flagged, a store over a
// far entry's bytes is, and invalidateWrite then drops that decode.
func TestDecodeCacheFarSpanSMC(t *testing.T) {
	m := mem.New()
	var b guest.Builder
	b.MovImm(guest.EAX, 7) // 5+ bytes: its encoding spans several addresses
	b.Ret()
	lib, err := b.Build(guest.SharedLib)
	if err != nil {
		t.Fatal(err)
	}
	m.WriteBytes(guest.SharedLib, lib)
	m.WriteBytes(guest.CodeBase, lib)

	var c decodeCache
	for _, pc := range []uint32{guest.CodeBase, guest.SharedLib} {
		if _, _, err := c.decoded(pc, m); err != nil {
			t.Fatal(err)
		}
	}
	de, _, err := c.decoded(guest.SharedLib, m)
	if err != nil {
		t.Fatal(err)
	}
	retPC := guest.SharedLib + uint32(de.Len)
	if _, _, err := c.decoded(retPC, m); err != nil {
		t.Fatal(err)
	}
	if len(c.far) != 2 {
		t.Fatalf("%d far entries, want 2", len(c.far))
	}

	for _, tc := range []struct {
		name  string
		addr  uint64
		size  int
		flags bool
	}{
		{"stack store", guest.StackTop - 4, 4, false},
		{"data store", guest.DataBase + 0x100, 8, false},
		{"store just below the library", guest.SharedLib - 4, 4, false},
		{"store past the last far entry's bytes", uint64(retPC) + guest.MaxInstLen, 4, false},
		{"store into the library's first instruction", guest.SharedLib + 1, 4, true},
		{"store ending on the library's first byte", guest.SharedLib - 3, 4, true},
		{"store over the RET", uint64(retPC), 1, true},
		{"store into the dense window", guest.CodeBase + 2, 2, true},
	} {
		if got := c.MayContain(tc.addr, tc.size); got != tc.flags {
			t.Errorf("%s: MayContain(%#x, %d) = %v, want %v", tc.name, tc.addr, tc.size, got, tc.flags)
		}
	}

	if n := c.invalidateWrite(guest.SharedLib+1, 4); n != 1 {
		t.Fatalf("invalidateWrite over the library's first instruction dropped %d decodes, want 1", n)
	}
	if de := c.peek(guest.SharedLib); de == nil || de.Len != 0 {
		t.Fatal("the overwritten library decode survived")
	}
}

// TestCensusSharedLibSMC runs a census of a program that rewrites its own
// shared-library code: the second call must execute the new bytes.
func TestCensusSharedLibSMC(t *testing.T) {
	stub := func(v int32) []byte {
		b := guest.NewBuilder()
		b.MovImm(guest.EAX, v)
		b.Ret()
		img, err := b.Build(guest.SharedLib)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	stubA, stubB := stub(1), stub(2)
	for len(stubB)%4 != 0 {
		stubB = append(stubB, 0)
	}
	img := buildImg(t, func(b *guest.Builder) {
		b.CallAbs(guest.SharedLib)
		b.Mov(guest.EBX, guest.EAX)
		b.MovImm(guest.EDI, guest.SharedLib)
		for off := 0; off < len(stubB); off += 4 {
			w := int32(uint32(stubB[off]) | uint32(stubB[off+1])<<8 | uint32(stubB[off+2])<<16 | uint32(stubB[off+3])<<24)
			b.MovImm(guest.ESI, w)
			b.Store(guest.ST4, guest.MemRef{Base: guest.EDI, Disp: int32(off)}, guest.ESI)
		}
		b.CallAbs(guest.SharedLib)
		b.Halt()
	})
	m := mem.New()
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(guest.SharedLib, stubA)
	c, err := RunCensus(m, guest.CodeBase, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Halted || c.FinalCPU.R[guest.EBX] != 1 || c.FinalCPU.R[guest.EAX] != 2 {
		t.Fatalf("halted=%v ebx=%d eax=%d, want true 1 2 (the rewritten library code must run)",
			c.Halted, c.FinalCPU.R[guest.EBX], c.FinalCPU.R[guest.EAX])
	}
}

// TestFetchFaultBeforeDecode puts EIP on a page the guest cannot execute
// whose bytes do not decode, once read-only and once unmapped. CPU.Step,
// RunCensus and the engine must each report the precise *guest.Fault (PC
// and address), not the decode error, and the engine must not watch the
// page.
func TestFetchFaultBeforeDecode(t *testing.T) {
	const pc = guest.CodeBase + 2*mem.PageSize
	for _, tc := range []struct {
		name string
		prot func(m *mem.Memory)
	}{
		{"read-only", func(m *mem.Memory) { m.Protect(pc, mem.PageSize, mem.ProtRead) }},
		{"unmapped", func(m *mem.Memory) { m.Unmap(pc, mem.PageSize) }},
	} {
		load := func() *mem.Memory {
			m := mem.New()
			m.WriteBytes(pc, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
			tc.prot(m)
			return m
		}
		want := func(path string, err error) {
			t.Helper()
			var gf *guest.Fault
			if !errors.As(err, &gf) {
				t.Fatalf("%s %s: err %v, want a guest fault", tc.name, path, err)
			}
			if gf.PC != pc || gf.Mem.Addr != pc || !gf.Mem.Exec {
				t.Fatalf("%s %s: fault pc=%#x addr=%#x exec=%v, want %#x %#x true", tc.name, path, gf.PC, gf.Mem.Addr, gf.Mem.Exec, pc, pc)
			}
		}

		var cpu guest.CPU
		cpu.Reset(pc)
		want("Step", cpu.Step(load(), &guest.Access{}))

		_, err := RunCensus(load(), pc, 100)
		want("RunCensus", err)

		m := load()
		e := NewEngine(m, machine.New(m, machine.DefaultParams()), DefaultOptions(ExceptionHandling))
		_, err = e.decoded(pc)
		want("Engine.decoded", err)
		if m.Watched(pc) {
			t.Fatalf("%s: the engine watches a page it cannot fetch from", tc.name)
		}
		want("Engine.Run", e.Run(pc, 1000))
	}
}
