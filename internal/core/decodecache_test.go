package core

import (
	"testing"
	"unsafe"

	"mdabt/internal/guest"
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
		if de.inst.Op != guest.MOVri || de.len == 0 {
			t.Fatalf("decoded(%#x) = op %v len %d, want MOVri", pc, de.inst.Op, de.len)
		}
		if !fresh {
			t.Fatalf("decoded(%#x) not fresh on first lookup", pc)
		}
		// Repeat lookups must hand back the same slot (profiles attach to it).
		if again, fresh2, _ := c.decoded(pc, m); again != de || fresh2 {
			t.Fatalf("decoded(%#x) returned a different or fresh slot on repeat", pc)
		}
	}
	if uint32(len(c.dense)) > decDenseLimit {
		t.Fatalf("dense window grew to %d entries, past the %d limit", len(c.dense), decDenseLimit)
	}
	if c.far[farPC] == nil {
		t.Fatalf("far PC %#x not in the map tier", farPC)
	}

	// peek never allocates: an untouched PC inside the window but past the
	// grown prefix, and an untouched far PC, both report nil.
	if de := c.peek(densePC + uint32(len(c.dense))); de != nil {
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
		p := de.profile()
		if p == nil || de.profile() != p {
			t.Fatalf("profile() for %#x not stable", pc)
		}
		p.mda = 5
		if got := c.profAt(pc); got != p {
			t.Fatalf("profAt(%#x) = %p, want %p", pc, got, p)
		}
	}

	seen := map[uint32]bool{}
	c.each(func(pc uint32, de *decEntry) {
		if p := de.prof; p != nil {
			if p.mda != 5 {
				t.Errorf("each(%#x): mda = %d, want 5", pc, p.mda)
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
	if de := c.peek(densePC); de == nil || de.len == 0 {
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

			if de := e.dec.peek(pc); (de != nil && de.len != 0) != tc.decoded {
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
