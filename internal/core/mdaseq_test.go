package core

import (
	"math/rand"
	"testing"

	"mdabt/internal/host"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
)

// TestMDASequencesOnMachine validates the emitted MDA code sequences by
// executing them on the simulated machine for every kind, every in-quad
// alignment, and random data — the end-to-end complement of the pure
// EXT/INS/MSK property tests in package host.
func TestMDASequencesOnMachine(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	const dataBase = 0x2000
	for k := range memKind(len(memKinds)) {
		for off := 0; off < 8; off++ {
			for trial := 0; trial < 8; trial++ {
				m := mem.New()
				params := machine.DefaultParams()
				params.UseCaches = false
				mach := machine.New(m, params)

				// Pristine surroundings to detect neighbor corruption.
				init := make([]byte, 32)
				rnd.Read(init)
				m.WriteBytes(dataBase, init)
				val := rnd.Uint64()

				// base register R2 = dataBase+off (any alignment), disp 4.
				mach.SetReg(host.R2, uint64(dataBase+off))
				mach.SetReg(host.R1, val) // store source / load target
				a := host.NewAsm(0x100000)
				emitMDA(a, k, host.R1, host.R2, 4)
				a.Brk(machine.HaltService)
				words, err := a.Finish()
				if err != nil {
					t.Fatal(err)
				}
				mach.WriteCode(0x100000, words)
				mach.SetPC(0x100000)
				if r, _, err := mach.Run(1000); err != nil || r != machine.StopHalt {
					t.Fatalf("%v off=%d: run %v/%v", k, off, r, err)
				}
				if traps := mach.Counters().MisalignTraps; traps != 0 {
					t.Fatalf("%v off=%d: MDA sequence trapped %d times", k, off, traps)
				}

				ea := uint64(dataBase + off + 4)
				size := k.info().size
				if k.info().store {
					// The stored bytes must equal val's low bytes; every
					// other byte must be untouched.
					for i := 0; i < 32; i++ {
						addr := uint64(dataBase + i)
						got := m.Read8(addr)
						var want byte
						if addr >= ea && addr < ea+uint64(size) {
							want = byte(val >> (8 * (addr - ea)))
						} else {
							want = init[i]
						}
						if got != want {
							t.Fatalf("%v off=%d byte %#x: got %#x, want %#x", k, off, addr, got, want)
						}
					}
				} else {
					raw := m.Read(ea, size)
					want := raw
					switch k {
					case kindLD4:
						want = uint64(int64(int32(raw)))
					case kindLD2S:
						want = uint64(int64(int16(raw)))
					}
					if got := mach.Reg(host.R1); got != want {
						t.Fatalf("%v off=%d: loaded %#x, want %#x", k, off, got, want)
					}
				}
			}
		}
	}
}

// TestMDASequenceSameRegister exercises the data==base aliasing case
// (e.g. "mov eax, [eax+4]") through the machine.
func TestMDASequenceSameRegister(t *testing.T) {
	for off := 0; off < 8; off++ {
		m := mem.New()
		params := machine.DefaultParams()
		params.UseCaches = false
		mach := machine.New(m, params)
		m.Write64(0x3000, 0x1122334455667788)
		m.Write64(0x3008, 0x99AABBCCDDEEFF00)
		mach.SetReg(host.R1, uint64(0x3000+off))
		a := host.NewAsm(0x100000)
		emitMDA(a, kindLD4, host.R1, host.R1, 2)
		a.Brk(machine.HaltService)
		words, err := a.Finish()
		if err != nil {
			t.Fatal(err)
		}
		mach.WriteCode(0x100000, words)
		mach.SetPC(0x100000)
		if _, _, err := mach.Run(100); err != nil {
			t.Fatal(err)
		}
		want := uint64(int64(int32(m.Read32(uint64(0x3000 + off + 2)))))
		if got := mach.Reg(host.R1); got != want {
			t.Fatalf("off=%d: got %#x, want %#x", off, got, want)
		}
	}
}

// TestMdaSeqLenMatchesEmission walks every row of the memory-kind table:
// the MDA sequence emitted for the kind fits the row's budget.
func TestMdaSeqLenMatchesEmission(t *testing.T) {
	for k := range memKind(len(memKinds)) {
		a := host.NewAsm(0x1000)
		emitMDA(a, k, host.R1, host.R2, 0)
		if got := a.Len(); got > k.info().seqLen {
			t.Errorf("%v: emitted %d insts, budget %d", k, got, k.info().seqLen)
		}
	}
}

func TestDumpBlock(t *testing.T) {
	e := engineFor(t, mdaLoopImg(t, 50), DefaultOptions(ExceptionHandling))
	mustRun(t, e)
	pcs := e.TranslatedPCs()
	if len(pcs) == 0 {
		t.Fatal("no translations")
	}
	found := false
	for _, pc := range pcs {
		out, err := e.DumpBlock(pc)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatal("empty dump")
		}
		// The patched site renders as a branch with a '*' marker.
		if containsPatchMarker(out) {
			found = true
		}
	}
	if !found {
		t.Error("no patched-site marker in any block dump")
	}
	if _, err := e.DumpBlock(0xdeadbeef); err == nil {
		t.Error("dump of untranslated pc: want error")
	}
}

func containsPatchMarker(s string) bool {
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '\n' && s[i+1] == ' ' && i+2 < len(s) && s[i+2] == '*' {
			return true
		}
	}
	return false
}
