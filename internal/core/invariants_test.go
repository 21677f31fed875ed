package core

import (
	"strings"
	"testing"

	"mdabt/internal/guest"
	"mdabt/internal/host"
	"mdabt/internal/machine"
)

// invariantEngine runs a small program to populate a real engine state.
func invariantEngine(t *testing.T) *Engine {
	t.Helper()
	img := buildImg(t, func(b *guest.Builder) {
		b.MovImm(guest.EBX, guest.DataBase)
		b.MovImm(guest.ECX, 0)
		b.MovImm(guest.EAX, 0)
		b.Label("loop")
		b.Load(guest.LD4, guest.EDX, guest.MemRef{Base: guest.EBX, Disp: 2})
		b.ALU(guest.ADDrr, guest.EAX, guest.EDX)
		b.Call("work")
		b.ALUImm(guest.ADDri, guest.ECX, 1)
		b.CmpImm(guest.ECX, 40)
		b.Jcc(guest.L, "loop")
		b.Halt()
		b.Label("work")
		b.Push(guest.EAX)
		b.Pop(guest.EAX)
		b.Ret()
	})
	opt := DefaultOptions(ExceptionHandling)
	opt.IBTC = true
	_, _, e := runDBT(t, img, patternData(64), opt)
	if e.Blocks() == 0 {
		t.Fatal("engine has no live translations to corrupt")
	}
	return e
}

// anyBlock returns the engine's first live block in host order.
func anyBlock(e *Engine) *block {
	for _, sp := range e.blockSpans {
		if !sp.b.invalid {
			return sp.b
		}
	}
	return nil
}

// TestCheckInvariantsCleanEngine: a healthy post-run engine passes.
func TestCheckInvariantsCleanEngine(t *testing.T) {
	e := invariantEngine(t)
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("clean engine fails self-check: %v", err)
	}
}

// TestCheckInvariantsDetectsCorruption plants one corruption of each class
// the checker covers and asserts each is caught with a matching message.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, e *Engine)
		want    string
	}{
		{
			name:    "cache pointers crossed",
			corrupt: func(t *testing.T, e *Engine) { e.cc.blockNext = e.cc.stubNext + 4 },
			want:    "cache pointers out of order",
		},
		{
			name:    "live block marked invalid",
			corrupt: func(t *testing.T, e *Engine) { anyBlock(e).invalid = true },
			want:    "marked invalid",
		},
		{
			name:    "block map key mismatch",
			corrupt: func(t *testing.T, e *Engine) { anyBlock(e).guestPC++ },
			want:    "block table key",
		},
		{
			name:    "block outside allocated zone",
			corrupt: func(t *testing.T, e *Engine) { anyBlock(e).hostEntry = e.cc.base + e.cc.size },
			want:    "outside allocated zone",
		},
		{
			name: "side table entry dropped",
			corrupt: func(t *testing.T, e *Engine) {
				for hpc := range e.sites {
					delete(e.sites, hpc)
					break
				}
			},
			want: "side table",
		},
		{
			name: "exit id mismatch",
			corrupt: func(t *testing.T, e *Engine) {
				if len(e.exits) == 0 {
					t.Skip("no exits")
				}
				e.exits[0].id++
			},
			want: "exit 0 carries id",
		},
		{
			name: "exit from an unregistered block",
			corrupt: func(t *testing.T, e *Engine) {
				if len(e.exits) == 0 {
					t.Skip("no exits")
				}
				e.exits[0].from = &block{guestPC: e.exits[0].from.guestPC}
			},
			want: "exit 0 belongs to an unregistered block",
		},
		{
			name: "adaptive site in an unregistered block",
			corrupt: func(t *testing.T, e *Engine) {
				e.adaptives = append(e.adaptives, adaptiveRef{b: &block{guestPC: anyBlock(e).guestPC}})
			},
			want: "belongs to an unregistered block",
		},
		{
			name: "ibtc mirror diverges from memory",
			corrupt: func(t *testing.T, e *Engine) {
				for i := range e.ibtc {
					if e.ibtc[i].valid {
						e.Mem.Write64(uint64(ibtcBase)+uint64(i)*16+8, 0xdead)
						return
					}
				}
				t.Skip("no valid ibtc entries")
			},
			want: "ibtc",
		},
		{
			name: "blacklisted block translated",
			corrupt: func(t *testing.T, e *Engine) {
				e.dec.state(anyBlock(e).guestPC).blacklisted = true
			},
			want: "blacklisted",
		},
		{
			name: "block bound at a foreign PC",
			corrupt: func(t *testing.T, e *Engine) {
				b := anyBlock(e)
				e.dec.state(b.guestPC + 1).blk = b
			},
			want: "block table key",
		},
		{
			name: "bound entry names an invalidated block",
			corrupt: func(t *testing.T, e *Engine) {
				b := anyBlock(e)
				stale := &block{guestPC: b.guestPC, hostEntry: b.hostEntry, hostSize: b.hostSize, invalid: true}
				e.dec.state(b.guestPC).blk = stale
			},
			want: "bound but marked invalid",
		},
		{
			name: "bound entry names an uncommitted block",
			corrupt: func(t *testing.T, e *Engine) {
				b := anyBlock(e)
				ghost := *b // live-looking copy no span entry owns
				e.dec.state(b.guestPC).blk = &ghost
			},
			want: "has 0 fault-attribution spans",
		},
		{
			name: "decoded code page unwatched",
			corrupt: func(t *testing.T, e *Engine) {
				e.Mem.SetWatch(uint64(anyBlock(e).guestPC), 1, false)
			},
			want: "is not write-watched",
		},
		{
			name: "trace outside allocated host code",
			corrupt: func(t *testing.T, e *Engine) {
				const pc = btFaultBase - 0x1000 // between the IBTC and the fault pad
				e.Mach.WriteCode(pc, []uint32{host.MustEncode(host.Inst{Op: host.BRKBT, Payload: 1})})
				e.Mach.SetPC(pc)
				if stop, _, err := e.Mach.Run(1); stop != machine.StopBrk || err != nil {
					t.Fatalf("stop %v, err %v", stop, err)
				}
			},
			want: "outside the block zone",
		},
		{
			name: "live block not bound at its entry",
			corrupt: func(t *testing.T, e *Engine) {
				e.dec.state(anyBlock(e).guestPC).blk = nil
			},
			want: "not bound at its start-PC entry",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := invariantEngine(t)
			tc.corrupt(t, e)
			err := e.CheckInvariants()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSelfCheckLatchesIntoRun: with SelfCheck on, a corruption introduced
// mid-run surfaces as a Run error instead of silent state divergence.
func TestSelfCheckLatchesIntoRun(t *testing.T) {
	e := invariantEngine(t)
	e.Opt.SelfCheck = true
	anyBlock(e).guestPC++ // plant corruption
	e.selfCheck("test")
	if e.invariantErr == nil {
		t.Fatal("selfCheck did not latch the violation")
	}
	if err := e.Run(uint32(guest.CodeBase), 1_000_000); err == nil ||
		!strings.Contains(err.Error(), "block table key") {
		t.Fatalf("Run = %v, want latched invariant error", err)
	}
}
