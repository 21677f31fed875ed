package core

// The crash-safe persistent store's core-level acceptance test: every
// entry of the golden equivalence matrix runs on a reused engine whose
// warm-start inputs — static trap profiles and AOT block schedules — are
// routed through a real on-disk store (save, then load-validate-adopt)
// instead of being handed over in memory. Every fingerprint must match
// the fresh-engine golden file bit for bit: persistence is invisible to
// the simulation. A rotating subset of artifacts is saved with a latent
// injected corruption (bit flip or torn write); those loads must
// quarantine and the run must fall back to its cold inputs — and still
// match the golden file, because the cold path IS the golden path.
//
// This test lives in package core (not core_test) to reuse the golden
// matrix helpers; internal/aot cannot be imported from here (it imports
// core), so the schedule artifact is a local payload carrying the part
// the engine adopts, produced by the same align.RecoverCFG call
// internal/aot wraps.

import (
	"errors"
	"os"
	"strings"
	"testing"

	"mdabt/internal/align"
	"mdabt/internal/faultinject"
	"mdabt/internal/guest"
	"mdabt/internal/machine"
	"mdabt/internal/mem"
	"mdabt/internal/store"
)

// warmSchedule is the block-schedule payload this test persists under
// store.KindAOTImage — the subset of aot.Image the engine adopts.
type warmSchedule struct {
	Entry  uint32   `json:"entry"`
	Blocks []uint32 `json:"blocks"`
}

// memBlockSchedule recovers the CFG block schedule for a loaded memory,
// the offline front-end half of the AOT tier (what aot.BuildFromMemory
// produces, minus the image envelope).
func memBlockSchedule(m *mem.Memory, entry uint32) []uint32 {
	dec := func(pc uint32) (guest.Inst, int, error) {
		var buf [16]byte
		for i := range buf {
			buf[i] = m.Read8(uint64(pc) + uint64(i))
		}
		return guest.Decode(buf[:])
	}
	return align.RecoverCFG(dec, entry, maxBlockInsts).BlockPCs()
}

// warmStore mediates every artifact round trip of the matrix test and
// tracks how many artifacts it poisoned with latent corruption.
type warmStore struct {
	t       *testing.T
	st      *store.Store
	saves   int
	poisons int
}

// roundTrip saves payload at k — every 7th artifact with a latent
// injected corruption, alternating bit flips and torn writes — then
// loads it back into out. It reports whether the load validated cleanly;
// a poisoned artifact must come back store.ErrCorrupt (quarantined), so
// the caller keeps its cold inputs.
func (w *warmStore) roundTrip(k store.Key, payload, out any) bool {
	w.t.Helper()
	w.saves++
	poison := w.saves%7 == 3
	if poison {
		pt := faultinject.StoreBitFlip
		if w.poisons%2 == 1 {
			pt = faultinject.StoreTornWrite
		}
		w.st.SetFaultPlan(faultinject.New(int64(1000+w.saves)).At(pt, 1))
		w.poisons++
	}
	if err := w.st.Save(k, payload); err != nil {
		w.t.Fatalf("save %v: %v", k, err)
	}
	w.st.SetFaultPlan(nil)
	err := w.st.Load(k, out)
	if poison {
		if !errors.Is(err, store.ErrCorrupt) {
			w.t.Fatalf("poisoned artifact %v loaded with err %v, want ErrCorrupt", k, err)
		}
		return false
	}
	if err != nil {
		w.t.Fatalf("load %v: %v", k, err)
	}
	return true
}

// warmOptions routes cfg's warm-start inputs through the store for one
// (program, config) matrix entry and returns the options the engine
// should run with. A static-profile config's sites come from trained, the
// program's training profile, which is persisted whole as dbtrun does on
// a store miss. On a clean round trip the store's copy replaces the
// in-memory input; on a corrupt one the original (cold) input stays.
func (w *warmStore) warmOptions(opt Options, trained *store.TrapProfile, program string, m *mem.Memory, entry uint32) Options {
	w.t.Helper()
	fp := opt.Fingerprint()
	if opt.StaticSites != nil {
		var tp store.TrapProfile
		k := store.Key{Program: program, Fingerprint: fp, Kind: store.KindTrapProfile}
		if w.roundTrip(k, trained, &tp) {
			opt.StaticSites = tp.StaticSites()
		}
	}
	if opt.AOT && opt.AOTBlocks == nil {
		sched := warmSchedule{Entry: entry, Blocks: memBlockSchedule(m, entry)}
		var got warmSchedule
		k := store.Key{Program: program, Fingerprint: fp, Kind: store.KindAOTImage}
		if w.roundTrip(k, &sched, &got) {
			opt.AOTBlocks = got.Blocks
		}
	}
	return opt
}

func TestStoreWarmGoldenMatrix(t *testing.T) {
	raw, err := os.ReadFile(equivalenceGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing: %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		k, v, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[k] = v
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ws := &warmStore{t: t, st: st}

	programs := []struct {
		name string
		img  []byte
	}{
		{"misloop", mdaLoopImg(t, 300)},
		{"lateonset", lateOnsetImg(t, 100, 400)},
		{"multiblock", multiBlockLoopImg(t, 800)},
		{"mixedgroup", mixedGroupImg(t, 300)},
	}
	data := patternData(256)

	m := mem.New()
	mach := machine.New(m, machine.DefaultParams())
	var e *Engine
	ran := 0
	check := func(key string, e *Engine) {
		t.Helper()
		w, ok := want[key]
		if !ok {
			t.Fatalf("%s: no golden entry", key)
		}
		if got := equivalenceFingerprint(e); got != w {
			t.Errorf("%s: warm-from-store run diverged from golden\n got %s\nwant %s", key, got, w)
		}
		ran++
	}
	for _, p := range programs {
		trained := censusProfile(t, p.img, data)
		program := store.HashProgram(p.img, data)
		for _, cfg := range equivalenceConfigs(trained.StaticSites()) {
			key := p.name + "|" + cfg.name
			// Stage the program once so the offline schedule recovery sees
			// the same bytes the run will.
			m.Reset()
			m.WriteBytes(guest.CodeBase, p.img)
			m.WriteBytes(guest.DataBase, data)
			opt := ws.warmOptions(cfg.opt, trained, program, m, guest.CodeBase)
			if e == nil {
				e = NewEngine(m, mach, opt)
			} else {
				e.Reset(opt)
			}
			e.LoadImage(guest.CodeBase, p.img)
			m.WriteBytes(guest.DataBase, data)
			if err := e.Run(guest.CodeBase, 500_000_000); err != nil {
				t.Fatalf("%s: warm engine: %v", key, err)
			}
			check(key, e)
		}
	}
	for _, fp := range faultEquivalencePrograms(t) {
		trained := faultProfile(t, fp)
		program := "fault-" + fp.Name
		for _, cfg := range equivalenceConfigs(trained.StaticSites()) {
			key := "fault:" + fp.Name + "|" + cfg.name
			m.Reset()
			fp.Load(m)
			opt := ws.warmOptions(cfg.opt, trained, program, m, fp.Entry())
			e.Reset(opt)
			fp.Load(m)
			rerr := e.Run(fp.Entry(), 500_000_000)
			if fp.ExpectFault != (rerr != nil) {
				t.Fatalf("%s: warm engine err %v, expect-fault %v", key, rerr, fp.ExpectFault)
			}
			check(key, e)
		}
	}
	if ran != len(want) {
		t.Errorf("warm matrix ran %d entries, golden has %d", ran, len(want))
	}

	// The corruption side of the contract: some artifacts were poisoned,
	// every one of them was quarantined (never served), and the clean rest
	// were actually adopted from disk.
	ss := st.Stats()
	if ws.poisons == 0 {
		t.Fatalf("matrix poisoned no artifacts; widen the rotation")
	}
	if ss.Corrupt != uint64(ws.poisons) || ss.Quarantined != uint64(ws.poisons) {
		t.Errorf("corrupt/quarantined = %d/%d, want %d poisoned artifacts isolated",
			ss.Corrupt, ss.Quarantined, ws.poisons)
	}
	if wantHits := uint64(ws.saves - ws.poisons); ss.Hits != wantHits {
		t.Errorf("hits = %d, want %d (every clean artifact adopted once)", ss.Hits, wantHits)
	}
	if ss.Loads != ss.Hits+ss.Misses+ss.Corrupt+ss.ReadErrors {
		t.Errorf("load ledger does not reconcile: %+v", ss)
	}
}
