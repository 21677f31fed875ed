package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"mdabt/internal/aot"
	"mdabt/internal/core"
	"mdabt/internal/faultinject"
	"mdabt/internal/guest"
	"mdabt/internal/guestasm"
	"mdabt/internal/mem"
	"mdabt/internal/store"
)

// storeTestProgram assembles the shared MDA loop and returns (image,
// data) bytes for an Image-loaded request — the path with an automatic
// store identity.
func storeTestProgram(t *testing.T) ([]byte, []byte) {
	t.Helper()
	img, err := guestasm.Assemble(mdaLoopSrc, guest.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	return img, data
}

func storeServer(t *testing.T, st *store.Store) *Server {
	t.Helper()
	return NewServer(ServerOptions{
		Pool:  Options{Workers: 2, Queue: 8},
		Store: st,
	})
}

func doReq(t *testing.T, s *Server, req Request) *Result {
	t.Helper()
	res, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	return res
}

// TestWarmStartProfileAcrossServerSessions is the profile lifecycle end
// to end: session 1 runs cold (SPEH with no profile, eating discovery
// traps), its trap history flushes into the store on Drain, and session 2
// — a fresh server on the same store directory — warm-starts with the
// merged profile: identical guest results, strictly fewer traps.
func TestWarmStartProfileAcrossServerSessions(t *testing.T) {
	img, data := storeTestProgram(t)
	opt := core.DefaultOptions(core.SPEH)
	req := Request{Key: "p", Image: img, Data: data, Options: &opt}
	dir := t.TempDir()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := storeServer(t, st1)
	cold := doReq(t, s1, req)
	if cold.Counters.MisalignTraps == 0 {
		t.Fatalf("cold SPEH run trapped 0 times; the workload is supposed to discover sites via traps")
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s1.Close()
	if st := st1.Stats(); st.Merges == 0 || st.Saves == 0 {
		t.Fatalf("drain did not flush the trap profile: %+v", st)
	}

	// The stored profile is addressed by (content hash, fingerprint).
	var tp store.TrapProfile
	k := store.Key{Program: store.HashProgram(img, data), Fingerprint: opt.Fingerprint(), Kind: store.KindTrapProfile}
	if err := st1.Load(k, &tp); err != nil {
		t.Fatalf("stored profile unreadable: %v", err)
	}
	if tp.Sessions != 1 || tp.StaticSites() == nil {
		t.Fatalf("stored profile: %+v", tp)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := storeServer(t, st2)
	defer s2.Close()
	warm := doReq(t, s2, req)
	if warm.CPU != cold.CPU {
		t.Fatalf("warm guest results diverge from cold:\n  cold %+v\n  warm %+v", cold.CPU, warm.CPU)
	}
	if warm.Counters.MisalignTraps >= cold.Counters.MisalignTraps {
		t.Fatalf("warm start did not reduce traps: cold %d, warm %d",
			cold.Counters.MisalignTraps, warm.Counters.MisalignTraps)
	}
	if st := st2.Stats(); st.Hits == 0 {
		t.Fatalf("warm session never hit the store: %+v", st)
	}
}

// TestWarmStartAOTImageBitIdentical: a stored AOT image adopted through
// the serve warm path reproduces the cold self-recovered run bit for bit
// — CPU, machine counters, and engine stats (the PR 7 adoption
// invariant, now across a persistence boundary).
func TestWarmStartAOTImageBitIdentical(t *testing.T) {
	img, data := storeTestProgram(t)
	opt := core.DefaultOptions(core.AOT)
	req := Request{Key: "p", Image: img, Data: data, Options: &opt}

	// Cold reference: no store; the engine recovers the CFG itself.
	ref := storeServer(t, nil)
	cold := doReq(t, ref, req)
	ref.Close()
	if cold.Stats.AOTBlocks == 0 {
		t.Fatalf("cold aot run preseeded 0 blocks: %+v", cold.Stats)
	}

	// Build and persist the image the way a front end would.
	m := mem.New()
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(uint64(guest.DataBase), data)
	image := aot.BuildFromMemory(m, guest.CodeBase)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := store.Key{Program: store.HashProgram(img, data), Fingerprint: opt.Fingerprint(), Kind: store.KindAOTImage}
	if err := st.Save(k, image); err != nil {
		t.Fatal(err)
	}

	warm := storeServer(t, st)
	defer warm.Close()
	got := doReq(t, warm, req)
	if got.CPU != cold.CPU || got.Counters != cold.Counters || got.Stats != cold.Stats {
		t.Fatalf("warm-from-store aot run not bit-identical:\n  cold stats %+v\n  warm stats %+v\n  cold counters %+v\n  warm counters %+v",
			cold.Stats, got.Stats, cold.Counters, got.Counters)
	}
	if st.Stats().Hits == 0 {
		t.Fatalf("warm aot session never hit the store: %+v", st.Stats())
	}

	// A bare Options{Mechanism: AOT} is the same configuration: warm start
	// normalizes it before deciding to load the image.
	hits := st.Stats().Hits
	lit := core.Options{Mechanism: core.AOT}
	got = doReq(t, warm, Request{Key: "p", Image: img, Data: data, Options: &lit})
	if got.CPU != cold.CPU || got.Counters != cold.Counters || got.Stats != cold.Stats {
		t.Fatalf("literal aot options run not bit-identical: stats %+v, want %+v", got.Stats, cold.Stats)
	}
	if st.Stats().Hits == hits {
		t.Fatalf("literal aot options never loaded the stored image: %+v", st.Stats())
	}
}

// TestStoreCorruptionDegradesToCold: a corrupt stored image (latent
// injected bit flip) must quarantine on the warm path and the request
// must complete with cold-identical results — no error, no wrong result.
func TestStoreCorruptionDegradesToCold(t *testing.T) {
	img, data := storeTestProgram(t)
	opt := core.DefaultOptions(core.AOT)
	req := Request{Key: "p", Image: img, Data: data, Options: &opt}

	ref := storeServer(t, nil)
	cold := doReq(t, ref, req)
	ref.Close()

	m := mem.New()
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(uint64(guest.DataBase), data)
	image := aot.BuildFromMemory(m, guest.CodeBase)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetFaultPlan(faultinject.New(chaosSeed).At(faultinject.StoreBitFlip, 1))
	k := store.Key{Program: store.HashProgram(img, data), Fingerprint: opt.Fingerprint(), Kind: store.KindAOTImage}
	if err := st.Save(k, image); err != nil {
		t.Fatalf("latent-corrupt save reported error: %v", err)
	}

	s := storeServer(t, st)
	defer s.Close()
	got := doReq(t, s, req)
	if got.CPU != cold.CPU || got.Counters != cold.Counters || got.Stats != cold.Stats {
		t.Fatalf("cold fallback after corruption not identical to cold run")
	}
	stats := st.Stats()
	if stats.Corrupt != 1 || stats.Quarantined != 1 {
		t.Fatalf("corruption not quarantined: %+v", stats)
	}
}

// TestProfilesMergeAcrossDrains: repeated sessions accumulate — the
// stored profile's session count and site counts grow monotonically.
func TestProfilesMergeAcrossDrains(t *testing.T) {
	img, data := storeTestProgram(t)
	opt := core.DefaultOptions(core.SPEH)
	req := Request{Key: "p", Image: img, Data: data, Options: &opt}
	dir := t.TempDir()
	k := store.Key{Program: store.HashProgram(img, data), Fingerprint: opt.Fingerprint(), Kind: store.KindTrapProfile}

	var lastSessions uint64
	for round := 1; round <= 3; round++ {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := storeServer(t, st)
		doReq(t, s, req)
		doReq(t, s, req)
		if err := s.Close(); err != nil {
			t.Fatalf("round %d close: %v", round, err)
		}
		var tp store.TrapProfile
		if err := st.Load(k, &tp); err != nil {
			t.Fatalf("round %d load: %v", round, err)
		}
		if tp.Sessions <= lastSessions {
			t.Fatalf("round %d: sessions did not grow (%d -> %d)", round, lastSessions, tp.Sessions)
		}
		lastSessions = tp.Sessions
	}
	if lastSessions != 6 {
		t.Fatalf("3 rounds × 2 requests should aggregate 6 sessions, got %d", lastSessions)
	}
}

// TestLoaderRequestWithoutStoreKeyBypassesStore: no stable content
// identity means no store traffic — not a mis-keyed artifact.
func TestLoaderRequestWithoutStoreKeyBypassesStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := storeServer(t, st)
	defer s.Close()
	opt := core.DefaultOptions(core.ExceptionHandling)
	doReq(t, s, Request{Key: "p", Load: asmProgram(t, mdaLoopSrc), Options: &opt})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Loads != 0 || got.Saves != 0 {
		t.Fatalf("loader request touched the store: %+v", got)
	}
}

// TestRefusedRequestNeverBuildsOrTrains: a request's builder and trainer
// run inside the pool, so a request the pool refuses never pays for them.
// With no store to satisfy the warm start, the same requests admitted
// before the pool drains call each once.
func TestRefusedRequestNeverBuildsOrTrains(t *testing.T) {
	img, data := storeTestProgram(t)
	m := mem.New()
	m.WriteBytes(guest.CodeBase, img)
	m.WriteBytes(uint64(guest.DataBase), data)
	image := aot.BuildFromMemory(m, guest.CodeBase)
	var builds, trains atomic.Int32
	aotOpt, spehOpt := core.DefaultOptions(core.AOT), core.DefaultOptions(core.SPEH)
	reqs := []Request{
		{Key: "p", Image: img, Data: data, Options: &aotOpt,
			Build: func() *aot.Image { builds.Add(1); return image }},
		{Key: "p", Image: img, Data: data, Options: &spehOpt,
			Train: func() *store.TrapProfile { trains.Add(1); return &store.TrapProfile{} }},
	}
	s := storeServer(t, nil)
	defer s.Close()
	for _, req := range reqs {
		doReq(t, s, req)
	}
	if builds.Load() != 1 || trains.Load() != 1 {
		t.Fatalf("admitted requests: %d builds, %d trains, want 1 each", builds.Load(), trains.Load())
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		if _, err := s.Do(context.Background(), req); !errors.Is(err, ErrDraining) {
			t.Fatalf("Do on a draining pool: %v, want ErrDraining", err)
		}
	}
	if builds.Load() != 1 || trains.Load() != 1 {
		t.Fatalf("refused requests built %d and trained %d times", builds.Load()-1, trains.Load()-1)
	}
}
