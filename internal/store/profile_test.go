package store

import (
	"math/rand"
	"sort"
	"testing"
)

// TestTrapProfileReference folds random observation streams through Add,
// and through Merge of random splits of the same stream applied in random
// order, and checks both against a map-based reference: sites stay sorted
// and unique with the summed counts, observations with no accesses add no
// site, and StaticSites is exactly the reference's set of PCs with an MDA.
func TestTrapProfileReference(t *testing.T) {
	type counts struct{ mda, aligned uint64 }
	type obs struct {
		pc           uint32
		mda, aligned uint64
	}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		// A narrow PC range forces repeats; a wide one, scattered inserts.
		span := uint32(1 + rng.Intn(64))
		if rng.Intn(2) == 0 {
			span = 1 << 20
		}
		stream := make([]obs, rng.Intn(200))
		ref := map[uint32]counts{}
		for i := range stream {
			o := obs{pc: rng.Uint32() % span, mda: uint64(rng.Intn(3)), aligned: uint64(rng.Intn(3))}
			if rng.Intn(4) == 0 {
				o.mda = 0
			}
			stream[i] = o
			if o.mda == 0 && o.aligned == 0 {
				continue // carries nothing: no site
			}
			c := ref[o.pc]
			c.mda += o.mda
			c.aligned += o.aligned
			ref[o.pc] = c
		}

		var added TrapProfile
		for _, o := range stream {
			added.Add(o.pc, o.mda, o.aligned)
		}
		parts := make([]*TrapProfile, 1+rng.Intn(5))
		for i := range parts {
			parts[i] = &TrapProfile{Sessions: 1}
		}
		for _, o := range stream {
			parts[rng.Intn(len(parts))].Add(o.pc, o.mda, o.aligned)
		}
		merged := &TrapProfile{}
		for _, i := range rng.Perm(len(parts)) {
			merged.Merge(parts[i])
		}
		if merged.Sessions != uint64(len(parts)) {
			t.Fatalf("iter %d: merged %d sessions, want %d", iter, merged.Sessions, len(parts))
		}

		wantStatic := map[uint32]bool{}
		for pc, c := range ref {
			if c.mda > 0 {
				wantStatic[pc] = true
			}
		}
		for name, tp := range map[string]*TrapProfile{"add": &added, "merge": merged} {
			if len(tp.Sites) != len(ref) {
				t.Fatalf("iter %d %s: %d sites, reference has %d", iter, name, len(tp.Sites), len(ref))
			}
			if !sort.SliceIsSorted(tp.Sites, func(i, j int) bool { return tp.Sites[i].PC < tp.Sites[j].PC }) {
				t.Fatalf("iter %d %s: sites out of order", iter, name)
			}
			for i, s := range tp.Sites {
				if i > 0 && s.PC == tp.Sites[i-1].PC {
					t.Fatalf("iter %d %s: duplicate site %#x", iter, name, s.PC)
				}
				if c := ref[s.PC]; s.MDA != c.mda || s.Aligned != c.aligned {
					t.Fatalf("iter %d %s: site %#x = %d/%d, reference %d/%d",
						iter, name, s.PC, s.MDA, s.Aligned, c.mda, c.aligned)
				}
			}
			got := tp.StaticSites()
			if (got == nil) != (len(ref) == 0) || len(got) != len(wantStatic) {
				t.Fatalf("iter %d %s: StaticSites %v, want %v", iter, name, got, wantStatic)
			}
			for pc := range wantStatic {
				if !got[pc] {
					t.Fatalf("iter %d %s: StaticSites lacks %#x", iter, name, pc)
				}
			}
		}
	}
}
