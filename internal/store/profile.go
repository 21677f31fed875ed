package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// TrapSite is one guest instruction address's aggregated alignment
// history: how many misaligned (trapping) and aligned accesses it
// performed across every contributing session.
type TrapSite struct {
	PC      uint32 `json:"pc"`
	MDA     uint64 `json:"mda"`
	Aligned uint64 `json:"aligned"`
}

// TrapProfile is the engine's one per-site alignment profile: a census's
// sites, a training run's profile file (dbtrun -profile-out/-profile-in),
// a session's trap history, and the KindTrapProfile payload merged across
// sessions. It is the persistent form of the FX!32 profile-database idea —
// sites that trapped for *any* past session warm-start the
// static-profile/SPEH site policy for the next one, so the ~1000-cycle
// discovery traps are paid once per fleet, not once per run.
type TrapProfile struct {
	// Sessions counts how many engine sessions have been merged in.
	Sessions uint64 `json:"sessions"`
	// Sites is the per-PC history, sorted by PC (canonical form; Merge
	// and Add keep it sorted so encoded artifacts are deterministic).
	Sites []TrapSite `json:"sites,omitempty"`
}

// Add folds one site observation into the profile. An observation with
// both counts zero carries nothing and adds no site.
func (tp *TrapProfile) Add(pc uint32, mda, aligned uint64) {
	if mda == 0 && aligned == 0 {
		return
	}
	i := sort.Search(len(tp.Sites), func(i int) bool { return tp.Sites[i].PC >= pc })
	if i < len(tp.Sites) && tp.Sites[i].PC == pc {
		tp.Sites[i].MDA += mda
		tp.Sites[i].Aligned += aligned
		return
	}
	tp.Sites = append(tp.Sites, TrapSite{})
	copy(tp.Sites[i+1:], tp.Sites[i:])
	tp.Sites[i] = TrapSite{PC: pc, MDA: mda, Aligned: aligned}
}

// Merge folds other into tp (site counts add; session counts add).
func (tp *TrapProfile) Merge(other *TrapProfile) {
	if other == nil {
		return
	}
	tp.Sessions += other.Sessions
	for _, s := range other.Sites {
		tp.Add(s.PC, s.MDA, s.Aligned)
	}
}

// UnmarshalJSON decodes a profile and checks the canonical form Add keeps:
// sites strictly ascending by PC, none with both counts zero. Store loads
// and profile files decode through here alike; unknown keys are ignored,
// so a file in the older {"program","input","sites":[…]} layout loads
// with Sessions 0.
func (tp *TrapProfile) UnmarshalJSON(data []byte) error {
	type plain TrapProfile // drops the method: no recursion
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	for i, s := range p.Sites {
		if s.MDA == 0 && s.Aligned == 0 {
			return fmt.Errorf("store: trap profile: site %d (pc %#x) has no accesses", i, s.PC)
		}
		if i > 0 && s.PC <= p.Sites[i-1].PC {
			return fmt.Errorf("store: trap profile: site %d (pc %#x) out of pc order", i, s.PC)
		}
	}
	*tp = TrapProfile(p)
	return nil
}

// StaticSites renders the profile as the engine's static-profile site set
// (core.Options.StaticSites): every PC that has ever performed a
// misaligned access maps to true. Returns nil for an empty profile so
// callers can distinguish "no knowledge" from "knowledge: no MDA sites".
func (tp *TrapProfile) StaticSites() map[uint32]bool {
	if tp == nil || len(tp.Sites) == 0 {
		return nil
	}
	out := make(map[uint32]bool)
	for _, s := range tp.Sites {
		if s.MDA > 0 {
			out[s.PC] = true
		}
	}
	return out
}

// MergeTrapProfile folds delta into the stored profile under k with a
// read-modify-write: load the existing artifact (a corrupt one is
// quarantined exactly as in Load and the merge restarts from delta
// alone), merge, and save atomically. The whole cycle runs under the
// single-writer lock so concurrent mergers from other processes serialize
// instead of losing updates.
func (s *Store) MergeTrapProfile(k Key, delta *TrapProfile) error {
	if delta == nil {
		return nil
	}
	release, err := s.lockWriter()
	if err != nil {
		return err
	}
	defer release()
	merged := &TrapProfile{}
	merged.Merge(delta)
	var prior TrapProfile
	err = s.Load(k, &prior)
	switch {
	case err == nil:
		merged.Merge(&prior)
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrCorrupt):
		// First write, or the prior profile was quarantined: start from
		// delta alone. Profile loss degrades warm-start quality, never
		// correctness.
	default:
		return err
	}
	if err := s.saveLocked(k, merged); err != nil {
		return err
	}
	s.merges.Add(1)
	return nil
}
