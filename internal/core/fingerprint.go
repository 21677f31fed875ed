package core

import (
	"fmt"
	"hash/fnv"
)

// fingerprintFormat versions the Fingerprint construction itself: bump it
// when the set of fingerprinted knobs or their rendering changes, so
// artifacts produced under an older notion of "same configuration" read
// as foreign instead of silently matching.
const fingerprintFormat = 3

// Fingerprint condenses every translation-relevant option into a short
// stable token, the Options component of a persistent-store key
// (internal/store): two engines share artifacts exactly when their
// fingerprints match. It hashes a normalized copy — mechanism defaults
// filled in, so a zero HeatThreshold and an explicit default fingerprint
// identically — and excludes the inputs that do not change what is safe
// to share:
//
//   - StaticSites and AOTBlocks are artifact *payloads* (what the store
//     delivers), not configuration; keying on them would make every warm
//     start its own universe.
//   - FaultPlan, SelfCheck, and SliceInsts are harness knobs, proven
//     simulation-invisible (or injection-only) elsewhere.
//   - Traces is ignored (every run is traced; DESIGN.md §14).
func (o Options) Fingerprint() string {
	o.Normalize()
	o.StaticSites = nil
	o.AOTBlocks = nil
	o.FaultPlan = nil
	o.SelfCheck = false
	o.SliceInsts = 0
	o.Traces = false
	h := fnv.New64a()
	fmt.Fprintf(h, "fp%d|%s|%+v", fingerprintFormat, o.Mechanism, o)
	return fmt.Sprintf("%016x", h.Sum64())
}
