// Package aot is the ahead-of-time static translation tier (DESIGN.md
// §13): it runs internal/align's whole-binary CFG recovery over a loaded
// guest image offline and packages the result as a serializable Image —
// the block-entry schedule, the indirect-branch target set, and the
// escapes-to-dynamic verdict — that an engine adopts through
// Options.AOTBlocks. Engine.Reset with applied options re-adopts the image
// into the fresh code cache at the next Run, so a serving engine answers
// repeat requests for a known binary with zero dynamic translations.
package aot

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"mdabt/internal/align"
	"mdabt/internal/core"
	"mdabt/internal/guest"
	"mdabt/internal/mem"
)

// ImageVersion is the serialization format version.
const ImageVersion = 1

// ErrCorrupt reports an image that failed validation — truncation, bit
// flip, version skew, or a missing/mismatched content checksum. Callers
// (Engine preseeding, the persistent store, the CLIs) treat it as a
// degrade signal: drop the image and translate cold; never adopt.
var ErrCorrupt = errors.New("aot: image corrupt")

// Image is a serialized whole-binary pre-translation schedule. It carries
// guest-level facts only — block entries, not host code words — because
// host code is deterministic given (guest image, Options): the engine
// re-emits it at adoption, offline, charging no simulated cycles, which
// keeps the image valid across engine configurations and code-cache
// layouts while still making warm starts bit-identical to cold ones.
type Image struct {
	Version int `json:"version"`
	// Checksum is the hex SHA-256 of the image's canonical content (the
	// JSON encoding with Checksum itself blanked). Build and Encode seal
	// it automatically; Decode and Verify reject any image whose bytes do
	// not reproduce it, so a truncated or bit-flipped body can no longer
	// decode "successfully" on the strength of a version int alone.
	Checksum string `json:"checksum,omitempty"`
	Entry    uint32 `json:"entry"`
	// Blocks is the recovered block-entry schedule, ascending.
	Blocks []uint32 `json:"blocks"`
	// RetTargets is the recovered indirect-branch target set (also present
	// in Blocks; kept separately for diagnostics and target-set studies).
	RetTargets []uint32 `json:"ret_targets,omitempty"`
	// Escapes records the recovery's soundness verdict: true means some
	// reachable code escaped static discovery and JIT fallbacks are
	// expected at run time.
	Escapes bool `json:"escapes,omitempty"`
	// Insts counts the instructions classified as code.
	Insts int `json:"insts"`
}

// Build recovers the CFG from entry through dec and packages it.
func Build(dec align.Decoder, entry uint32) *Image {
	cfg := align.RecoverCFG(dec, entry, core.MaxBlockInsts)
	im := &Image{
		Version:    ImageVersion,
		Entry:      entry,
		Blocks:     cfg.BlockPCs(),
		RetTargets: cfg.RetTargets,
		Escapes:    cfg.Escapes,
		Insts:      cfg.Insts,
	}
	im.Seal()
	return im
}

// BuildFromMemory builds an image for the program loaded in m.
func BuildFromMemory(m *mem.Memory, entry uint32) *Image {
	return Build(MemDecoder(m), entry)
}

// MemDecoder wraps guest.Decode over a loaded memory image, for recovering
// a program outside an engine.
func MemDecoder(m *mem.Memory) align.Decoder {
	return func(pc uint32) (guest.Inst, int, error) {
		var buf [16]byte
		for i := range buf {
			buf[i] = m.Read8(uint64(pc) + uint64(i))
		}
		return guest.Decode(buf[:])
	}
}

// Apply configures o to adopt the image: the aot mechanism's pre-seeding
// pass translates im.Blocks instead of re-running CFG recovery in-engine.
// AOT implies StaticAlign (Options.Normalize).
func (im *Image) Apply(o *core.Options) {
	o.AOT = true
	o.AOTBlocks = im.Blocks
}

// contentSum computes the hex SHA-256 of the image's canonical content:
// its compact JSON encoding with the Checksum field blanked.
func (im *Image) contentSum() string {
	c := *im
	c.Checksum = ""
	raw, err := json.Marshal(&c)
	if err != nil {
		// Image is a plain data struct; Marshal cannot fail on it. Keep
		// the impossible branch checksum-mismatching rather than panicking.
		return "unmarshalable"
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// Seal stamps the content checksum. Build and Encode call it; images
// assembled by hand must be sealed before Verify or Decode accepts them.
func (im *Image) Seal() { im.Checksum = im.contentSum() }

// Verify validates the image: format version, non-empty schedule, and a
// checksum that reproduces from the content. Any failure is ErrCorrupt.
func (im *Image) Verify() error {
	if im.Version != ImageVersion {
		return fmt.Errorf("aot: image version %d, want %d: %w", im.Version, ImageVersion, ErrCorrupt)
	}
	if len(im.Blocks) == 0 {
		return fmt.Errorf("aot: image has no blocks: %w", ErrCorrupt)
	}
	if im.Checksum == "" {
		return fmt.Errorf("aot: image is unsealed (no checksum): %w", ErrCorrupt)
	}
	if got := im.contentSum(); got != im.Checksum {
		return fmt.Errorf("aot: image checksum %s, content is %s: %w", im.Checksum, got, ErrCorrupt)
	}
	return nil
}

// Encode seals the image and writes it as JSON.
func (im *Image) Encode(w io.Writer) error {
	im.Seal()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(im)
}

// Decode reads and validates a serialized image. Truncation, bit flips,
// version skew, and unsealed bodies all surface as ErrCorrupt — the
// caller degrades to cold translation, never adopts a damaged schedule.
func Decode(r io.Reader) (*Image, error) {
	var im Image
	if err := json.NewDecoder(r).Decode(&im); err != nil {
		return nil, fmt.Errorf("aot: decode image: %v: %w", err, ErrCorrupt)
	}
	if err := im.Verify(); err != nil {
		return nil, err
	}
	return &im, nil
}
