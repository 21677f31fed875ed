package aot

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mdabt/internal/core"
	"mdabt/internal/guest"
	"mdabt/internal/mem"
	"mdabt/internal/workload"
)

func buildTestImage(t *testing.T) *Image {
	t.Helper()
	progs, err := workload.FaultPrograms()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	progs[0].Load(m)
	return BuildFromMemory(m, progs[0].Entry())
}

func TestImageRoundTrip(t *testing.T) {
	im := buildTestImage(t)
	if im.Version != ImageVersion || im.Entry != guest.CodeBase {
		t.Fatalf("image header %+v", im)
	}
	if len(im.Blocks) == 0 || im.Insts == 0 {
		t.Fatalf("empty image %+v", im)
	}
	if im.Escapes {
		t.Error("closed workload program escaped static recovery")
	}

	var buf bytes.Buffer
	if err := im.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != im.Entry || got.Insts != im.Insts || len(got.Blocks) != len(im.Blocks) {
		t.Errorf("round trip changed the image: %+v -> %+v", im, got)
	}
	for i, pc := range im.Blocks {
		if got.Blocks[i] != pc {
			t.Fatalf("block %d: %#x -> %#x", i, pc, got.Blocks[i])
		}
	}
}

func TestDecodeRejectsBadImages(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"version":99,"blocks":[1]}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := Decode(strings.NewReader(`{"version":1}`)); err == nil {
		t.Error("empty block schedule accepted")
	}
	if _, err := Decode(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestApplyConfiguresAdoption(t *testing.T) {
	im := buildTestImage(t)
	opt := core.DefaultOptions(core.ExceptionHandling)
	im.Apply(&opt)
	opt.Normalize()
	if !opt.AOT || !opt.StaticAlign {
		t.Errorf("Apply left opt %+v", opt)
	}
	if len(opt.AOTBlocks) != len(im.Blocks) {
		t.Errorf("schedule not adopted: %d blocks, want %d", len(opt.AOTBlocks), len(im.Blocks))
	}
	if err := opt.Validate(); err != nil {
		t.Errorf("applied options do not validate: %v", err)
	}
}

// TestDecodeRejectsCorruptImages: a damaged image body must surface as
// ErrCorrupt — truncation, a single flipped bit, version skew, and an
// unsealed (checksum-less) body all decode to a degrade signal, never to
// an adoptable schedule. Before the content checksum only the version int
// guarded the body, so a bit-flipped block list decoded "successfully".
func TestDecodeRejectsCorruptImages(t *testing.T) {
	im := buildTestImage(t)
	var buf bytes.Buffer
	if err := im.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name string
		body []byte
	}{
		{"truncated", good[:len(good)/2]},
		{"bit-flip", flipByte(good, bytes.Index(good, []byte(`"blocks"`))+12)},
		{"version-skew", bytes.Replace(good, []byte(`"version": 1`), []byte(`"version": 2`), 1)},
		{"unsealed", bytes.Replace(good, []byte(`"checksum"`), []byte(`"checksun"`), 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if bytes.Equal(tc.body, good) {
				t.Fatal("corruption did not modify the body")
			}
			_, err := Decode(bytes.NewReader(tc.body))
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode(%s): got %v, want ErrCorrupt", tc.name, err)
			}
		})
	}

	// The untouched body still decodes and verifies.
	got, err := Decode(bytes.NewReader(good))
	if err != nil {
		t.Fatalf("clean body failed: %v", err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("Verify after decode: %v", err)
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x01
	return out
}

// TestVerifyCatchesInMemoryTampering: Verify re-derives the checksum from
// content, so mutating a sealed image invalidates it until resealed.
func TestVerifyCatchesInMemoryTampering(t *testing.T) {
	im := buildTestImage(t)
	if err := im.Verify(); err != nil {
		t.Fatalf("fresh image: %v", err)
	}
	im.Blocks[0]++
	if err := im.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered image: got %v, want ErrCorrupt", err)
	}
	im.Seal()
	if err := im.Verify(); err != nil {
		t.Fatalf("resealed image: %v", err)
	}
}
