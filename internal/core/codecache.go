package core

import (
	"errors"
	"fmt"

	"mdabt/internal/align"
	"mdabt/internal/faultinject"
	"mdabt/internal/guest"
	"mdabt/internal/host"
)

// CodeCacheBase is the host virtual address of the translation cache. It
// sits above the 32-bit guest address space.
const CodeCacheBase = 0x0000_0000_8000_0000

// ErrCodeCacheFull is returned when an allocation does not fit; the engine
// responds with a full flush.
var errCodeCacheFull = errors.New("core: code cache full")

// codeCache is a bump allocator over the translation cache region. Block
// bodies are allocated from the bottom up and exception-handler MDA stubs
// from the top down: stubs land far from the code that branches to them,
// which is exactly the instruction-locality loss that the paper's code
// rearrangement optimization (§IV-A, Fig. 6) recovers.
type codeCache struct {
	base, size uint64
	blockNext  uint64 // next free address for block bodies (grows up)
	stubNext   uint64 // next free address past the stub zone (grows down)
	// faults, when non-nil, injects deterministic allocation failures so
	// the flush and stub-exhaustion recovery ladders are testable.
	faults *faultinject.Plan
}

func newCodeCache(size uint64, faults *faultinject.Plan) *codeCache {
	cc := &codeCache{base: CodeCacheBase, size: size, faults: faults}
	cc.reset()
	return cc
}

// reset reclaims both zones — block bodies and exception-handler stubs —
// restoring the cache to empty (full flush).
func (cc *codeCache) reset() {
	cc.blockNext = cc.base
	cc.stubNext = cc.base + cc.size
}

// reconfigure re-arms the cache for a new run: fresh size and fault plan,
// both zones empty. The cache is a bump allocator over simulated memory,
// so the "arena" — the address range — is reused as-is.
func (cc *codeCache) reconfigure(size uint64, faults *faultinject.Plan) {
	cc.size = size
	cc.faults = faults
	cc.reset()
}

// allocBlock reserves nbytes for a translated block body.
func (cc *codeCache) allocBlock(nbytes uint64) (uint64, error) {
	if cc.faults.Should(faultinject.AllocBlock) {
		return 0, errCodeCacheFull
	}
	nbytes = (nbytes + 3) &^ 3
	if cc.blockNext+nbytes > cc.stubNext {
		return 0, errCodeCacheFull
	}
	addr := cc.blockNext
	cc.blockNext += nbytes
	return addr, nil
}

// allocStub reserves nbytes in the stub zone (top of the cache).
func (cc *codeCache) allocStub(nbytes uint64) (uint64, error) {
	if cc.faults.Should(faultinject.AllocStub) {
		return 0, errCodeCacheFull
	}
	nbytes = (nbytes + 3) &^ 3
	if cc.stubNext-nbytes < cc.blockNext {
		return 0, errCodeCacheFull
	}
	cc.stubNext -= nbytes
	return cc.stubNext, nil
}

// stubZoneBytes reports the bytes currently allocated to MDA stubs.
func (cc *codeCache) stubZoneBytes() uint64 {
	return cc.base + cc.size - cc.stubNext
}

// used reports the bytes currently allocated (both zones).
func (cc *codeCache) used() uint64 {
	return (cc.blockNext - cc.base) + (cc.base + cc.size - cc.stubNext)
}

// exit is one control-flow exit of a translated block: a patchable BRKBT
// stub that either names a static guest target or dispatches indirectly.
type exit struct {
	id          uint32
	from        *block
	targetGuest uint32
	hostPC      uint64 // address of the BRKBT (or patched BR) instruction
	linked      bool
}

// memSite is the translation-time record of one guest memory access
// inside a block: the site the exception handler resolves a trapping host
// word to (hostWord.site) and whose patch attempts it counts.
type memSite struct {
	instIdx int    // index into block.insts
	sub     int    // sub-access within the instruction (string copies)
	guestPC uint32 // address of the guest instruction
	// patchFails counts failed patch attempts (stub zone full, assembler
	// error, branch out of range); past patchRetryLimit the trap-storm
	// limiter demotes the site (see Engine.patchFailed).
	patchFails int
}

// hostWord is a unit's record of one emitted host word: which guest
// instruction's emission holds it, which memory site it is the trap-prone
// access of, and the translator's alignment claims about it. A unit keeps
// one per word of its host span (block.words), so a host PC inside the
// unit indexes its record directly: the exception handler finds the site
// to patch, fault delivery the guest instruction to rewind to, and the
// verifier the claims to check the word against.
type hostWord struct {
	// inst indexes block.insts: the last instruction whose emission
	// started at or before the word (an instruction that emits nothing
	// shares its successor's start, and the later one wins). noInst marks
	// words emitted before the first instruction (a block-granularity
	// multi-version guard at index 0).
	inst int16
	// site indexes block.sites when the word is a plain, trap-prone access
	// registered with the misalignment handler; noSite otherwise.
	site int16
	// tags holds align.TagProven, align.TagGuarded and align.TagPatched.
	tags align.WordTag
}

// Absent hostWord indices.
const (
	noInst = -1
	noSite = -1
)

// memKind describes which MDA sequence a site needs.
type memKind uint8

const (
	kindLD4 memKind = iota
	kindLD2Z
	kindLD2S
	kindST4
	kindST2
	kindFLD8
	kindFST8
)

// unitInst is the translator's record of one guest instruction of a
// translation unit: the decoded instruction and where it came from, and
// every per-instruction decision the emitter, fault delivery, the verifier
// and the dumps read back.
type unitInst struct {
	inst guest.Inst
	pc   uint32 // guest address (trace instructions are not contiguous)
	len  int    // encoded length
	// knownMDA marks an instruction known to do MDAs at translation time:
	// trap-discovered sites the engine retains across retranslation (§IV-C)
	// and flushes, so the new code inlines their sequences.
	knownMDA bool
	// pol is the memory site's translation policy; polNone for an
	// instruction that is not a memory site.
	pol sitePolicy
	// verdict is the site's whole-instruction static alignment verdict
	// (meaningful only under Options.StaticAlign).
	verdict align.Verdict
	// counter is the adaptive site's streak counter address (polAdaptive).
	counter uint64
	// edge says how a trace-internal terminator is emitted.
	edge traceEdge
}

// block is one translated unit: a basic block, or (with superblocks
// enabled) a trace of basic blocks laid out fall-through along the hot
// path.
type block struct {
	guestPC   uint32
	guestLen  uint32
	insts     []unitInst
	nblocks   int // basic blocks in this unit (1 unless a trace)
	hostEntry uint64
	hostSize  uint64
	exits     []*exit
	sites     []*memSite
	// words holds one record per host word of the unit's span (see
	// hostWord).
	words []hostWord
	// incoming lists exits of other blocks linked directly to this block,
	// so invalidation can unlink them.
	incoming []*exit
	// trapCount counts misalignment exceptions in this translation
	// generation (retranslation trigger, Fig. 7).
	trapCount int
	invalid   bool
	// twoVer marks units containing multi-version sites (statistics).
	twoVer bool
	// aot marks translations produced by the offline pre-translation pass
	// (Options.AOT); dispatches into them count as Stats.AOTHits.
	aot bool
}

// word returns the record of the host word at pc, which must lie inside
// the unit's span.
func (b *block) word(pc uint64) *hostWord {
	return &b.words[(pc-b.hostEntry)/host.InstBytes]
}

func (b *block) String() string {
	return fmt.Sprintf("block@%#x(%d insts, host %#x)", b.guestPC, len(b.insts), b.hostEntry)
}
