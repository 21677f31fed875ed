// Package store is the crash-safe persistent artifact store: a
// content-addressed on-disk cache of translation artifacts shared across
// engine sessions and processes (DESIGN.md §15). It holds ahead-of-time
// block schedules (internal/aot images), and aggregated per-site trap
// histories that warm-start profile-driven mechanisms (SPEH,
// static-profile) with the fleet's accumulated knowledge instead of
// re-eating ~1000-cycle traps per site per session — the FX!32
// profile-database idea (paper §1.2) turned into a production service.
//
// Robustness is the headline property: a persistent cache is only
// production-grade if no on-disk state can ever produce a wrong guest
// result. The store's contract is *at worst a cold translation*:
//
//   - Every artifact is wrapped in an envelope carrying the store format
//     version, the full artifact key (program hash, options fingerprint,
//     kind), and a SHA-256 checksum of the payload bytes.
//   - Writes go through temp file + fsync + atomic rename under a
//     single-writer lock (flock on the lock file plus an in-process
//     mutex), so readers never observe a half-written artifact and
//     concurrent writers serialize instead of interleaving.
//   - Reads validate everything before adoption: a truncated or
//     bit-flipped file, a version-skewed envelope, or a foreign key
//     (options-fingerprint mismatch, name collision) moves the entry to
//     the quarantine directory and reports ErrCorrupt; the caller falls
//     back to cold translation through the engine's existing
//     blacklist/degrade ladder.
//   - Leftover temp files from a writer killed mid-write are swept at
//     Open, and a torn file that made it to a final path (non-atomic
//     filesystem, power cut) is caught by the checksum on first read.
//
// Corruption scenarios are exercised deterministically through the
// store.* points in internal/faultinject (torn write, bit flip, read
// error, stale fingerprint, held lock); `make store-chaos` runs the
// corruption/crash-recovery suite under the race detector.
//
// The package deliberately depends only on internal/faultinject, so the
// engine packages (internal/core tests included) can import it without a
// cycle; typed payloads and adapters live with the consumers.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mdabt/internal/faultinject"
)

// FormatVersion is the on-disk envelope format version. A bump invalidates
// every existing artifact: version-skewed entries quarantine on read.
const FormatVersion = 1

// envelopeMagic brands store files so stray JSON is never mistaken for an
// artifact.
const envelopeMagic = "mdabt-store"

// Kind names an artifact type. Each kind lives in its own subdirectory of
// objects/.
type Kind string

// The artifact kinds the DBT persists.
const (
	// KindAOTImage is a serialized internal/aot image: the whole-binary
	// block-entry schedule recovered offline (guest-level facts only, so
	// one image serves every engine configuration).
	KindAOTImage Kind = "aot-image"
	// KindTrapProfile is an aggregated per-site trap history: which guest
	// instruction addresses performed misaligned accesses, with counts,
	// merged across sessions. It warm-starts SPEH/static-profile site
	// policies and is the training substrate for predictive mechanisms.
	KindTrapProfile Kind = "trap-profile"
)

// Key addresses one artifact: the guest program's content hash, the
// engine-options fingerprint it was produced under (core.Options.
// Fingerprint), and the artifact kind. The format version is implicit —
// it is part of the envelope and checked on every read.
type Key struct {
	Program     string
	Fingerprint string
	Kind        Kind
}

// Sentinel errors. Load reports exactly one of them (possibly wrapped with
// detail); any other error is an environmental I/O failure. All of them
// mean the same thing to a caller: run cold.
var (
	// ErrNotFound reports a clean miss: no artifact under the key.
	ErrNotFound = errors.New("store: artifact not found")
	// ErrCorrupt reports a validation failure — truncation, bit flip,
	// version skew, or a foreign/stale key. The entry has been quarantined.
	ErrCorrupt = errors.New("store: artifact corrupt")
	// ErrBusy reports that the single-writer lock could not be taken (a
	// concurrent writer holds it); the save was skipped, nothing written.
	ErrBusy = errors.New("store: writer lock held")
)

// Stats is a point-in-time snapshot of store activity, the store half of
// the observability the serving layer exposes (`GET /statsz`, `dbtrun
// -store` report line). Its JSON keys are the wire names /statsz serves.
type Stats struct {
	Saves         uint64 `json:"saves"`          // artifacts written successfully
	SaveErrors    uint64 `json:"save_errors"`    // writes abandoned on an I/O error
	Loads         uint64 `json:"loads"`          // read attempts
	Hits          uint64 `json:"hits"`           // reads that validated and were adopted
	Misses        uint64 `json:"misses"`         // clean misses (no artifact under the key)
	Corrupt       uint64 `json:"corrupt"`        // reads that failed validation (any cause)
	VersionSkew   uint64 `json:"version_skew"`   // ...of which: envelope format version mismatch
	Foreign       uint64 `json:"foreign"`        // ...of which: key mismatch (stale fingerprint, collision)
	Quarantined   uint64 `json:"quarantined"`    // corrupt entries moved to quarantine/
	ReadErrors    uint64 `json:"read_errors"`    // reads abandoned on an I/O error (no quarantine)
	LockConflicts uint64 `json:"lock_conflicts"` // saves skipped because the writer lock was held
	Merges        uint64 `json:"merges"`         // read-modify-write profile merges performed
}

// Store is a crash-safe artifact store rooted at one directory. It is safe
// for concurrent use by multiple goroutines, and for concurrent use by
// multiple processes through the on-disk writer lock + atomic-rename
// protocol.
type Store struct {
	root string

	// mu guards the fault plan and the quarantine sequence. wmu
	// serializes in-process writers; the flock on lockPath() serializes
	// writers across processes. Both are held for the whole of a
	// read-modify-write merge, not just the final write.
	mu   sync.Mutex
	wmu  sync.Mutex
	plan *faultinject.Plan
	qseq uint64 // quarantine file sequence (under mu)

	saves, saveErrors, loads, hits, misses atomic.Uint64
	corrupt, versionSkew, foreign          atomic.Uint64
	quarantined, readErrors, lockConflicts atomic.Uint64
	merges                                 atomic.Uint64
}

// Open creates (if needed) and opens the store rooted at dir. Leftover
// temp files from writers killed mid-write are swept — with the atomic
// rename protocol they were never visible under a final name, so removing
// them loses nothing.
func Open(dir string) (*Store, error) {
	s := &Store{root: dir}
	for _, d := range []string{dir, s.objectsDir(), s.quarantineDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}
	if err := s.sweepTemp(); err != nil {
		return nil, err
	}
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// SetFaultPlan arms the store's deterministic corruption points
// (faultinject.StoreTornWrite and friends). The plan follows the usual
// single-owner contract; nil disables injection.
func (s *Store) SetFaultPlan(p *faultinject.Plan) {
	s.mu.Lock()
	s.plan = p
	s.mu.Unlock()
}

// should consults the fault plan under the store mutex (plans are not
// concurrency-safe and the store is).
func (s *Store) should(pt faultinject.Point) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan.Should(pt)
}

func (s *Store) objectsDir() string    { return filepath.Join(s.root, "objects") }
func (s *Store) quarantineDir() string { return filepath.Join(s.root, "quarantine") }
func (s *Store) lockPath() string      { return filepath.Join(s.root, "store.lock") }

// tempPrefix marks in-flight writes; Open sweeps any leftovers.
const tempPrefix = ".tmp-"

// sweepTemp removes temp debris left by writers killed mid-write.
func (s *Store) sweepTemp() error {
	return filepath.WalkDir(s.objectsDir(), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), tempPrefix) {
			if rerr := os.Remove(path); rerr != nil {
				return fmt.Errorf("store: sweep %s: %w", path, rerr)
			}
		}
		return nil
	})
}

// sanitize maps an arbitrary key component onto a safe file-name token.
// The envelope carries the authoritative key, so a (theoretical) collision
// after sanitizing surfaces as a foreign-key validation failure, never as
// a wrong artifact.
func sanitize(part string) string {
	if part == "" {
		return "_"
	}
	var b strings.Builder
	for _, r := range part {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	name := b.String()
	if len(name) > 128 {
		name = name[:128]
	}
	return name
}

// path returns the artifact's final on-disk path.
func (s *Store) path(k Key) string {
	return filepath.Join(s.objectsDir(), sanitize(string(k.Kind)),
		sanitize(k.Program)+"-"+sanitize(k.Fingerprint)+".json")
}

// envelope is the on-disk artifact wrapper. Everything a reader needs to
// validate the artifact travels with it.
type envelope struct {
	Magic       string          `json:"magic"`
	Version     int             `json:"version"`
	Kind        Kind            `json:"kind"`
	Program     string          `json:"program"`
	Fingerprint string          `json:"fingerprint"`
	Checksum    string          `json:"checksum"` // SHA-256 of Payload bytes
	Payload     json.RawMessage `json:"payload"`
}

// Checksum returns the hex SHA-256 of data (exported for tests and the
// aot image checksum, which uses the same construction).
func Checksum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// HashProgram derives a content hash for a guest program from its image
// parts (code, shared library, data, entry encoding — whatever identifies
// the program bytes). It is the Key.Program constructor.
func HashProgram(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		// Length-prefix each part so ("ab","c") and ("a","bc") differ.
		var n [8]byte
		for i, v := 0, uint64(len(p)); i < 8; i++ {
			n[i] = byte(v >> (8 * i))
		}
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lockWriter takes the single-writer lock (in-process mutex plus
// cross-process flock) or reports ErrBusy. The returned release drops
// both.
func (s *Store) lockWriter() (func(), error) {
	if s.should(faultinject.StoreLockHeld) {
		s.lockConflicts.Add(1)
		return nil, ErrBusy
	}
	s.wmu.Lock()
	release, err := s.flockExcl()
	if err != nil {
		s.wmu.Unlock()
		s.lockConflicts.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrBusy, err)
	}
	return func() {
		release()
		s.wmu.Unlock()
	}, nil
}

// Save writes payload (JSON-marshalable) under k using the crash-safe
// protocol: marshal, envelope + checksum, temp file, fsync, atomic rename,
// directory fsync — all under the single-writer lock. On ErrBusy nothing
// was written and the caller simply stays cold; any other error means the
// filesystem refused and the artifact is (still) absent or intact.
func (s *Store) Save(k Key, payload any) error {
	release, err := s.lockWriter()
	if err != nil {
		return err
	}
	defer release()
	return s.saveLocked(k, payload)
}

// saveLocked is Save's body; the caller holds the writer lock.
func (s *Store) saveLocked(k Key, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		s.saveErrors.Add(1)
		return fmt.Errorf("store: save %s: marshal payload: %w", k.Kind, err)
	}
	env := envelope{
		Magic:       envelopeMagic,
		Version:     FormatVersion,
		Kind:        k.Kind,
		Program:     k.Program,
		Fingerprint: k.Fingerprint,
		Checksum:    Checksum(raw),
		Payload:     raw,
	}
	if s.should(faultinject.StoreStaleFingerprint) {
		// A version-skewed writer stamped someone else's fingerprint: the
		// checksum still matches, only key validation can catch it.
		env.Fingerprint = "stale-" + env.Fingerprint
	}
	// Compact marshal: an indenting encoder would reformat the embedded
	// RawMessage and break the payload checksum on read-back.
	data, err := json.Marshal(&env)
	if err != nil {
		s.saveErrors.Add(1)
		return fmt.Errorf("store: save %s: marshal envelope: %w", k.Kind, err)
	}
	if s.should(faultinject.StoreBitFlip) {
		// Bit rot after the checksum was computed; deterministic position.
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x01
	}
	if s.should(faultinject.StoreTornWrite) {
		// The write tears: only a prefix reaches the final path.
		data = data[:len(data)/2]
	}
	if err := s.writeAtomic(s.path(k), data); err != nil {
		s.saveErrors.Add(1)
		return err
	}
	s.saves.Add(1)
	return nil
}

// writeAtomic lands data at path via temp + fsync + rename + dir fsync.
func (s *Store) writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	tmp, err := os.CreateTemp(dir, tempPrefix+filepath.Base(path)+"-")
	if err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: fsync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("store: rename %s: %w", path, err)
	}
	syncDir(dir) // best effort: rename durability
	return nil
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Failures are ignored — some filesystems refuse directory fsync, and the
// fallback is merely "the artifact may be missing after a crash", which
// reads as a clean cold miss.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Load reads and validates the artifact under k into out (a pointer,
// json-unmarshaled). Every validation failure — malformed envelope, wrong
// magic, version skew, foreign key, checksum mismatch, undecodable
// payload — quarantines the file and returns ErrCorrupt (wrapped with the
// cause); a missing artifact returns ErrNotFound; an I/O failure returns
// the underlying error with nothing quarantined. In every non-nil case
// the correct caller behaviour is identical: translate cold.
func (s *Store) Load(k Key, out any) error {
	s.loads.Add(1)
	if s.should(faultinject.StoreReadError) {
		s.readErrors.Add(1)
		return fmt.Errorf("store: load %s: injected read error", k.Kind)
	}
	path := s.path(k)
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		s.misses.Add(1)
		return ErrNotFound
	}
	if err != nil {
		s.readErrors.Add(1)
		return fmt.Errorf("store: load %s: %w", k.Kind, err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return s.corruptf(path, k, "malformed envelope (torn write?): %v", err)
	}
	if env.Magic != envelopeMagic {
		return s.corruptf(path, k, "bad magic %q", env.Magic)
	}
	if env.Version != FormatVersion {
		s.versionSkew.Add(1)
		return s.corruptf(path, k, "format version %d, want %d", env.Version, FormatVersion)
	}
	if env.Kind != k.Kind || env.Program != k.Program || env.Fingerprint != k.Fingerprint {
		s.foreign.Add(1)
		return s.corruptf(path, k, "foreign artifact: keyed (%s,%s,%s), asked (%s,%s,%s)",
			env.Kind, env.Program, env.Fingerprint, k.Kind, k.Program, k.Fingerprint)
	}
	if got := Checksum(env.Payload); got != env.Checksum {
		return s.corruptf(path, k, "payload checksum %s, envelope says %s (bit rot?)", got, env.Checksum)
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return s.corruptf(path, k, "payload decode: %v", err)
	}
	s.hits.Add(1)
	return nil
}

// corruptf quarantines the failed artifact and builds the ErrCorrupt.
func (s *Store) corruptf(path string, k Key, format string, args ...any) error {
	s.corrupt.Add(1)
	s.quarantine(path)
	return fmt.Errorf("store: %s %s: %s: %w", k.Kind, filepath.Base(path),
		fmt.Sprintf(format, args...), ErrCorrupt)
}

// quarantine moves a corrupt artifact out of the object tree so the next
// read is a clean miss and the evidence survives for forensics. If the
// move itself fails the file is removed — a corrupt entry must never be
// served twice.
func (s *Store) quarantine(path string) {
	s.mu.Lock()
	s.qseq++
	dst := filepath.Join(s.quarantineDir(),
		fmt.Sprintf("%04d-%s", s.qseq, filepath.Base(path)))
	s.mu.Unlock()
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
	s.quarantined.Add(1)
}

// Quarantined lists the quarantine directory (newest last).
func (s *Store) Quarantined() ([]string, error) {
	ents, err := os.ReadDir(s.quarantineDir())
	if err != nil {
		return nil, fmt.Errorf("store: quarantine list: %w", err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out, nil
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	return Stats{
		Saves:         s.saves.Load(),
		SaveErrors:    s.saveErrors.Load(),
		Loads:         s.loads.Load(),
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Corrupt:       s.corrupt.Load(),
		VersionSkew:   s.versionSkew.Load(),
		Foreign:       s.foreign.Load(),
		Quarantined:   s.quarantined.Load(),
		ReadErrors:    s.readErrors.Load(),
		LockConflicts: s.lockConflicts.Load(),
		Merges:        s.merges.Load(),
	}
}
