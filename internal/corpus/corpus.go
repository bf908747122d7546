// Package corpus is the disk-backed trace store: record a benchmark's
// branch stream once, serve it to every later evaluation from disk. This is
// the paper-era tape archive made persistent — the VM only executes when the
// corpus has no entry for exactly the (program, input-suite) pair being
// measured, so a warm corpus turns a full-suite evaluation into pure replay.
//
// An entry is keyed by a content hash over the compiled program image and
// the complete input suite (plus the store's format version), so any change
// to a benchmark's sources, the compiler, the optimizer, or its inputs
// silently invalidates stale entries: the key simply no longer matches and
// the pair is re-recorded. Each entry holds two files,
//
//	<name>-<hash>.bct2  — the branch trace in the BCT2 encoding
//	<name>-<hash>.prof  — the merged profile (profile.Save JSON)
//
// written atomically (temp file + rename), so concurrent evaluations racing
// on a cold corpus at worst both record and one rename wins.
package corpus

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"branchcost/internal/faultfs"
	"branchcost/internal/isa"
	"branchcost/internal/profile"
	"branchcost/internal/telemetry"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
)

// EnvVar names the environment variable holding the default corpus
// directory.
const EnvVar = "BRANCHCOST_CORPUS"

// formatVersion is folded into every key; bump it when the entry layout or
// the trace encoding changes incompatibly, and old entries become misses.
const formatVersion = 2 // 2 = BCT2 traces

const (
	traceExt = ".bct2"
	profExt  = ".prof"
)

// QuarantineDirName is the store subdirectory damaged entries are moved
// into: renamed aside rather than deleted, so a corruption incident stays
// inspectable after the entry has been healed by re-recording.
const QuarantineDirName = ".quarantine"

// The three failure classes a corpus operation can report, all wrapped into
// the returned error chain for errors.Is classification:
//
//   - ErrMiss: the entry does not exist. Callers record it.
//   - ErrCorrupt: the entry exists but will not decode (CRC failure,
//     truncation, torn rename). Callers quarantine and re-record it.
//   - ErrIO: the entry may be intact but this access failed (injected or
//     environmental I/O error). Callers retry — re-recording would waste a
//     good entry, and overwriting it on a transient glitch is the failure
//     mode the quarantine path exists to avoid.
var (
	ErrMiss    = errors.New("entry absent")
	ErrCorrupt = errors.New("entry corrupt")
	ErrIO      = errors.New("transient I/O failure")
)

// Store is a corpus rooted at one directory. The zero value is unusable;
// construct with Open (or OpenFS to inject a filesystem).
//
// A store is unbounded by default; SetBudget imposes a byte budget enforced
// by access-ordered eviction (see evict.go). Pinned (in-flight) entries and
// quarantined files are never evicted.
type Store struct {
	dir  string
	fsys faultfs.FS

	mu     sync.Mutex
	budget int64                // byte budget; 0 = unbounded
	pins   map[string]int       // entry base name -> in-flight refcount
	atimes map[string]time.Time // entry base name -> last access
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, nil)
}

// OpenFS is Open over an injectable filesystem (nil means the real one) —
// the seam chaos tests use to schedule I/O faults under the store.
func OpenFS(dir string, fsys faultfs.FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("corpus: empty directory")
	}
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return &Store{dir: dir, fsys: fsys,
		pins: map[string]int{}, atimes: map[string]time.Time{}}, nil
}

// FromEnv opens the store named by $BRANCHCOST_CORPUS. It returns (nil,
// nil) when the variable is unset or empty — corpus use is strictly opt-in.
func FromEnv() (*Store, error) {
	dir := os.Getenv(EnvVar)
	if dir == "" {
		return nil, nil
	}
	return Open(dir)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Key identifies one corpus entry: a human-readable name plus the content
// hash binding it to an exact (program, input suite, format) triple.
type Key struct {
	Name string
	Hash string
}

// KeyFor computes the entry key for evaluating prog over the input suite.
func KeyFor(name string, p *isa.Program, inputs [][]byte) Key {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(formatVersion)
	word(uint64(len(name)))
	io.WriteString(h, name)
	fingerprintProgram(h, word, p)
	word(uint64(len(inputs)))
	for _, in := range inputs {
		word(uint64(len(in)))
		h.Write(in)
	}
	return Key{Name: name, Hash: hex.EncodeToString(h.Sum(nil))[:16]}
}

// fingerprintProgram hashes every field of the image that affects the branch
// stream (which is all of them: any instruction change can shift control
// flow).
func fingerprintProgram(h io.Writer, word func(uint64), p *isa.Program) {
	word(uint64(p.Entry))
	word(uint64(p.Words))
	word(uint64(len(p.Code)))
	for i := range p.Code {
		in := &p.Code[i]
		var fixed [24]byte
		fixed[0] = byte(in.Op)
		fixed[1], fixed[2], fixed[3] = in.Rd, in.Rs, in.Rt
		binary.LittleEndian.PutUint64(fixed[4:], uint64(in.Imm))
		binary.LittleEndian.PutUint32(fixed[12:], uint32(in.Target))
		binary.LittleEndian.PutUint32(fixed[16:], uint32(in.Fall))
		binary.LittleEndian.PutUint32(fixed[20:], uint32(in.ID))
		h.Write(fixed[:])
		flags := byte(0)
		if in.Likely {
			flags |= 1
		}
		if in.IsSlot {
			flags |= 2
		}
		h.Write([]byte{flags, in.Slots})
		word(uint64(len(in.Table)))
		for _, t := range in.Table {
			word(uint64(uint32(t)))
		}
	}
	word(uint64(len(p.Data)))
	for _, d := range p.Data {
		word(uint64(d))
	}
	word(uint64(len(p.Loc)))
	for _, l := range p.Loc {
		word(uint64(uint32(l)))
	}
}

// SanitizeName maps a benchmark name to the portable form used in entry
// filenames — the name Keys() reports back. Tools correlating corpus entries
// with the registry (btrace -ls) match through this.
func SanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, name)
}

func sanitize(name string) string { return SanitizeName(name) }

func (s *Store) base(k Key) string {
	return filepath.Join(s.dir, sanitize(k.Name)+"-"+k.Hash)
}

// TracePath returns the entry's trace file path.
func (s *Store) TracePath(k Key) string { return s.base(k) + traceExt }

// ProfilePath returns the entry's profile file path.
func (s *Store) ProfilePath(k Key) string { return s.base(k) + profExt }

// Has reports whether both files of the entry exist.
func (s *Store) Has(k Key) bool {
	for _, p := range []string{s.TracePath(k), s.ProfilePath(k)} {
		if _, err := s.fsys.Stat(p); err != nil {
			return false
		}
	}
	return true
}

// Load materializes the entry's trace and profile. A missing entry returns
// an error satisfying errors.Is(err, fs.ErrNotExist); a present but
// undecodable one returns the located decode error — callers treat both as
// "re-record".
func (s *Store) Load(k Key) (*tracefile.Trace, *profile.Profile, error) {
	return s.LoadContext(context.Background(), k)
}

// LoadContext is Load with telemetry: when ctx carries a Set, the outcome
// is counted ("corpus.hits", "corpus.misses", "corpus.invalidations" for a
// corrupt entry, or "corpus.io_errors" for a transient failure), load
// latency accumulates in "corpus.load_ns", and hits/failures are logged.
func (s *Store) LoadContext(ctx context.Context, k Key) (*tracefile.Trace, *profile.Profile, error) {
	set := telemetry.FromContext(ctx)
	start := time.Now()
	release := s.Pin(k)
	defer release()
	t, prof, err := s.load(ctx, k)
	switch {
	case err == nil:
		s.touch(k)
		set.Counter("corpus.hits").Inc()
		set.Counter("corpus.load_ns").Add(time.Since(start).Nanoseconds())
		set.Log().Debug("corpus hit", "entry", k.Name, "hash", k.Hash,
			"events", t.Len(), "elapsed", time.Since(start))
	case IsMiss(err):
		set.Counter("corpus.misses").Inc()
	case IsTransient(err):
		// The entry may be fine; only this access failed. Counted apart
		// from invalidations so a flaky disk doesn't read as corruption.
		set.Counter("corpus.io_errors").Inc()
		set.Log().Warn("corpus load I/O failure, entry retained",
			"entry", k.Name, "hash", k.Hash, "err", err)
	default:
		// A present entry that will not decode: the caller quarantines and
		// re-records it, and unlike a clean miss this deserves a warning —
		// it means a damaged file (truncation, corruption) sat in the store.
		set.Counter("corpus.invalidations").Inc()
		set.Log().Warn("corpus entry invalid, will re-record",
			"entry", k.Name, "hash", k.Hash, "err", err)
	}
	return t, prof, err
}

// classifyOpen maps an open/stat failure onto the sentinel taxonomy: a
// missing file is a miss, anything else (permissions, injected EIO) is
// transient — the entry itself is not known to be damaged.
func classifyOpen(err error) error {
	if errors.Is(err, fs.ErrNotExist) {
		return ErrMiss
	}
	return ErrIO
}

// classifyDecode maps a decode failure: an injected I/O fault mid-read is
// transient (the bytes on disk may be fine); every other decode failure
// means the bytes themselves are wrong.
func classifyDecode(err error) error {
	if errors.Is(err, faultfs.ErrInjected) {
		return ErrIO
	}
	return ErrCorrupt
}

func (s *Store) load(ctx context.Context, k Key) (*tracefile.Trace, *profile.Profile, error) {
	tf, err := s.fsys.Open(s.TracePath(k))
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: %s: %w: %w", k.Name, classifyOpen(err), err)
	}
	defer tf.Close()
	t, err := tracefile.ReadTraceContext(ctx, bufio.NewReaderSize(tf, 1<<20))
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: %s: trace: %w: %w", k.Name, classifyDecode(err), err)
	}
	pf, err := s.fsys.Open(s.ProfilePath(k))
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: %s: %w: %w", k.Name, classifyOpen(err), err)
	}
	defer pf.Close()
	prof, err := profile.Load(pf)
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: %s: profile: %w: %w", k.Name, classifyDecode(err), err)
	}
	return t, prof, nil
}

// Quarantine moves a damaged entry aside. See QuarantineContext.
func (s *Store) Quarantine(k Key) error {
	return s.QuarantineContext(context.Background(), k)
}

// QuarantineContext renames both files of the entry into the store's
// .quarantine/ subdirectory — preserving the evidence for inspection while
// freeing the live name for the healed re-recording — and counts the event
// ("corpus.quarantines"). A file already gone is not an error: quarantining
// is idempotent and tolerates half-written entries.
func (s *Store) QuarantineContext(ctx context.Context, k Key) error {
	set := telemetry.FromContext(ctx)
	qdir := filepath.Join(s.dir, QuarantineDirName)
	if err := s.fsys.MkdirAll(qdir, 0o777); err != nil {
		return fmt.Errorf("corpus: quarantine %s: %w", k.Name, err)
	}
	moved := 0
	for _, p := range []string{s.TracePath(k), s.ProfilePath(k)} {
		err := s.fsys.Rename(p, filepath.Join(qdir, filepath.Base(p)))
		switch {
		case err == nil:
			moved++
		case errors.Is(err, fs.ErrNotExist):
		default:
			return fmt.Errorf("corpus: quarantine %s: %w", k.Name, err)
		}
	}
	if moved > 0 {
		// The renames crossed from the store directory into .quarantine/:
		// both directories must reach disk, or a crash could resurrect the
		// damaged entry under its live name — the exact window the
		// fsync-before-rename fix closed for Put.
		for _, d := range []string{qdir, s.dir} {
			if err := s.fsys.SyncDir(d); err != nil {
				return fmt.Errorf("corpus: quarantine %s: sync %s: %w", k.Name, filepath.Base(d), err)
			}
		}
	}
	set.Counter("corpus.quarantines").Inc()
	set.Log().Warn("corpus entry quarantined", "entry", k.Name, "hash", k.Hash,
		"files", moved, "dir", qdir)
	return nil
}

// Put stores the entry atomically: each file is written to a temp name in
// the store directory, fsynced, and renamed into place (with the directory
// fsynced after), so a crash at any point leaves either the old entry, no
// entry, or the complete new one — never a truncated file under the final
// name.
func (s *Store) Put(k Key, t *tracefile.Trace, prof *profile.Profile) error {
	return s.PutContext(context.Background(), k, t, prof)
}

// PutContext is Put with telemetry: "corpus.stores" and "corpus.store_ns"
// count successful writes, and each store is logged at debug level.
func (s *Store) PutContext(ctx context.Context, k Key, t *tracefile.Trace, prof *profile.Profile) error {
	set := telemetry.FromContext(ctx)
	start := time.Now()
	// Pin across the write and the eviction pass below, so a store that
	// overflows the budget evicts older entries, never the one just written.
	release := s.Pin(k)
	defer release()
	if err := s.writeAtomic(s.TracePath(k), func(w io.Writer) error {
		_, err := t.WriteTo(w)
		return err
	}); err != nil {
		return fmt.Errorf("corpus: %s: trace: %w: %w", k.Name, ErrIO, err)
	}
	if err := s.writeAtomic(s.ProfilePath(k), prof.Save); err != nil {
		return fmt.Errorf("corpus: %s: profile: %w: %w", k.Name, ErrIO, err)
	}
	s.touch(k)
	set.Counter("corpus.stores").Inc()
	set.Counter("corpus.store_ns").Add(time.Since(start).Nanoseconds())
	set.Log().Debug("corpus store", "entry", k.Name, "hash", k.Hash,
		"events", t.Len(), "elapsed", time.Since(start))
	s.evictContext(ctx)
	return nil
}

func (s *Store) writeAtomic(path string, write func(io.Writer) error) error {
	tmp, err := s.fsys.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer s.fsys.Remove(tmp.Name())
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err := write(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	// Sync the entry before renaming it into place: without this, a crash
	// after the rename but before writeback could surface a truncated —
	// but fully named — file whose next Load fails CRC.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := s.fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return s.fsys.SyncDir(s.dir)
}

// Keys scans the store and returns every complete entry (quarantined ones
// excluded: they live under .quarantine/, which the scan does not descend
// into).
func (s *Store) Keys() ([]Key, error) {
	ents, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	var keys []Key
	for _, e := range ents {
		name, ok := strings.CutSuffix(e.Name(), traceExt)
		if !ok || e.IsDir() {
			continue
		}
		i := strings.LastIndexByte(name, '-')
		if i <= 0 {
			continue
		}
		k := Key{Name: name[:i], Hash: name[i+1:]}
		if s.Has(k) {
			keys = append(keys, k)
		}
	}
	return keys, nil
}

// Record runs one instrumented VM pass over the input suite, producing both
// the replay trace and the merged profile — the exact payload of a corpus
// entry, and the same single-pass methodology core.Evaluate uses when
// profiling and evaluation suites coincide.
func Record(p *isa.Program, inputs [][]byte) (*tracefile.Trace, *profile.Profile, error) {
	return RecordContext(context.Background(), p, inputs, 0)
}

// RecordContext is Record under a context and a per-run step budget
// (0 means the VM default): the watchdogged recording path, where a hung
// program is killed by deadline or budget instead of stalling the suite.
func RecordContext(ctx context.Context, p *isa.Program, inputs [][]byte, maxSteps int64) (*tracefile.Trace, *profile.Profile, error) {
	prof := profile.New()
	col := &profile.Collector{P: prof}
	phook := col.Hook()
	t, err := tracefile.RecordConfig(ctx, p, inputs, vm.Config{MaxSteps: maxSteps}, phook)
	if err != nil {
		return nil, nil, err
	}
	prof.Steps, prof.Runs = t.Steps, t.Runs
	return t, prof, nil
}

// IsMiss reports whether a Load failure means "no entry" rather than a
// damaged or unreachable one. (The bare fs.ErrNotExist check predates the
// sentinel taxonomy and is kept for errors that bypassed LoadContext.)
func IsMiss(err error) bool {
	return errors.Is(err, ErrMiss) || errors.Is(err, fs.ErrNotExist)
}

// IsCorrupt reports whether a failure means the entry's bytes are damaged —
// the caller should quarantine and re-record.
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// IsTransient reports whether a failure was environmental (I/O) rather than
// a verdict on the entry — the caller should retry, not re-record.
func IsTransient(err error) bool { return errors.Is(err, ErrIO) }
