package corpus

import (
	"context"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"branchcost/internal/telemetry"
)

// This file is the store's size-budget enforcement. A corpus grows by one
// entry per (program, input-suite) pair forever — fine for a CLI run, fatal
// for a long-running daemon. SetBudget caps the store at a byte budget;
// overflow is shed by evicting whole entries (trace + profile together) in
// least-recently-accessed order.
//
// Access order is tracked in memory (touched by Load hits and Put) and
// seeded from file modification times for entries that predate this
// process — close enough to atime ordering without requiring an
// atime-mounted filesystem. Two classes of files are never evicted:
//
//   - pinned entries: an evaluation is loading or writing the entry right
//     now. Pin/unpin brackets every store operation, so eviction can run
//     concurrently with serving traffic.
//   - quarantined files: they live under .quarantine/, which the eviction
//     scan (like Keys) does not descend into. Quarantine is forensic
//     evidence with its own lifecycle; a size budget must not destroy it.

// SetBudget sets the store's byte budget (total size of all live entry
// files) and immediately evicts down to it. A budget of 0 removes the cap.
func (s *Store) SetBudget(bytes int64) {
	s.SetBudgetContext(context.Background(), bytes)
}

// SetBudgetContext is SetBudget with telemetry from ctx.
func (s *Store) SetBudgetContext(ctx context.Context, bytes int64) {
	s.mu.Lock()
	s.budget = bytes
	s.mu.Unlock()
	s.evictContext(ctx)
}

// Budget returns the store's byte budget (0 = unbounded).
func (s *Store) Budget() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget
}

// Pin marks the entry in-flight: eviction will not touch it until the
// returned release runs. Pinning nests; the entry stays protected until
// every release has run. Pinning an absent entry is harmless.
func (s *Store) Pin(k Key) (release func()) {
	base := filepath.Base(s.base(k))
	s.mu.Lock()
	s.pins[base]++
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			if s.pins[base]--; s.pins[base] <= 0 {
				delete(s.pins, base)
			}
			s.mu.Unlock()
		})
	}
}

// touch records an access to the entry, for eviction ordering.
func (s *Store) touch(k Key) {
	base := filepath.Base(s.base(k))
	s.mu.Lock()
	s.atimes[base] = time.Now()
	s.mu.Unlock()
}

// entryState is one live entry as the eviction scan sees it.
type entryState struct {
	key    Key
	bytes  int64
	atime  time.Time
	pinned bool
}

// scan walks the store and returns every complete entry with its size and
// last-access time, plus the total byte size of all live entry files
// (including half-entries and stray temp files, which also occupy the
// budget).
func (s *Store) scan() (entries []entryState, total int64, err error) {
	keys, err := s.Keys()
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	atimes := make(map[string]time.Time, len(s.atimes))
	for b, t := range s.atimes {
		atimes[b] = t
	}
	pins := make(map[string]bool, len(s.pins))
	for b := range s.pins {
		pins[b] = true
	}
	s.mu.Unlock()
	for _, k := range keys {
		e := entryState{key: k}
		base := filepath.Base(s.base(k))
		for _, p := range []string{s.TracePath(k), s.ProfilePath(k)} {
			fi, err := s.fsys.Stat(p)
			if err != nil {
				continue // raced with a concurrent quarantine or eviction
			}
			e.bytes += fi.Size()
			if e.atime.IsZero() || fi.ModTime().After(e.atime) {
				e.atime = fi.ModTime()
			}
		}
		if t, ok := atimes[base]; ok && t.After(e.atime) {
			e.atime = t
		}
		e.pinned = pins[base]
		total += e.bytes
		entries = append(entries, e)
	}
	return entries, total, nil
}

// Size returns the total byte size of all complete live entries.
func (s *Store) Size() (int64, error) {
	_, total, err := s.scan()
	return total, err
}

// evictContext sheds least-recently-accessed entries until the store fits
// its budget. Pinned entries are skipped; if only pinned entries remain the
// store stays over budget until they release (logged, not fatal — the
// budget is an amortized bound, not an invariant eviction would have to
// break in-flight work to hold).
func (s *Store) evictContext(ctx context.Context) {
	s.mu.Lock()
	budget := s.budget
	s.mu.Unlock()
	if budget <= 0 {
		return
	}
	set := telemetry.FromContext(ctx)
	entries, total, err := s.scan()
	if err != nil {
		set.Log().Warn("corpus: eviction scan failed", "err", err)
		return
	}
	set.Gauge("corpus.size_bytes").Set(total)
	if total <= budget {
		return
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].atime.Before(entries[j].atime) })
	for _, e := range entries {
		if total <= budget {
			break
		}
		if e.pinned {
			continue
		}
		if err := s.removeEntry(e.key); err != nil {
			set.Log().Warn("corpus: eviction failed", "entry", e.key.Name, "err", err)
			continue
		}
		total -= e.bytes
		set.Counter("corpus.evictions").Inc()
		set.Counter("corpus.evicted_bytes").Add(e.bytes)
		set.Log().Debug("corpus: evicted entry over budget",
			"entry", e.key.Name, "hash", e.key.Hash, "bytes", e.bytes)
	}
	set.Gauge("corpus.size_bytes").Set(total)
	if total > budget {
		set.Log().Warn("corpus: still over budget after eviction",
			"size", total, "budget", budget)
	}
}

// removeEntry deletes both files of an entry and forgets its access record.
func (s *Store) removeEntry(k Key) error {
	var first error
	for _, p := range []string{s.TracePath(k), s.ProfilePath(k)} {
		if err := s.fsys.Remove(p); err != nil && first == nil {
			first = err
		}
	}
	base := filepath.Base(s.base(k))
	s.mu.Lock()
	delete(s.atimes, base)
	s.mu.Unlock()
	return first
}
