package symbolic

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/rx"
)

// Fingerprint returns a content hash of exactly the inputs that determine a
// RouteSpace: the ordered as-path pattern sequence and the ordered community
// pattern sequence (regexes, literals, and set-community literals) collected
// from the given configs. Two config sets with equal fingerprints yield
// structurally interchangeable universes — every pattern lookup inside
// RouteSpace is by pattern string, never by config identity — so a space
// built for one can serve the other.
//
// Anything else in a config (prefix lists, match clauses, stanza order,
// numeric match/set values) does NOT invalidate a cached space: those inputs
// are encoded per call against fixed bit vectors, not baked into the
// universe.
func Fingerprint(cfgs ...*ios.Config) string {
	return fingerprint(spacePatterns(cfgs))
}

func fingerprint(path, comm []string) string {
	h := sha256.New()
	var lenBuf [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write([]byte(s))
	}
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(path)))
	h.Write(lenBuf[:])
	for _, p := range path {
		writeStr(p)
	}
	for _, c := range comm {
		writeStr(c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Cache bounds; see SpaceCache.
const (
	// defaultMaxIdle bounds idle spaces retained per fingerprint. Distinct
	// concurrent users of the same universe each check one out, so a small
	// pool covers typical worker-pool concurrency.
	defaultMaxIdle = 8
	// maxIdleSpaces bounds idle spaces retained across all fingerprints;
	// beyond it the least recently released space is dropped. A space holds
	// tens of KiB, and a daemon serving open-vocabulary intents would
	// otherwise keep every space it ever built.
	maxIdleSpaces = 512
	// defaultMaxPoolNodes drops a space at Release once its BDD pool has
	// accumulated this many nodes, bounding memory held by the cache while
	// keeping the steady-state reuse win (typical verification pools hold a
	// few thousand nodes).
	defaultMaxPoolNodes = 1 << 21
	// memoCap bounds the compiled pattern automata a cache keeps. A
	// community pattern compiles to about a dozen states (1.5 KiB), so a
	// full memo holds about 6 MiB.
	memoCap = 4096
)

// SpaceCacheStats is a snapshot of cache effectiveness counters.
type SpaceCacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Idle is the number of spaces currently parked in the cache.
	Idle int `json:"idle"`
	// MemoHits and MemoMisses count pattern lookups in the automaton memo
	// made while building spaces on a miss; a memo miss compiles the
	// pattern.
	MemoHits   int64 `json:"memoHits"`
	MemoMisses int64 `json:"memoMisses"`
}

// SpaceCache is a content-addressed checkout pool of RouteSpaces. Acquire
// returns an idle cached space whose fingerprint matches the requested
// configs (or builds a fresh one), and Release files it back for the next
// caller. While checked out a space is owned exclusively by its acquirer —
// bdd.Pool is not safe for concurrent use — so the cache itself is safe for
// concurrent Acquire/Release from many goroutines; same-fingerprint
// concurrent acquirers simply each get their own space.
//
// Reuse is the point: a released space keeps its hash-consed node table and
// ITE cache, so repeated analyses over the same pattern universe (the
// daemon's steady state — every verification of a snippet against the same
// spec, every re-disambiguation of an unchanged config) skip both the
// regex→DFA→atomic-predicate construction and the re-derivation of BDD
// nodes.
//
// A miss still reuses work: the cache memoizes each pattern's compiled
// automaton, keyed by dialect (as-path or community) and pattern text, so a
// space whose config gained one pattern compiles only that pattern and
// reruns just the atomic-predicate refinement. Automata are immutable once
// built, so memo entries are shared read-only by every space built from
// them. The memo belongs to the cache; there is no process-wide table.
//
// What the cache keeps is bounded: at most defaultMaxIdle idle spaces per
// fingerprint and maxIdleSpaces in all (the least recently released is
// dropped first), no space whose pool outgrew defaultMaxPoolNodes, and at
// most memoCap memoized automata.
//
// A nil *SpaceCache is valid and disables caching: Acquire builds fresh
// spaces with NewRouteSpace and Release discards them.
type SpaceCache struct {
	mu sync.Mutex
	// idle holds each fingerprint's idle spaces as elements of lru, in
	// release order.
	idle map[string][]*list.Element
	// lru holds every idle space, least recently released at the front.
	lru  list.List
	memo dfaMemo

	hits, misses, memoHits, memoMisses int64
}

// NewSpaceCache returns an empty cache.
func NewSpaceCache() *SpaceCache {
	return &SpaceCache{idle: map[string][]*list.Element{}}
}

// Acquire returns a RouteSpace for the given configs, reusing an idle cached
// space when the fingerprint matches and otherwise building one from the
// memoized pattern automata. The caller owns the space until Release. On a
// nil cache it is exactly NewRouteSpace.
func (c *SpaceCache) Acquire(cfgs ...*ios.Config) (*RouteSpace, error) {
	if c == nil {
		return NewRouteSpace(cfgs...)
	}
	path, comm := spacePatterns(cfgs)
	fp := fingerprint(path, comm)
	c.mu.Lock()
	if spaces := c.idle[fp]; len(spaces) > 0 {
		e := spaces[len(spaces)-1]
		c.idle[fp] = spaces[:len(spaces)-1]
		c.lru.Remove(e)
		c.hits++
		c.mu.Unlock()
		s := e.Value.(*RouteSpace)
		s.hit = true
		return s, nil
	}
	c.misses++
	c.mu.Unlock()
	var compiled, reused int
	s, err := buildRouteSpace(path, comm,
		c.memoized(false, ciscorx.CompilePath, &compiled, &reused),
		c.memoized(true, ciscorx.CompileCommunity, &compiled, &reused))
	if err != nil {
		return nil, err
	}
	s.fp, s.compiled, s.reused = fp, compiled, reused
	return s, nil
}

// memoized wraps compile with the cache's automaton memo for one dialect,
// counting patterns compiled and reused. Compilation runs outside the lock:
// it is a pure function, so two racing compiles of a pattern are harmless.
func (c *SpaceCache) memoized(comm bool, compile func(string) (*rx.DFA, error), compiled, reused *int) func(string) (*rx.DFA, error) {
	return func(pattern string) (*rx.DFA, error) {
		k := memoKey{comm: comm, pattern: pattern}
		c.mu.Lock()
		d, ok := c.memo.get(k)
		if ok {
			c.memoHits++
		} else {
			c.memoMisses++
		}
		c.mu.Unlock()
		if ok {
			*reused++
			return d, nil
		}
		d, err := compile(pattern)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.memo.put(k, d)
		c.mu.Unlock()
		*compiled++
		return d, nil
	}
}

// Release files a space acquired from this cache back for reuse. Spaces the
// cache did not create, over-grown spaces, and releases beyond the per-key
// idle bound are dropped; beyond the total idle bound the least recently
// released space is evicted. Safe on a nil cache.
func (c *SpaceCache) Release(s *RouteSpace) {
	if c == nil || s == nil || s.fp == "" || s.Pool.Size() > defaultMaxPoolNodes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.idle[s.fp]) >= defaultMaxIdle {
		return
	}
	c.idle[s.fp] = append(c.idle[s.fp], c.lru.PushBack(s))
	for c.lru.Len() > maxIdleSpaces {
		// The globally oldest idle space is also the oldest of its
		// fingerprint, so it sits first in that fingerprint's list.
		old := c.lru.Remove(c.lru.Front()).(*RouteSpace)
		if rest := c.idle[old.fp][1:]; len(rest) > 0 {
			c.idle[old.fp] = rest
		} else {
			delete(c.idle, old.fp)
		}
	}
}

// Stats snapshots the hit/miss counters. Safe on a nil cache.
func (c *SpaceCache) Stats() SpaceCacheStats {
	if c == nil {
		return SpaceCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return SpaceCacheStats{
		Hits: c.hits, Misses: c.misses, Idle: c.lru.Len(),
		MemoHits: c.memoHits, MemoMisses: c.memoMisses,
	}
}

// memoKey names a compiled pattern: its dialect and its text.
type memoKey struct {
	comm    bool // community dialect; as-path otherwise
	pattern string
}

// dfaMemo is a bounded map of compiled automata kept as two generations:
// entries are added to cur, a lookup that finds an entry only in old copies
// it to cur, and when cur holds memoCap/2 entries old is dropped and cur
// takes its place. So at most memoCap entries are held, and a pattern used
// since the last turnover survives the next one. The zero value is empty.
type dfaMemo struct {
	cur, old map[memoKey]*rx.DFA
}

func (m *dfaMemo) get(k memoKey) (*rx.DFA, bool) {
	if d, ok := m.cur[k]; ok {
		return d, true
	}
	d, ok := m.old[k]
	if ok {
		m.put(k, d)
	}
	return d, ok
}

func (m *dfaMemo) put(k memoKey, d *rx.DFA) {
	if m.cur == nil || len(m.cur) >= memoCap/2 {
		m.old, m.cur = m.cur, make(map[memoKey]*rx.DFA)
	}
	m.cur[k] = d
}
