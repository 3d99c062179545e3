package symbolic

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/rx"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const cacheTestConfig = `ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip community-list expanded C0 permit _65000:100_
route-map RM deny 10
 match as-path D0
route-map RM permit 20
 match community C0
 set local-preference 200
route-map RM permit 30
 match ip address prefix-list D1
`

func TestFingerprintDeterministic(t *testing.T) {
	a := ios.MustParse(cacheTestConfig)
	b := ios.MustParse(cacheTestConfig)
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("identical configs have different fingerprints")
	}
	if Fingerprint(a, b) != Fingerprint(b, a) {
		// Patterns are deduped and sorted per config set, so order of the
		// set is immaterial when the union is equal.
		t.Error("fingerprint depends on config order despite equal pattern union")
	}
	// A new community pattern must change the fingerprint.
	c := ios.MustParse(cacheTestConfig)
	c.AddCommunityList("C9", true, ios.CommunityListEntry{Permit: true, Values: []string{"_65000:999_"}})
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("fingerprint unchanged after adding a community pattern")
	}
	// Prefix lists do not participate in the universe: adding one must NOT
	// change the fingerprint.
	d := ios.MustParse(cacheTestConfig)
	d.AddPrefixList("P9", ios.PrefixListEntry{Seq: 10, Permit: true, Prefix: mustPrefix(t, "172.16.0.0/12"), Le: 24})
	if Fingerprint(a) != Fingerprint(d) {
		t.Error("fingerprint changed by a prefix list, which is not a universe input")
	}
}

func TestSpaceCacheHitMissCheckout(t *testing.T) {
	cfg := ios.MustParse(cacheTestConfig)
	cache := NewSpaceCache()

	s1, err := cache.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cache.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("two outstanding acquisitions share one space")
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 0 hits / 2 misses", st)
	}

	cache.Release(s1)
	cache.Release(s2)
	s3, err := cache.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 && s3 != s2 {
		t.Error("released space was not reused")
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", st)
	}
	if st.Idle != 1 {
		t.Errorf("idle = %d, want 1 (one released space still parked)", st.Idle)
	}
}

func TestSpaceCacheNilSafe(t *testing.T) {
	cfg := ios.MustParse(cacheTestConfig)
	var cache *SpaceCache
	space, err := cache.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if space == nil {
		t.Fatal("nil cache returned nil space")
	}
	cache.Release(space) // must not panic
}

// TestSpaceCacheReusedSpaceWorks: a cache hit must behave exactly like a
// fresh space on the §2.1-style queries the pipeline issues.
func TestSpaceCacheReusedSpaceWorks(t *testing.T) {
	cfg := ios.MustParse(cacheTestConfig)
	fresh, err := NewRouteSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSpaceCache()
	first, err := cache.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache.Release(first)
	reused, err := cache.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Release(reused)

	rm := cfg.RouteMaps["RM"]
	want, err := fresh.FirstMatch(cfg, rm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reused.FirstMatch(cfg, rm)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("region counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		wc := fresh.Pool.SatCount(want[i])
		gc := reused.Pool.SatCount(got[i])
		if wc.Cmp(gc) != 0 {
			t.Errorf("region %d: satcount %v (fresh) vs %v (reused)", i, wc, gc)
		}
	}
}

// TestSpaceCacheConcurrent drives one shared cache from many goroutines
// (run under -race): checkout semantics must keep each acquired space
// private to its holder even when fingerprints collide.
func TestSpaceCacheConcurrent(t *testing.T) {
	cache := NewSpaceCache()
	cfg := ios.MustParse(cacheTestConfig)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				space, err := cache.Acquire(cfg)
				if err != nil {
					errs <- err
					return
				}
				rm := cfg.RouteMaps["RM"]
				regions, err := space.FirstMatch(cfg, rm)
				if err != nil {
					errs <- err
					cache.Release(space)
					return
				}
				if _, _, err := space.Witness(regions[1]); err != nil {
					errs <- err
				}
				cache.Release(space)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits+st.Misses != 64 {
		t.Errorf("hits+misses = %d, want 64", st.Hits+st.Misses)
	}
	if st.Hits == 0 {
		t.Error("no cache hits across 64 same-fingerprint acquisitions")
	}
}

// TestDFAMemoCap: the automaton memo never holds more than memoCap entries,
// and a pattern looked up since the last turnover survives the next one.
func TestDFAMemoCap(t *testing.T) {
	var m dfaMemo
	d := rx.MustCompile("1", rx.Alphabet("1"))
	hot := memoKey{comm: true, pattern: "hot"}
	m.put(hot, d)
	for i := 0; i < 3*memoCap; i++ {
		m.put(memoKey{pattern: fmt.Sprint(i)}, d)
		if n := len(m.cur) + len(m.old); n > memoCap {
			t.Fatalf("memo holds %d entries after %d puts, cap %d", n, i+1, memoCap)
		}
		if _, ok := m.get(hot); !ok {
			t.Fatalf("hot entry evicted after %d puts", i+1)
		}
	}
	if _, ok := m.get(memoKey{pattern: "0"}); ok {
		t.Error("an entry unused for 3*memoCap puts is still held")
	}
	if _, ok := m.get(memoKey{pattern: "hot"}); ok {
		t.Error("the memo key ignores the dialect")
	}
}

// idleSpace returns a stand-in for a cached space with fingerprint fp; the
// idle bookkeeping never looks past fp and the pool size.
func idleSpace(fp string) *RouteSpace { return &RouteSpace{fp: fp, Pool: bdd.NewPool(1)} }

// TestSpaceCacheIdleCap: past maxIdleSpaces idle spaces in all, Release
// drops the least recently released one, whatever its fingerprint, and the
// per-fingerprint lists stay in step with the total.
func TestSpaceCacheIdleCap(t *testing.T) {
	c := NewSpaceCache()
	old := []*RouteSpace{idleSpace("a"), idleSpace("a"), idleSpace("b")}
	for _, s := range old {
		c.Release(s)
	}
	for i := 0; i < maxIdleSpaces-len(old); i++ {
		c.Release(idleSpace(fmt.Sprint("fill", i)))
	}
	if n := c.Stats().Idle; n != maxIdleSpaces || len(c.idle["a"]) != 2 {
		t.Fatalf("idle = %d (a: %d), want %d (a: 2) with the cache just full", n, len(c.idle["a"]), maxIdleSpaces)
	}
	c.Release(idleSpace("new1"))
	if len(c.idle["a"]) != 1 || c.idle["a"][0].Value != old[1] || len(c.idle["b"]) != 1 {
		t.Fatal("the first release past the cap did not evict the oldest space")
	}
	c.Release(idleSpace("new2"))
	if _, ok := c.idle["a"]; ok {
		t.Error("fingerprint a still listed after all its spaces were evicted")
	}
	if len(c.idle["b"]) != 1 {
		t.Error("space b evicted before it was the least recently released")
	}
	n := 0
	for _, es := range c.idle {
		n += len(es)
	}
	if idle := c.Stats().Idle; idle != maxIdleSpaces || n != idle {
		t.Errorf("idle = %d, per-fingerprint total = %d, want both %d", idle, n, maxIdleSpaces)
	}
}

// TestSpaceCacheIdlePerKeyCap: at most defaultMaxIdle spaces per
// fingerprint are kept, and acquiring one unlinks it from the global order.
func TestSpaceCacheIdlePerKeyCap(t *testing.T) {
	cfg := ios.MustParse(cacheTestConfig)
	c := NewSpaceCache()
	var spaces []*RouteSpace
	for i := 0; i < defaultMaxIdle+2; i++ {
		s, err := c.Acquire(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spaces = append(spaces, s)
	}
	for _, s := range spaces {
		c.Release(s)
	}
	if n := c.Stats().Idle; n != defaultMaxIdle {
		t.Fatalf("idle = %d, want %d", n, defaultMaxIdle)
	}
	if _, err := c.Acquire(cfg); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Idle != defaultMaxIdle-1 || c.lru.Len() != len(c.idle[Fingerprint(cfg)]) {
		t.Errorf("after a hit: idle = %d, lru = %d, fingerprint list = %d", st.Idle, c.lru.Len(), len(c.idle[Fingerprint(cfg)]))
	}
}

// TestSpaceCacheMissReusesMemo: a miss compiles only the patterns the memo
// lacks, and the space's span attributes say so; a hit says space-hit.
func TestSpaceCacheMissReusesMemo(t *testing.T) {
	cfg := ios.MustParse(cacheTestConfig)
	grown := cfg.Clone()
	grown.AddCommunityList("C9", false, ios.CommunityListEntry{Permit: true, Values: []string{"65000:999"}})
	c := NewSpaceCache()
	attrs := func(s *RouteSpace) (hit bool, compiled, reused int64) {
		sp := obs.NewTrace("t").Root
		s.ObserveInto(sp, s.Pool.Counters())
		h, _ := sp.Attr("space-hit")
		cp, _ := sp.Attr("patterns-compiled")
		ru, _ := sp.Attr("patterns-reused")
		return h.Bool, cp.Int, ru.Int
	}

	first, err := c.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit, compiled, reused := attrs(first); hit || compiled != 2 || reused != 0 {
		t.Errorf("first build: hit=%v compiled=%d reused=%d, want false/2/0", hit, compiled, reused)
	}
	c.Release(first)
	second, err := c.Acquire(grown)
	if err != nil {
		t.Fatal(err)
	}
	if hit, compiled, reused := attrs(second); hit || compiled != 1 || reused != 2 {
		t.Errorf("grown build: hit=%v compiled=%d reused=%d, want false/1/2", hit, compiled, reused)
	}
	again, err := c.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("released space not reused")
	}
	sp := obs.NewTrace("t").Root
	again.ObserveInto(sp, again.Pool.Counters())
	if a, ok := sp.Attr("space-hit"); !ok || !a.Bool {
		t.Error("a hit does not record space-hit")
	}
	if _, ok := sp.Attr("patterns-compiled"); ok {
		t.Error("a hit records patterns-compiled")
	}
	if st := c.Stats(); st.MemoHits != 2 || st.MemoMisses != 3 {
		t.Errorf("memo hits/misses = %d/%d, want 2/3", st.MemoHits, st.MemoMisses)
	}
	if got := c.Stats(); got.Hits != 1 || got.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", got)
	}
}

// TestSpaceCacheOverlappingConcurrent drives one cache from many goroutines
// whose fingerprints share most of their patterns (run under -race), so
// memo entries are compiled, published and read concurrently; every space
// must match a fresh build.
func TestSpaceCacheOverlappingConcurrent(t *testing.T) {
	base := ios.MustParse(cacheTestConfig)
	var cfgs []*ios.Config
	var want []int
	for k := 0; k < 6; k++ {
		cfg := base.Clone()
		for j := 0; j <= k; j++ {
			cfg.AddCommunityList(fmt.Sprint("G", j), true, ios.CommunityListEntry{Permit: true, Values: []string{fmt.Sprintf("_65%d:%d_", j, k%3)}})
		}
		fresh, err := NewRouteSpace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
		want = append(want, fresh.CommAtomCount())
	}
	cache := NewSpaceCache()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (g + i) % len(cfgs)
				space, err := cache.Acquire(cfgs[k])
				if err != nil {
					errs <- err
					return
				}
				if got := space.CommAtomCount(); got != want[k] {
					errs <- fmt.Errorf("config %d: %d community atoms, want %d", k, got, want[k])
				}
				cache.Release(space)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := cache.Stats(); st.MemoHits == 0 {
		t.Errorf("no memo hits across overlapping fingerprints: %+v", st)
	}
}
