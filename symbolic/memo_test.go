package symbolic_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/atoms"
	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/loadgen"
	"github.com/clarifynet/clarify/symbolic"
	"github.com/clarifynet/clarify/workload"
)

// requireSameSpace fails unless a space built from the cache's memo equals a
// fresh NewRouteSpace build of the same configs: same pattern order, same
// atom signatures and witnesses, and the same variable count.
func requireSameSpace(t *testing.T, label string, cache *symbolic.SpaceCache, cfgs ...*ios.Config) {
	t.Helper()
	got, err := cache.Acquire(cfgs...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer cache.Release(got)
	want, err := symbolic.NewRouteSpace(cfgs...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got.NumVars() != want.NumVars() {
		t.Errorf("%s: %d variables, want %d", label, got.NumVars(), want.NumVars())
	}
	gp, gc := got.Universes()
	wp, wc := want.Universes()
	requireSameUniverse(t, label+" as-path", gp, wp)
	requireSameUniverse(t, label+" community", gc, wc)
}

func requireSameUniverse(t *testing.T, label string, got, want *atoms.Universe) {
	t.Helper()
	if !slices.Equal(got.Patterns, want.Patterns) {
		t.Errorf("%s: patterns %q, want %q", label, got.Patterns, want.Patterns)
		return
	}
	if len(got.Atoms) != len(want.Atoms) {
		t.Errorf("%s: %d atoms, want %d", label, len(got.Atoms), len(want.Atoms))
		return
	}
	for i := range want.Atoms {
		g, w := got.Atoms[i], want.Atoms[i]
		if !slices.Equal(g.InLang, w.InLang) || g.Witness != w.Witness {
			t.Errorf("%s atom %d: (%v, %q), want (%v, %q)", label, i, g.InLang, g.Witness, w.InLang, w.Witness)
		}
	}
}

// unrelatedConfig uses patterns no corpus base does. One pattern text is
// both an as-path and a community regex, which compile to different
// automata.
func unrelatedConfig() *ios.Config {
	cfg := ios.NewConfig()
	cfg.AddASPathList("U0", ios.ASPathEntry{Permit: true, Regex: "^65123_"}, ios.ASPathEntry{Permit: true, Regex: ".*7.*"})
	cfg.AddCommunityList("U1", true, ios.CommunityListEntry{Permit: true, Values: []string{"_4242:[0-9]+_"}})
	cfg.AddCommunityList("U2", false, ios.CommunityListEntry{Permit: true, Values: []string{"4242:1"}})
	cfg.AddCommunityList("U3", true, ios.CommunityListEntry{Permit: true, Values: []string{".*7.*"}})
	return cfg
}

// warmCache returns a cache that has already built spaces for each base
// paired with its neighbour (overlapping patterns) and for a config whose
// patterns no base uses (unrelated ones).
func warmCache(t *testing.T, bases []*ios.Config) *symbolic.SpaceCache {
	t.Helper()
	unrelated := unrelatedConfig()
	cache := symbolic.NewSpaceCache()
	warm := [][]*ios.Config{{unrelated}}
	for i := range bases {
		warm = append(warm, []*ios.Config{bases[i], bases[(i+1)%len(bases)]}, []*ios.Config{unrelated, bases[i]})
	}
	for _, cfgs := range warm {
		s, err := cache.Acquire(cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		cache.Release(s)
	}
	return cache
}

// TestMemoizedSpacesMatchFresh: for every route-map base of the cloud and
// campus corpora, a space built from a warm cache equals NewRouteSpace's.
func TestMemoizedSpacesMatchFresh(t *testing.T) {
	for _, corpus := range []*workload.Corpus{workload.Cloud(1, 0, 30), workload.Campus(1, 0, 20)} {
		cache := warmCache(t, corpus.RouteMapConfigs)
		requireSameSpace(t, corpus.Name+" unrelated", cache, unrelatedConfig())
		for i, base := range corpus.RouteMapConfigs {
			label := fmt.Sprintf("%s RM%d", corpus.Name, i)
			requireSameSpace(t, label, cache, base)
			requireSameSpace(t, label+" (hit)", cache, base)
			requireSameSpace(t, label+" + next", cache, corpus.RouteMapConfigs[(i+2)%len(corpus.RouteMapConfigs)], base)
		}
		// Campus route maps match on prefixes only; cloud ones share
		// community and as-path patterns.
		if st := cache.Stats(); corpus.Name == "cloud" && st.MemoHits == 0 {
			t.Errorf("%s: warm cache reused no compiled pattern: %+v", corpus.Name, st)
		}
	}
}

// TestMemoizedSpacesMatchFreshGrowingSession: through a 16-update session
// whose every intent adds new patterns, each space the session's cache
// builds for the grown config (alone and next to its predecessor, as an
// edit-impact check does) equals NewRouteSpace's.
func TestMemoizedSpacesMatchFreshGrowingSession(t *testing.T) {
	bases := workload.Cloud(1, 0, 30).RouteMapConfigs
	cache := warmCache(t, bases)
	rng := rand.New(rand.NewSource(7))
	s := &clarify.Session{
		Client:     llm.NewSimLLM(),
		Config:     bases[0],
		SpaceCache: cache,
		RouteOracle: disambig.FuncRouteOracle(func(disambig.RouteQuestion) (bool, error) {
			return rng.Intn(2) == 0, nil
		}),
	}
	for step := 0; step < 16; step++ {
		prev := s.CurrentConfig()
		if _, err := s.Submit(context.Background(), loadgen.Intent(rng, false), "RM0"); err != nil {
			t.Fatalf("update %d: %v", step, err)
		}
		cur := s.CurrentConfig()
		label := fmt.Sprintf("update %d", step)
		requireSameSpace(t, label, cache, cur)
		requireSameSpace(t, label+" with predecessor", cache, prev, cur)
	}
	if st := cache.Stats(); st.MemoHits == 0 || st.Misses == 0 {
		t.Errorf("session neither built nor reused: %+v", st)
	}
}
