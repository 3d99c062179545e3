package atoms_test

import (
	"sort"
	"testing"

	"github.com/clarifynet/clarify/atoms"
	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/rx"
	"github.com/clarifynet/clarify/workload"
)

// BenchmarkBuild measures the atomic-predicate refinement over the as-path
// and community patterns of the first 8 cloud route maps (the overlap-heavy
// ones), with every pattern compiled beforehand so only Build's products
// and minimizations are timed.
func BenchmarkBuild(b *testing.B) {
	var path, comm []string
	for _, cfg := range workload.Cloud(1, 0, 120).RouteMapConfigs[:8] {
		for _, name := range sortedKeys(cfg.ASPathLists) {
			for _, e := range cfg.ASPathLists[name].Entries {
				path = append(path, e.Regex)
			}
		}
		for _, name := range sortedKeys(cfg.CommunityLists) {
			for _, e := range cfg.CommunityLists[name].Entries {
				comm = append(comm, e.Values[0])
			}
		}
	}
	sets := []struct {
		patterns []string
		compile  func(string) (*rx.DFA, error)
		valid    *rx.DFA
	}{
		{path, precompiled(b, path, ciscorx.CompilePath), ciscorx.ValidPath()},
		{comm, precompiled(b, comm, ciscorx.CompileCommunity), ciscorx.ValidCommunity()},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sets {
			if _, err := atoms.Build(s.patterns, s.compile, s.valid); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// precompiled compiles every pattern once and returns a lookup over the
// results.
func precompiled(b *testing.B, patterns []string, compile func(string) (*rx.DFA, error)) func(string) (*rx.DFA, error) {
	dfas := map[string]*rx.DFA{}
	for _, p := range patterns {
		d, err := compile(p)
		if err != nil {
			b.Fatal(err)
		}
		dfas[p] = d
	}
	return func(p string) (*rx.DFA, error) { return dfas[p], nil }
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
