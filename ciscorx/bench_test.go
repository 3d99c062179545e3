package ciscorx

import "testing"

// BenchmarkCompileCommunity measures one expanded community-list pattern
// from translation to its automaton intersected with ValidCommunity, the
// compile the concrete evaluator pays for every expanded list it checks.
func BenchmarkCompileCommunity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CompileCommunity("_65000:1[0-9][0-9]_"); err != nil {
			b.Fatal(err)
		}
	}
}
