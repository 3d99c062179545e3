package symbolic

import (
	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/obs"
)

// ObservePool annotates sp with the BDD workload performed on p since the
// before snapshot, plus the pool's final size. Safe on a nil span.
func ObservePool(sp *obs.Span, p *bdd.Pool, before bdd.Counters) {
	if sp == nil {
		return
	}
	d := p.Counters().Sub(before)
	sp.SetInt("bdd-ite-calls", d.ITECalls)
	sp.SetInt("bdd-unique-hits", d.UniqueHits)
	sp.SetInt("bdd-nodes-built", d.UniqueMisses)
	sp.SetInt("bdd-growths", d.Growths)
	sp.SetInt("bdd-pool-size", int64(p.Size()))
}

// ObserveInto annotates sp with the workload performed on this space since
// the before snapshot: the BDD counter deltas plus the universe's atomic
// partition sizes. A space from a SpaceCache also records whether its
// Acquire was a hit (space-hit) and, on a miss, how many patterns the build
// compiled and how many it took from the cache's memo. Call it before
// releasing the space back to a SpaceCache — once released, another
// goroutine may acquire the space and advance its counters. Safe on a nil
// span.
func (s *RouteSpace) ObserveInto(sp *obs.Span, before bdd.Counters) {
	if sp == nil {
		return
	}
	ObservePool(sp, s.Pool, before)
	sp.SetInt("path-atoms", int64(s.PathAtomCount()))
	sp.SetInt("comm-atoms", int64(s.CommAtomCount()))
	if s.fp == "" {
		return
	}
	sp.SetBool("space-hit", s.hit)
	if !s.hit {
		sp.SetInt("patterns-compiled", int64(s.compiled))
		sp.SetInt("patterns-reused", int64(s.reused))
	}
}

// ObserveInto annotates sp with the workload performed on this space since
// the before snapshot. ACL spaces are built fresh per analysis, so before is
// usually the zero Counters. Safe on a nil span.
func (s *ACLSpace) ObserveInto(sp *obs.Span, before bdd.Counters) {
	ObservePool(sp, s.Pool, before)
}
