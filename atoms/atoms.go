// Package atoms computes atomic predicates over a set of regular expressions:
// the coarsest partition of a (regular) universe such that every input regex
// is a union of partition classes.
//
// This is the construction Batfish-style symbolic route analysis uses to
// reason about community and AS-path matching with boolean variables: each
// atom gets one BDD variable, a concrete attribute value falls in exactly one
// atom, and "value matches regex R" becomes the disjunction of the atoms
// contained in L(R).
package atoms

import (
	"fmt"

	"github.com/clarifynet/clarify/rx"
)

// Atom is one non-empty equivalence class of the partition.
type Atom struct {
	// InLang[i] reports whether the atom is contained in L(Patterns[i]).
	InLang []bool
	// Witness is a shortest member of the atom, used to decode symbolic
	// models into concrete attribute values.
	Witness string

	dfa *rx.DFA
}

// Universe is the atomic-predicate partition for one pattern set.
type Universe struct {
	// Patterns are the distinct input regexes, in first-seen order.
	Patterns []string
	// Atoms are the non-empty classes. Every string of the valid universe
	// belongs to exactly one atom.
	Atoms []Atom

	index map[string]int // pattern → position in Patterns
}

// Build computes the partition of the language of valid under the given
// patterns. compile maps each pattern to its automaton (already restricted to
// valid subjects, as ciscorx does). Duplicate patterns are deduplicated.
//
// The construction is iterative refinement: starting from {valid}, each
// pattern splits every current region into the part inside and the part
// outside its language; empty parts are dropped. The region count is bounded
// by 2^n but is small in practice because route-policy regexes overlap
// little.
func Build(patterns []string, compile func(string) (*rx.DFA, error), valid *rx.DFA) (*Universe, error) {
	u := &Universe{index: map[string]int{}}
	var dfas []*rx.DFA
	for _, p := range patterns {
		if _, dup := u.index[p]; dup {
			continue
		}
		d, err := compile(p)
		if err != nil {
			return nil, fmt.Errorf("atoms: %w", err)
		}
		u.index[p] = len(u.Patterns)
		u.Patterns = append(u.Patterns, p)
		dfas = append(dfas, d)
	}

	type region struct {
		dfa *rx.DFA
		sig []bool
	}
	regions := []region{{dfa: valid, sig: nil}}
	for i, d := range dfas {
		next := make([]region, 0, len(regions)*2)
		for _, r := range regions {
			if !r.dfa.Meets(d) {
				// The region lies wholly outside L(d): it is its own out part.
				next = append(next, region{dfa: r.dfa, sig: appendSig(r.sig, i, false)})
				continue
			}
			next = append(next, region{dfa: r.dfa.Intersect(d), sig: appendSig(r.sig, i, true)})
			if out := r.dfa.Minus(d); !out.IsEmpty() {
				next = append(next, region{dfa: out, sig: appendSig(r.sig, i, false)})
			}
		}
		regions = next
	}
	for _, r := range regions {
		w, ok := r.dfa.ShortestString()
		if !ok {
			continue // unreachable: empty regions were dropped
		}
		sig := r.sig
		if sig == nil {
			sig = []bool{}
		}
		u.Atoms = append(u.Atoms, Atom{InLang: sig, Witness: w, dfa: r.dfa})
	}
	return u, nil
}

func appendSig(sig []bool, i int, v bool) []bool {
	out := make([]bool, i+1)
	copy(out, sig)
	out[i] = v
	return out
}

// NumAtoms reports the partition size.
func (u *Universe) NumAtoms() int { return len(u.Atoms) }

// PatternIndex returns the position of pattern, or -1 if it was not supplied
// to Build.
func (u *Universe) PatternIndex(pattern string) int {
	if i, ok := u.index[pattern]; ok {
		return i
	}
	return -1
}

// MatchingAtoms returns the indices of the atoms contained in
// L(Patterns[patternIdx]) — the disjuncts of the pattern's boolean encoding.
func (u *Universe) MatchingAtoms(patternIdx int) []int {
	var out []int
	for ai, a := range u.Atoms {
		if a.InLang[patternIdx] {
			out = append(out, ai)
		}
	}
	return out
}

// Classify returns the index of the atom containing subject, or -1 when the
// subject lies outside the valid universe.
func (u *Universe) Classify(subject string) int {
	for ai, a := range u.Atoms {
		if a.dfa.Matches(subject) {
			return ai
		}
	}
	return -1
}

// WitnessWhere returns a member of atom ai satisfying accept, trying the
// stored shortest witness first and then enumerating members up to maxLen.
// It is used when decoded values carry side conditions the automaton does
// not encode (e.g. numeric overflow of five-digit tokens).
func (u *Universe) WitnessWhere(ai int, maxLen int, accept func(string) bool) (string, bool) {
	a := u.Atoms[ai]
	if accept(a.Witness) {
		return a.Witness, true
	}
	var found string
	ok := false
	a.dfa.EnumerateStrings(maxLen, func(s string) bool {
		if accept(s) {
			found, ok = s, true
			return false
		}
		return true
	})
	return found, ok
}
