package rx

import (
	"fmt"
	"testing"
)

// FuzzCompile checks that the regex compiler never panics and that every
// accepted pattern yields an automaton whose complement round-trips
// (¬¬L = L) and whose shortest witness, if any, is a member.
func FuzzCompile(f *testing.F) {
	alpha := Alphabet("0123 :^$")
	for _, s := range []string{
		"123", "(1|2)*3", "[0-3]+", "1?2?3?", ".*", "[^1]", "\\^1\\$",
		"((0|1)(2|3))*", "_1_", "a**", "(", "[z-a]",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, pattern string) {
		if len(pattern) > 40 {
			return // keep automata small
		}
		d, err := Compile(pattern, alpha)
		if err != nil {
			return
		}
		if !d.Complement().Complement().Equal(d) {
			t.Fatalf("double complement differs for %q", pattern)
		}
		if w, ok := d.ShortestString(); ok && !d.Matches(w) {
			t.Fatalf("shortest witness %q not a member of %q", w, pattern)
		}
	})
}

// FuzzProduct checks the product constructions and Minimize differentially.
// For two fuzzed patterns, Intersect, Union and Minus must agree with the
// boolean combination of Matches on every string up to productMaxLen, every
// string EnumerateStrings yields from a result must be a member, and
// Minimize must produce as many states as a reference Moore partition of
// the unminimized product.
func FuzzProduct(f *testing.F) {
	alpha := Alphabet("01:^")
	for _, s := range [][2]string{
		{"0*1", "(0|1)*:"}, {".*0.*", ".*1.*"}, {"\\^0:1", "\\^.*"}, {"[01]+", "0?1?"},
		{"", ".*"}, {"(00)*", "(000)*"}, {"[^0]*", "0+"}, {"(", "1"},
	} {
		f.Add(s[0], s[1])
	}
	all := allStrings(alpha, productMaxLen)
	f.Fuzz(func(t *testing.T, pa, pb string) {
		if len(pa) > 24 || len(pb) > 24 {
			return // keep automata small
		}
		a, err := Compile(pa, alpha)
		if err != nil {
			return
		}
		b, err := Compile(pb, alpha)
		if err != nil {
			return
		}
		for _, op := range []struct {
			name string
			acc  func(x, y bool) bool
			got  *DFA
		}{
			{"Intersect", func(x, y bool) bool { return x && y }, a.Intersect(b)},
			{"Union", func(x, y bool) bool { return x || y }, a.Union(b)},
			{"Minus", func(x, y bool) bool { return x && !y }, a.Minus(b)},
		} {
			for _, s := range all {
				if want := op.acc(a.Matches(s), b.Matches(s)); op.got.Matches(s) != want {
					t.Fatalf("%s(%q, %q) on %q = %v, want %v", op.name, pa, pb, s, !want, want)
				}
			}
			op.got.EnumerateStrings(productMaxLen, func(s string) bool {
				if !op.acc(a.Matches(s), b.Matches(s)) {
					t.Fatalf("%s(%q, %q) enumerates non-member %q", op.name, pa, pb, s)
				}
				return true
			})
			raw := a.productRaw(b, op.acc)
			if got, want := raw.Minimize().NumStates(), refMooreStates(raw); got != want {
				t.Fatalf("%s(%q, %q): Minimize has %d states, Moore partition %d", op.name, pa, pb, got, want)
			}
			if got := op.got.NumStates(); got != refMooreStates(op.got) {
				t.Fatalf("%s(%q, %q): result with %d states is not minimal", op.name, pa, pb, got)
			}
		}
	})
}

// productMaxLen bounds the exhaustive membership check in FuzzProduct.
const productMaxLen = 6

// allStrings lists every string over alpha of length at most maxLen.
func allStrings(alpha Alphabet, maxLen int) []string {
	out := []string{""}
	for level := []string{""}; maxLen > 0; maxLen-- {
		var next []string
		for _, s := range level {
			for _, b := range alpha {
				next = append(next, s+string(b))
			}
		}
		out = append(out, next...)
		level = next
	}
	return out
}

// refMooreStates is a reference for Minimize's state count: the number of
// Moore-equivalence classes among d's reachable states, refined with
// string-keyed signatures until the class count stops growing.
func refMooreStates(d *DFA) int {
	var reachable []int32
	seen := map[int32]bool{d.start: true}
	for queue := []int32{d.start}; len(queue) > 0; queue = queue[1:] {
		s := queue[0]
		reachable = append(reachable, s)
		for _, t := range d.trans[s] {
			if !seen[t] {
				seen[t] = true
				queue = append(queue, t)
			}
		}
	}
	class := map[int32]string{}
	count := 0
	for _, s := range reachable {
		class[s] = fmt.Sprint(d.accept[s])
	}
	for {
		next := map[int32]string{}
		ids := map[string]bool{}
		for _, s := range reachable {
			sig := class[s]
			for _, t := range d.trans[s] {
				sig += "|" + class[t]
			}
			next[s] = sig
			ids[sig] = true
		}
		if len(ids) == count {
			return count
		}
		// Rename classes to short ids so signatures stay small.
		names := map[string]string{}
		for _, s := range reachable {
			if _, ok := names[next[s]]; !ok {
				names[next[s]] = fmt.Sprint(len(names))
			}
			class[s] = names[next[s]]
		}
		count = len(ids)
	}
}
