package rx

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// FuzzCompile checks that the regex compiler never panics, that determinize
// builds exactly the reference subset construction's automaton, and that
// every accepted pattern yields an automaton whose complement round-trips
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
		if err := sameAsRefDeterminize(pattern, alpha); err != nil {
			t.Fatal(err)
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
// boolean combination of Matches on every string up to productMaxLen, Meets
// must agree with the emptiness of Intersect, every
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
		if got, want := a.Meets(b), !a.Intersect(b).IsEmpty(); got != want {
			t.Fatalf("Meets(%q, %q) = %v, want %v", pa, pb, got, want)
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

// sameAsRefDeterminize compiles pattern's NFA with determinize and with
// refDeterminize and reports any difference in start state, transitions or
// accepting states. Unparseable patterns and automata of more than
// refMaxStates states pass.
func sameAsRefDeterminize(pattern string, alpha Alphabet) error {
	p := &parser{pat: pattern}
	e, err := p.parseAlt()
	if err != nil || p.pos != len(p.pat) {
		return nil
	}
	n, alpha := buildNFA(e), alpha.clone()
	got, err := determinize(n, alpha)
	if errors.Is(err, errTooManyStates) || errors.Is(err, errPatternTooLong) {
		return nil // Compile rejects it; the reference would take too long
	}
	if err != nil {
		return err
	}
	if got.NumStates() > refMaxStates {
		return nil
	}
	want := refDeterminize(n, alpha)
	switch {
	case got.start != want.start:
		return fmt.Errorf("determinize(%q): start %d, reference %d", pattern, got.start, want.start)
	case !reflect.DeepEqual(got.trans, want.trans):
		return fmt.Errorf("determinize(%q): transitions %v, reference %v", pattern, got.trans, want.trans)
	case !reflect.DeepEqual(got.accept, want.accept):
		return fmt.Errorf("determinize(%q): accepting %v, reference %v", pattern, got.accept, want.accept)
	}
	return nil
}

// refMaxStates bounds the automata compared with refDeterminize, which
// builds maps for every subset: a short pattern such as 1 followed by 12
// dots has 16,385 subsets and would stall a fuzz run.
const refMaxStates = 4096

// refDeterminize is the map-based subset construction determinize replaced,
// kept as its reference: subsets are map[int]bool, keyed by their sorted
// state ids, and numbered in work-list then alphabet order.
func refDeterminize(n *nfa, alpha Alphabet) *DFA {
	d := &DFA{alphabet: alpha}
	closure := func(set map[int]bool) {
		var stack []int
		for s := range set {
			stack = append(stack, s)
		}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, t := range n.states[s].eps {
				if !set[t] {
					set[t] = true
					stack = append(stack, t)
				}
			}
		}
	}
	key := func(set map[int]bool) string {
		ids := make([]int, 0, len(set))
		for s := range set {
			ids = append(ids, s)
		}
		sort.Ints(ids)
		return fmt.Sprint(ids)
	}
	startSet := map[int]bool{n.start: true}
	closure(startSet)
	stateIdx := map[string]int32{}
	var sets []map[int]bool
	mk := func(set map[int]bool) int32 {
		k := key(set)
		if id, ok := stateIdx[k]; ok {
			return id
		}
		id := int32(len(sets))
		stateIdx[k] = id
		sets = append(sets, set)
		d.trans = append(d.trans, make([]int32, len(alpha)))
		d.accept = append(d.accept, set[n.accept])
		return id
	}
	d.start = mk(startSet)
	for work := int32(0); int(work) < len(sets); work++ {
		cur := sets[work]
		for ai, b := range alpha {
			next := map[int]bool{}
			for s := range cur {
				st := &n.states[s]
				if st.next >= 0 && st.sym[b/64]>>(b%64)&1 == 1 {
					next[st.next] = true
				}
			}
			closure(next)
			d.trans[work][ai] = mk(next)
		}
	}
	return d
}
