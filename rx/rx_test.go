package rx

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

var digits = Alphabet("0123456789 :^$")

func mustCompile(t *testing.T, pat string) *DFA {
	t.Helper()
	d, err := Compile(pat, digits)
	if err != nil {
		t.Fatalf("Compile(%q): %v", pat, err)
	}
	return d
}

func TestLiteralMatch(t *testing.T) {
	d := mustCompile(t, "300:3")
	if !d.Matches("300:3") {
		t.Error("should match its own literal")
	}
	for _, s := range []string{"", "300:33", "1300:3", "300", ":3"} {
		if d.Matches(s) {
			t.Errorf("%q should not match", s)
		}
	}
}

func TestAlternation(t *testing.T) {
	d := mustCompile(t, "12|34|5")
	for _, s := range []string{"12", "34", "5"} {
		if !d.Matches(s) {
			t.Errorf("%q should match", s)
		}
	}
	for _, s := range []string{"1", "2", "345", "", "125"} {
		if d.Matches(s) {
			t.Errorf("%q should not match", s)
		}
	}
}

func TestRepetition(t *testing.T) {
	star := mustCompile(t, "1*")
	plus := mustCompile(t, "1+")
	opt := mustCompile(t, "1?")
	if !star.Matches("") || !star.Matches("1111") {
		t.Error("star failed")
	}
	if plus.Matches("") || !plus.Matches("1") || !plus.Matches("111") {
		t.Error("plus failed")
	}
	if !opt.Matches("") || !opt.Matches("1") || opt.Matches("11") {
		t.Error("opt failed")
	}
}

func TestDotAndClasses(t *testing.T) {
	d := mustCompile(t, "1.3")
	for _, s := range []string{"123", "103", "1:3", "1 3"} {
		if !d.Matches(s) {
			t.Errorf("%q should match 1.3", s)
		}
	}
	if d.Matches("13") || d.Matches("1234") {
		t.Error("dot must match exactly one symbol")
	}

	cls := mustCompile(t, "[1-3]+")
	if !cls.Matches("1231") || cls.Matches("14") || cls.Matches("") {
		t.Error("class range failed")
	}

	neg := mustCompile(t, "[^0-5]")
	if !neg.Matches("7") || neg.Matches("3") || neg.Matches("77") {
		t.Error("negated class failed")
	}
}

func TestGrouping(t *testing.T) {
	d := mustCompile(t, "(12)+")
	if !d.Matches("12") || !d.Matches("1212") || d.Matches("121") || d.Matches("") {
		t.Error("grouped repetition failed")
	}
	nested := mustCompile(t, "((1|2)(3|4))?5")
	for _, s := range []string{"5", "135", "145", "235", "245"} {
		if !nested.Matches(s) {
			t.Errorf("%q should match", s)
		}
	}
	if nested.Matches("15") || nested.Matches("35") {
		t.Error("nested group mismatched")
	}
}

func TestEscapes(t *testing.T) {
	// '$' and '^' are ordinary alphabet symbols here; escaping must work too.
	d := mustCompile(t, "\\^1\\$")
	if !d.Matches("^1$") || d.Matches("1") {
		t.Error("escape failed")
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{"(", ")", "(1", "[", "[1", "*", "+1)", "a|*", "\\", "[z-a]"}
	for _, pat := range bad {
		if _, err := Compile(pat, digits); err == nil {
			t.Errorf("Compile(%q) should fail", pat)
		}
	}
}

func TestIntersectUnionMinus(t *testing.T) {
	a := mustCompile(t, "[0-9]+")
	b := mustCompile(t, "1[0-9]*")
	inter := a.Intersect(b)
	if !inter.Matches("1") || !inter.Matches("19") || inter.Matches("91") {
		t.Error("intersection wrong")
	}
	uni := a.Union(mustCompile(t, ":"))
	if !uni.Matches(":") || !uni.Matches("42") || uni.Matches("4:") {
		t.Error("union wrong")
	}
	minus := a.Minus(b)
	if minus.Matches("12") || !minus.Matches("21") || !minus.Matches("0") {
		t.Error("difference wrong")
	}
}

func TestComplement(t *testing.T) {
	d := mustCompile(t, "1+")
	c := d.Complement()
	if c.Matches("1") || c.Matches("111") {
		t.Error("complement contains original strings")
	}
	if !c.Matches("") || !c.Matches("2") || !c.Matches("12") {
		t.Error("complement missing strings")
	}
	if !d.Complement().Complement().Equal(d) {
		t.Error("double complement not identity")
	}
}

func TestEmptinessAndShortest(t *testing.T) {
	empty := mustCompile(t, "1").Intersect(mustCompile(t, "2"))
	if !empty.IsEmpty() {
		t.Error("1 ∩ 2 should be empty")
	}
	if _, ok := empty.ShortestString(); ok {
		t.Error("empty language has no witness")
	}
	d := mustCompile(t, "00*1")
	s, ok := d.ShortestString()
	if !ok || s != "01" {
		t.Errorf("shortest = %q, want \"01\"", s)
	}
	eps := mustCompile(t, "1*")
	if s, ok := eps.ShortestString(); !ok || s != "" {
		t.Errorf("shortest of 1* = %q, want empty string", s)
	}
}

func TestEqualAndSubset(t *testing.T) {
	a := mustCompile(t, "(1|2)*")
	b := mustCompile(t, "(2|1)*")
	if !a.Equal(b) {
		t.Error("commuted alternation should be equal")
	}
	sub := mustCompile(t, "11*")
	if !sub.Subset(a) {
		t.Error("11* ⊆ (1|2)*")
	}
	if a.Subset(sub) {
		t.Error("(1|2)* ⊄ 11*")
	}
}

func TestUniversalAndEmptyLang(t *testing.T) {
	u := Universal(digits)
	if !u.Matches("") || !u.Matches("123 : ^$") {
		t.Error("universal rejects strings")
	}
	e := EmptyLang(digits)
	if e.Matches("") || e.Matches("1") {
		t.Error("empty language accepts strings")
	}
	if !u.Complement().Equal(e) {
		t.Error("¬Σ* != ∅")
	}
}

func TestMinimizeReducesStates(t *testing.T) {
	// (1|11|111)* ≡ 1* — minimization should find the 1-state-plus automaton.
	a := mustCompile(t, "(1|11|111)*")
	b := mustCompile(t, "1*")
	if !a.Equal(b) {
		t.Fatal("languages differ")
	}
	if a.NumStates() != b.NumStates() {
		t.Errorf("minimized sizes differ: %d vs %d", a.NumStates(), b.NumStates())
	}
}

// randomPattern produces a small random pattern over 0-3.
func randomPattern(rng *rand.Rand, depth int) string {
	if depth == 0 {
		return string(byte('0' + rng.Intn(4)))
	}
	switch rng.Intn(6) {
	case 0:
		return randomPattern(rng, depth-1) + randomPattern(rng, depth-1)
	case 1:
		return "(" + randomPattern(rng, depth-1) + "|" + randomPattern(rng, depth-1) + ")"
	case 2:
		return "(" + randomPattern(rng, depth-1) + ")*"
	case 3:
		return "(" + randomPattern(rng, depth-1) + ")?"
	case 4:
		return "(" + randomPattern(rng, depth-1) + ")+"
	default:
		return string(byte('0' + rng.Intn(4)))
	}
}

func randomString(rng *rand.Rand) string {
	n := rng.Intn(6)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(byte('0' + rng.Intn(4)))
	}
	return sb.String()
}

// sameAsRef reports whether determinize builds exactly refDeterminize's
// automaton for every pattern, logging the first difference.
func sameAsRef(t *testing.T, alpha Alphabet, patterns ...string) bool {
	for _, p := range patterns {
		if err := sameAsRefDeterminize(p, alpha); err != nil {
			t.Log(err)
			return false
		}
	}
	return true
}

// TestQuickProductSemantics: membership in product automata must equal the
// boolean combination of memberships, and Meets must agree with the
// emptiness of Intersect.
func TestQuickProductSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alpha := Alphabet("0123")
	check := func() bool {
		pa, pb := randomPattern(rng, 3), randomPattern(rng, 3)
		if !sameAsRef(t, alpha, pa, pb) {
			return false
		}
		a, b := MustCompile(pa, alpha), MustCompile(pb, alpha)
		inter, uni, minus := a.Intersect(b), a.Union(b), a.Minus(b)
		if a.Meets(b) == inter.IsEmpty() {
			return false
		}
		comp := a.Complement()
		for i := 0; i < 20; i++ {
			s := randomString(rng)
			ma, mb := a.Matches(s), b.Matches(s)
			if inter.Matches(s) != (ma && mb) ||
				uni.Matches(s) != (ma || mb) ||
				minus.Matches(s) != (ma && !mb) ||
				comp.Matches(s) == ma {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickShortestIsMember: every ShortestString is accepted, and no
// strictly shorter string over the alphabet is.
func TestQuickShortestIsMember(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alpha := Alphabet("01")
	check := func() bool {
		pat := randomPattern(rng, 3)
		if !sameAsRef(t, alpha, pat) {
			return false
		}
		d := MustCompile(pat, alpha)
		s, ok := d.ShortestString()
		if !ok {
			return d.IsEmpty()
		}
		if !d.Matches(s) {
			return false
		}
		// Exhaustively confirm no shorter member exists (short strings only).
		if len(s) > 0 && len(s) <= 4 {
			for l := 0; l < len(s); l++ {
				for m := 0; m < 1<<uint(l); m++ {
					var sb strings.Builder
					for i := 0; i < l; i++ {
						sb.WriteByte(byte('0' + m>>uint(i)&1))
					}
					if d.Matches(sb.String()) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickMinimizePreservesLanguage compares the DFA against direct NFA-free
// evaluation on random strings.
func TestQuickMinimizeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alpha := Alphabet("0123")
	check := func() bool {
		pat := randomPattern(rng, 4)
		if !sameAsRef(t, alpha, pat) {
			return false
		}
		a := MustCompile(pat, alpha)
		// Compile again: canonical minimal DFA should have identical size.
		b := MustCompile(pat, alpha)
		return a.Equal(b) && a.NumStates() == b.NumStates()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
