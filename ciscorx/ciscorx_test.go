package ciscorx

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func pathMatch(t *testing.T, pattern string, asns ...uint32) bool {
	t.Helper()
	d, err := CompilePath(pattern)
	if err != nil {
		t.Fatalf("CompilePath(%q): %v", pattern, err)
	}
	return d.Matches(PathSubject(asns))
}

func TestPaperASPathRegex(t *testing.T) {
	// The paper's D0: "_32$" — routes originating from ASN 32.
	if !pathMatch(t, "_32$", 32) {
		t.Error("path [32] should match _32$")
	}
	if !pathMatch(t, "_32$", 100, 32) {
		t.Error("path [100 32] should match _32$")
	}
	if pathMatch(t, "_32$", 32, 100) {
		t.Error("path [32 100] should not match _32$")
	}
	if pathMatch(t, "_32$", 132) {
		t.Error("path [132] should not match _32$ (boundary)")
	}
	if pathMatch(t, "_32$", 321) {
		t.Error("path [321] should not match _32$")
	}
	if pathMatch(t, "_32$") {
		t.Error("empty path should not match _32$")
	}
}

func TestAnchorsAndEmptyPath(t *testing.T) {
	if !pathMatch(t, "^$") {
		t.Error("empty path should match ^$")
	}
	if pathMatch(t, "^$", 1) {
		t.Error("non-empty path should not match ^$")
	}
	if !pathMatch(t, "^65000_", 65000, 200) {
		t.Error("^65000_ should match path starting with 65000")
	}
	if pathMatch(t, "^65000_", 200, 65000) {
		t.Error("^65000_ must anchor at start")
	}
	// Unanchored substring: _7_ anywhere.
	if !pathMatch(t, "_7_", 1, 7, 9) || !pathMatch(t, "_7_", 7) || pathMatch(t, "_7_", 77) {
		t.Error("_7_ boundary semantics wrong")
	}
}

func TestDotAndClassesInPath(t *testing.T) {
	// ".*" matches everything.
	if !pathMatch(t, ".*") || !pathMatch(t, ".*", 1, 2, 3) {
		t.Error(".* should match any path")
	}
	// "^[1-3]$" matches single-ASN paths 1..3.
	for asn := uint32(1); asn <= 3; asn++ {
		if !pathMatch(t, "^[1-3]$", asn) {
			t.Errorf("^[1-3]$ should match [%d]", asn)
		}
	}
	if pathMatch(t, "^[1-3]$", 4) || pathMatch(t, "^[1-3]$", 12) {
		t.Error("^[1-3]$ overmatches")
	}
}

func TestPaperCommunityRegex(t *testing.T) {
	d, err := CompileCommunity("_300:3_")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Matches(CommunitySubject("300:3")) {
		t.Error("300:3 should match _300:3_")
	}
	for _, c := range []string{"1300:3", "300:33", "300:31", "3300:3"} {
		if d.Matches(CommunitySubject(c)) {
			t.Errorf("%s should not match _300:3_", c)
		}
	}
}

func TestCommunityAnchored(t *testing.T) {
	d, err := CompileCommunity("^100:[0-9]+$")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Matches(CommunitySubject("100:42")) || d.Matches(CommunitySubject("1100:42")) {
		t.Error("anchored community regex wrong")
	}
}

func TestValidityIntersection(t *testing.T) {
	// Witnesses must be decodable: shortest string of any compiled pattern is
	// a well-formed subject.
	d, err := CompilePath("_32$")
	if err != nil {
		t.Fatal(err)
	}
	s, ok := d.ShortestString()
	if !ok {
		t.Fatal("pattern _32$ has no witness")
	}
	if s != "^32$" {
		t.Errorf("shortest witness = %q, want \"^32$\"", s)
	}
	dc, err := CompileCommunity("_300:3_")
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := dc.ShortestString()
	if !ok || sc != "^300:3$" {
		t.Errorf("community witness = %q, want \"^300:3$\"", sc)
	}
}

func TestBadPattern(t *testing.T) {
	if _, err := CompilePath("("); err == nil {
		t.Error("unbalanced pattern should fail")
	}
	if _, err := CompilePath(`\`); err == nil {
		t.Error("trailing backslash should fail")
	}
	if _, err := CompileCommunity("[z"); err == nil {
		t.Error("bad class should fail")
	}
}

// TestSubsetBlowupFails: searched as .*(…).*, "1" followed by 24 dots needs
// about 2^26 subsets; compiling it must fail quickly instead of hanging.
func TestSubsetBlowupFails(t *testing.T) {
	start := time.Now()
	_, err := CompilePath("1" + strings.Repeat(".", 24))
	if err == nil {
		t.Fatal("pattern past the subset cap compiled")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejecting the pattern took %v", d)
	}
	// Twelve dots stay under the cap.
	if _, err := CompilePath("1" + strings.Repeat(".", 12)); err != nil {
		t.Error(err)
	}
}

// TestLongPatternFails: a 100,000-character literal as-path regex (an
// as-path line may be a MiB long) must be rejected quickly and without
// building a parse tree, an NFA or a closure table for it; a long pattern
// whose NFA is too large for the subset construction fails too.
func TestLongPatternFails(t *testing.T) {
	pattern := strings.Repeat("1", 100_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := CompilePath(pattern)
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("100,000-character pattern compiled")
	}
	if took > time.Second {
		t.Errorf("rejecting the pattern took %v", took)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Errorf("rejecting the pattern allocated %d KiB", alloc>>10)
	}
	// 4,000 bytes pass the length check but need about 8,000 NFA states.
	if _, err := CompilePath(strings.Repeat("1", 4000)); err == nil {
		t.Error("4,000-character pattern compiled")
	}
	// A long alternation of real ASNs stays under the cap.
	asns := make([]string, 100)
	for i := range asns {
		asns[i] = fmt.Sprint(64512 + i)
	}
	if _, err := CompilePath("_(" + strings.Join(asns, "|") + ")_"); err != nil {
		t.Error(err)
	}
}

func TestEnumerateWitnesses(t *testing.T) {
	d, err := CompilePath("^1(0)*$")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	d.EnumerateStrings(8, func(s string) bool {
		got = append(got, s)
		return len(got) < 3
	})
	want := []string{"^1$", "^10$", "^100$"}
	if len(got) != 3 {
		t.Fatalf("enumerated %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("enumerated %v, want %v", got, want)
		}
	}
}
