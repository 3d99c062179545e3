package main

import (
	"context"
	"math/rand"
	"testing"

	"github.com/clarifynet/clarify/symbolic"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// The same seed must give the same inputs, and different seeds different
// ones, for every workload.
func TestSameSeedSameInputs(t *testing.T) {
	for name := range shapes {
		a, err := genInputs(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genInputs(name, 3)
		c, _ := genInputs(name, 4)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 3 gave input digests %s and %s", name, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", name)
		}
	}
}

// Two runs of the same inputs must ask the same questions and make the same
// LLM calls, update by update; otherwise the per-update counts a run
// reports would depend on timing rather than on the code.
func TestSameSeedSameCounts(t *testing.T) {
	for _, name := range []string{"rm-replay", "rm-grow"} {
		in, err := genInputs(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		run := func(cache *symbolic.SpaceCache) []sample {
			var out []sample
			for idx := 0; idx < 3; idx++ {
				s := newInprocSession(in, idx, cache)
				for !s.done() {
					smp, o := s.next(context.Background())
					if smp.Err != "" {
						t.Fatalf("%s: script %d: %s", name, idx, smp.Err)
					}
					if err := checkOutput(o); err != nil {
						t.Fatalf("%s: script %d step %d: %v", name, idx, smp.Step, err)
					}
					out = append(out, smp)
				}
			}
			return out
		}
		// A cold and a shared warm cache must not change any output.
		a, b := run(nil), run(symbolic.NewSpaceCache())
		for i := range a {
			if a[i].Questions != b[i].Questions || a[i].LLMCalls != b[i].LLMCalls || a[i].Digest != b[i].Digest {
				t.Errorf("%s: update %d differs between runs: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
}

// The checker must reject an output whose final configuration does not do
// what the operator chose.
func TestCheckerRejectsWrongPlacement(t *testing.T) {
	in, err := genInputs("rm-replay", 1)
	if err != nil {
		t.Fatal(err)
	}
	for idx := range in.Scripts {
		s := newInprocSession(in, idx, nil)
		smp, o := s.next(context.Background())
		if smp.Err != "" {
			t.Fatal(smp.Err)
		}
		if len(o.Questions) == 0 {
			continue
		}
		if err := checkOutput(o); err != nil {
			t.Fatalf("correct output rejected: %v", err)
		}
		o.Questions[0].Chosen += " (the other option)"
		if checkOutput(o) == nil {
			t.Fatal("checker accepted a verdict the operator did not choose")
		}
		return
	}
	t.Fatal("no update asked a question")
}

func TestParsePacketInvertsString(t *testing.T) {
	for _, s := range []string{
		"tcp 10.1.2.0:0 -> 0.0.0.0:8080",
		"udp 10.0.0.1:53 -> 192.0.2.1:1024",
		"tcp 10.0.0.1:22 -> 10.0.0.2:40000 established",
		"icmp 10.0.0.1 -> 10.0.0.2 type 8 code 0",
	} {
		p, err := parsePacket(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if p.String() != s {
			t.Errorf("%q parsed back to %q", s, p.String())
		}
	}
	if _, err := parsePacket("tcp nowhere"); err == nil {
		t.Error("accepted a malformed packet")
	}
}
