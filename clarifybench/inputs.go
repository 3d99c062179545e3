package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/loadgen"
	"github.com/clarifynet/clarify/workload"
)

// base is one base configuration a session starts from.
type base struct {
	Text   string
	Cfg    *ios.Config
	Target string
	ACL    bool
}

// script is one session: a base configuration and the fixed sequence of
// intents submitted to it, with the seed of the operator's answers. A
// session's outputs are a pure function of its script.
type script struct {
	Base       int
	Intents    []string
	AnswerSeed int64
}

// inputs is everything a workload feeds the program, generated from --seed.
type inputs struct {
	Bases   []base
	Scripts []script
}

// shape holds a workload's input properties (see README.md).
type shape struct {
	// overlapBases is the number of heavy and moderate cloud route maps
	// used as bases (in-process workloads).
	overlapBases int
	// vocab is the number of distinct intents; 0 means every intent is
	// drawn fresh from loadgen.Intent (open vocabulary).
	vocab int
	// sessions is the number of scripts, sessionLen the updates in each.
	sessions, sessionLen int
	// acl adds the corpus's ACLs to the bases: 6 of 24 bases, so a quarter
	// of sessions target an ACL.
	acl bool
}

var shapes = map[string]shape{
	"rm-replay": {overlapBases: 8, vocab: 6, sessions: 256, sessionLen: 1},
	"rm-grow":   {overlapBases: 8, sessions: 24, sessionLen: 16},
	"served":    {sessions: 1000, sessionLen: 8, acl: true},
	"served-lb": {sessions: 1000, sessionLen: 8, acl: true},
}

// Cloud corpus sizes. The first route maps of workload.Cloud are its heavy
// and moderate overlap archetypes (1 + 20 at 120 route maps); the rest are
// clean. The served corpus (18 route maps, 6 ACLs) keeps the paper's
// archetype shares: 3 moderate route maps and 2 overlapping ACLs, and no
// heavy route map, which the paper's corpus has 3 of in 800 and which the
// in-process workloads load instead.
//
// The corpus is the network under management and is the same for every
// run (corpusSeed); --seed draws the traffic: which sessions start from
// which base, the intents, the answers and the arrival times. Sessions
// cycle through the bases in a seeded order, so every run holds each
// archetype in the same proportion.
const (
	corpusSeed      = 1
	inprocRouteMaps = 120
	servedRouteMaps = 18
	servedACLs      = 6
)

func genInputs(workloadName string, seed int64) (*inputs, error) {
	sh, ok := shapes[workloadName]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workloadName)
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	if !sh.acl {
		corpus := workload.Cloud(corpusSeed, 0, inprocRouteMaps)
		for i := 0; i < sh.overlapBases; i++ {
			in.addBase(corpus.RouteMapConfigs[i], fmt.Sprintf("RM%d", i), false)
		}
	} else {
		corpus := workload.Cloud(corpusSeed, servedACLs, servedRouteMaps)
		for i, c := range corpus.RouteMapConfigs {
			in.addBase(c, fmt.Sprintf("RM%d", i), false)
		}
		for i, c := range corpus.ACLConfigs {
			in.addBase(c, fmt.Sprintf("ACL%d", i), true)
		}
	}
	var vocab []string
	for i := 0; i < sh.vocab; i++ {
		vocab = append(vocab, loadgen.Intent(rng, false))
	}
	var order []int
	for s := 0; s < sh.sessions; s++ {
		if len(order) == 0 {
			order = rng.Perm(len(in.Bases))
		}
		sc := script{Base: order[0]}
		order = order[1:]
		acl := in.Bases[sc.Base].ACL
		for u := 0; u < sh.sessionLen; u++ {
			if len(vocab) > 0 {
				sc.Intents = append(sc.Intents, vocab[rng.Intn(len(vocab))])
			} else {
				sc.Intents = append(sc.Intents, loadgen.Intent(rng, acl))
			}
		}
		sc.AnswerSeed = rng.Int63()
		in.Scripts = append(in.Scripts, sc)
	}
	return in, nil
}

func (in *inputs) addBase(cfg *ios.Config, target string, acl bool) {
	text := cfg.Print()
	// Sessions start from the printed text, as a daemon session does, so
	// in-process and HTTP runs see the same parsed configuration.
	parsed, err := ios.Parse(text)
	if err != nil {
		panic(fmt.Sprintf("corpus config %s does not re-parse: %v", target, err))
	}
	in.Bases = append(in.Bases, base{Text: text, Cfg: parsed, Target: target, ACL: acl})
}

// digest hashes every input the program receives: base configurations,
// targets, intents and answer seeds. Equal digests mean equal inputs.
func (in *inputs) digest() string {
	h := sha256.New()
	var n [8]byte
	put := func(s string) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	for _, b := range in.Bases {
		put(b.Text)
		put(b.Target)
	}
	for _, s := range in.Scripts {
		put(fmt.Sprint(s.Base, s.AnswerSeed))
		for _, it := range s.Intents {
			put(it)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// updates is the number of updates in one pass over the scripts.
func (in *inputs) updates() int {
	n := 0
	for _, s := range in.Scripts {
		n += len(s.Intents)
	}
	return n
}
