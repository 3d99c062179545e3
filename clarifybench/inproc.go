package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/packet"
	"github.com/clarifynet/clarify/route"
	"github.com/clarifynet/clarify/symbolic"
)

// answered is one question the operator saw: its witness input and the
// behaviour of the option chosen, rendered as clarifyd renders options.
type answered struct {
	Route  *route.Route
	Packet *packet.Packet
	Chosen string
}

// output is what one update shipped, in the form the checker needs. Pre is
// the configuration the update ran against.
type output struct {
	Target      string
	ACL         bool
	Intent      string
	Pre         *ios.Config
	SnippetText string
	SpecJSON    string
	Position    int
	Renames     map[string]string
	Questions   []answered
	// Final is the configuration the update produced; over HTTP only its
	// text is kept until the checker parses it.
	Final     *ios.Config
	FinalText string
}

// digest summarises an output so that repeats of one update can be compared
// with the first, fully checked, execution without keeping every config.
func (o *output) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d", o.SnippetText, o.SpecJSON, o.Position, len(o.Questions))
	for _, q := range o.Questions {
		fmt.Fprintf(h, "\x00%s", q.Chosen)
	}
	keys := make([]string, 0, len(o.Renames))
	for k := range o.Renames {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "\x00%s=%s", k, o.Renames[k])
	}
	return h.Sum64()
}

// sample is one timed update.
type sample struct {
	Script, Step int
	// Due is when the update was due (open loop) or started (closed loop);
	// End is when it reached its terminal state, and Lat = End - Due.
	Due, End  time.Time
	Lat       time.Duration
	Questions int
	LLMCalls  int
	Digest    uint64
	Err       string
}

// inprocSession runs one script's updates in order against a fresh
// clarify.Session, as one operator would.
type inprocSession struct {
	in    *inputs
	idx   int
	sess  *clarify.Session
	rng   *rand.Rand
	step  int
	asked []answered
}

func newInprocSession(in *inputs, idx int, cache *symbolic.SpaceCache) *inprocSession {
	sc := in.Scripts[idx]
	s := &inprocSession{in: in, idx: idx, rng: rand.New(rand.NewSource(sc.AnswerSeed))}
	s.sess = &clarify.Session{
		Client:     llm.NewSimLLM(),
		Config:     in.Bases[sc.Base].Cfg,
		SpaceCache: cache,
		RouteOracle: disambig.FuncRouteOracle(func(q disambig.RouteQuestion) (bool, error) {
			preferNew, v := s.answer(), q.OldVerdict
			if preferNew {
				v = q.NewVerdict
			}
			s.asked = append(s.asked, answered{Route: &q.Input, Chosen: renderRouteVerdict(v)})
			return preferNew, nil
		}),
		ACLOracle: disambig.FuncACLOracle(func(q disambig.ACLQuestion) (bool, error) {
			preferNew, permit := s.answer(), q.OldPermit
			if preferNew {
				permit = q.NewPermit
			}
			s.asked = append(s.asked, answered{Packet: &q.Input, Chosen: renderACLAction(permit)})
			return preferNew, nil
		}),
	}
	return s
}

// answer picks OPTION 1 or 2 uniformly, as loadgen's operators do.
func (s *inprocSession) answer() bool { return s.rng.Intn(2) == 0 }

func (s *inprocSession) close() {}

func (s *inprocSession) done() bool { return s.step >= len(s.in.Scripts[s.idx].Intents) }

// next runs the script's next update. The returned sample's latency is the
// Submit wall time; the output is for the checker.
func (s *inprocSession) next(ctx context.Context) (sample, *output) {
	sc := s.in.Scripts[s.idx]
	b := s.in.Bases[sc.Base]
	intentText := sc.Intents[s.step]
	smp := sample{Script: s.idx, Step: s.step}
	s.step++
	s.asked = nil
	pre := s.sess.CurrentConfig()
	calls := s.sess.Stats().LLMCalls
	t0 := time.Now()
	res, err := s.sess.Submit(ctx, intentText, b.Target)
	smp.Due, smp.End = t0, time.Now()
	smp.Lat = smp.End.Sub(t0)
	smp.LLMCalls = s.sess.Stats().LLMCalls - calls
	smp.Questions = len(s.asked)
	if err != nil {
		smp.Err = err.Error()
		return smp, nil
	}
	out := &output{
		Target: b.Target, ACL: b.ACL, Intent: intentText, Pre: pre,
		SnippetText: res.SnippetText, SpecJSON: res.SpecJSON,
		Questions: s.asked, Final: res.Config,
	}
	if res.RouteInsert != nil {
		out.Position, out.Renames = res.RouteInsert.Position, res.RouteInsert.Renames
	}
	if res.ACLInsert != nil {
		out.Position = res.ACLInsert.Position
	}
	smp.Digest = out.digest()
	return smp, out
}
