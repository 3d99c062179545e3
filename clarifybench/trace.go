package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"github.com/clarifynet/clarify/atoms"
	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/ciscorx"
	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/intent"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/rx"
	"github.com/clarifynet/clarify/spec"
	"github.com/clarifynet/clarify/symbolic"
)

// layerMetrics are the per-layer metrics a traced run reports, with their
// units. Every traced run reports all of them; a layer the workload does not
// exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"ios.parse_ms", "ms"}, {"ios.parse_alloc_kb", "KiB"},
	{"llm.complete_ms", "ms"}, {"llm.calls.classify", "count"}, {"llm.calls.spec", "count"},
	{"llm.calls.synth", "count"}, {"llm.retry_frac", "ratio"}, {"intent.parse_ms", "ms"},
	{"spec.verify_ms", "ms"}, {"spec.violation_frac", "ratio"},
	{"symbolic.fingerprint_us", "us"}, {"symbolic.acquire_ms.hit", "ms"}, {"symbolic.acquire_ms.miss", "ms"},
	{"symbolic.hit_frac", "ratio"}, {"symbolic.encode_ms", "ms"}, {"symbolic.idle_spaces", "count"},
	{"rx.compile_ms", "ms"}, {"rx.dfa_states.raw", "count"}, {"rx.dfa_states.min", "count"},
	{"atoms.build_ms", "ms"}, {"atoms.path_atoms", "count"}, {"atoms.comm_atoms", "count"},
	{"bdd.nodes", "count"}, {"bdd.ite_calls", "count"}, {"bdd.unique_hit_frac", "ratio"},
	{"disambig.insert_ms", "ms"}, {"disambig.overlaps", "count"}, {"disambig.questions", "count"},
	{"disambig.ms_per_question", "ms"}, {"policy.eval_ms", "ms"},
	{"journal.append_ms", "ms"}, {"journal.bytes_per_update", "B"},
	{"tenant.dispatch_us", "us"}, {"tenant.queue_depth", "count"}, {"tenant.shed_frac", "ratio"},
	{"server.rtt_ms.create", "ms"}, {"server.rtt_ms.submit", "ms"}, {"server.rtt_ms.update", "ms"},
	{"server.rtt_ms.question", "ms"}, {"server.rtt_ms.answer", "ms"},
	{"server.requests_per_update", "count"}, {"server.poll_wasted_frac", "ratio"},
	{"lb.hop_ms.submit", "ms"}, {"lb.hop_ms.update", "ms"}, {"lb.hop_ms.question", "ms"},
	{"lb.hop_ms.answer", "ms"}, {"lb.retries", "count"},
	{"obs.overhead_frac", "ratio"}, {"obs.coverage", "ratio"},
	{"openloop.lag_p99_ms", "ms"}, {"run.drift_ratio", "ratio"},
}

// tally accumulates named sums over a traced run.
type tally map[string]float64

func (t tally) add(name string, v float64) { t[name] += v }

func (t tally) addDur(name string, d time.Duration) {
	t[name] += float64(d) / float64(time.Millisecond)
}

// layerReport fills the per-layer metrics and a self-time table.
func layerReport(rep *report, vals map[string]float64, self map[string]float64, untracedMs float64) {
	for _, m := range layerMetrics {
		rep.set(m.name, m.unit, vals[m.name])
	}
	names := make([]string, 0, len(self))
	total := 0.0
	for n, v := range self {
		names = append(names, n)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "self time per update (untraced update %.3fms):", untracedMs)
	for _, n := range names {
		fmt.Fprintf(&b, "\n  %-22s %9.3fms %6.1f%%", n, self[n], 100*self[n]/untracedMs)
	}
	fmt.Fprintf(&b, "\n  %-22s %9.3fms %6.1f%%", "sum (coverage)", total, 100*total/untracedMs)
	rep.notes = append(rep.notes, b.String())
}

// traceInproc is the traced run of an in-process workload. It first runs
// the scripts untraced on one worker, recording every update's inputs and
// outputs, then replays the recorded updates through the layers' public
// entry points in the order Session.Submit calls them, timing each call
// from outside. The replay must ship the same snippet, position and
// questions as Submit did.
func traceInproc(o opts, st inprocState) (*report, error) {
	ctx := context.Background()
	rep := &report{}
	half := time.Duration(o.seconds) * time.Second / 2
	rec := newRecorder()
	mk := func(ctx context.Context, idx int) (session, error) {
		return newInprocSession(st.in, idx, st.sessionCache()), nil
	}
	samples := closedLoop(ctx, 1, half, len(st.in.Scripts), mk, rec)
	d := drift(samples)

	// Replay the recorded updates in pass order until the time is up.
	var ks []key
	for k, f := range rec.first {
		if f.Out != nil && f.Sample.Err == "" {
			ks = append(ks, k)
		}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].Script != ks[j].Script {
			return ks[i].Script < ks[j].Script
		}
		return ks[i].Step < ks[j].Step
	})
	tr := &tracer{t: tally{}}
	deadline := time.Now().Add(half)
	var untraced, traced float64
	n := 0
	for _, k := range ks {
		if time.Now().After(deadline) && n > 0 {
			break
		}
		f := rec.first[k]
		cache := st.cache
		if o.workload == "rm-grow" {
			cache = symbolic.NewSpaceCache()
		}
		ms, err := tr.replay(ctx, f.Out, cache)
		if err != nil {
			return nil, fmt.Errorf("traced replay of script %d step %d: %w", k.Script, k.Step, err)
		}
		traced += ms
		untraced += float64(f.Sample.Lat) / float64(time.Millisecond)
		n++
	}
	rep.notef("traced run: %d updates untraced on one worker, %d replayed with spans; replay matched Submit on every one", len(samples), n)
	t := tr.t
	per := func(name string) float64 { return t[name] / float64(n) }
	ratio := func(a, b string) float64 {
		if t[b] == 0 {
			return 0
		}
		return t[a] / t[b]
	}
	vals := map[string]float64{
		"ios.parse_ms":             per("ios"),
		"ios.parse_alloc_kb":       per("ios.alloc_b") / 1024,
		"llm.complete_ms":          per("llm.total"),
		"llm.calls.classify":       per("llm.calls.classify"),
		"llm.calls.spec":           per("llm.calls.spec"),
		"llm.calls.synth":          per("llm.calls.synth"),
		"llm.retry_frac":           float64(tr.retries) / float64(n),
		"intent.parse_ms":          per("intent"),
		"spec.verify_ms":           per("spec.verify"),
		"spec.violation_frac":      ratio("spec.violations", "spec.verifies"),
		"symbolic.fingerprint_us":  1000 * ratio("symbolic.fingerprint", "symbolic.acquires"),
		"symbolic.acquire_ms.hit":  ratio("symbolic.hit_ms", "symbolic.hits"),
		"symbolic.acquire_ms.miss": ratio("symbolic.miss_ms", "symbolic.misses"),
		"symbolic.hit_frac":        ratio("symbolic.hits", "symbolic.acquires"),
		"symbolic.encode_ms":       per("symbolic.encode"),
		"rx.compile_ms":            per("rx"),
		"rx.dfa_states.raw":        per("rx.states.raw"),
		"rx.dfa_states.min":        per("rx.states.min"),
		"atoms.build_ms":           per("atoms.build"),
		"atoms.path_atoms":         ratio("atoms.path", "symbolic.misses"),
		"atoms.comm_atoms":         ratio("atoms.comm", "symbolic.misses"),
		"bdd.nodes":                per("bdd.nodes"),
		"bdd.ite_calls":            per("bdd.ite"),
		"bdd.unique_hit_frac":      ratio("bdd.unique_hits", "bdd.unique_lookups"),
		"disambig.insert_ms":       per("disambig"),
		"disambig.overlaps":        per("disambig.overlaps"),
		"disambig.questions":       per("disambig.questions"),
		"disambig.ms_per_question": ratio("disambig", "disambig.questions"),
		"policy.eval_ms":           per("policy.old") + per("policy.new"),
		"run.drift_ratio":          d,
	}
	if o.workload == "rm-replay" {
		vals["symbolic.idle_spaces"] = float64(st.cache.Stats().Idle)
	}
	untracedMs, tracedMs := untraced/float64(n), traced/float64(n)
	self := map[string]float64{
		"ios":      per("ios"),
		"llm":      per("llm.total") - per("intent"),
		"intent":   per("intent"),
		"spec":     per("spec.verify") + per("spec.parse"),
		"symbolic": per("symbolic.fingerprint") + per("symbolic.hit_ms") + per("symbolic.encode"),
		"rx":       per("rx"),
		"atoms":    per("atoms.build") - per("rx"),
		"disambig": per("disambig") - per("policy.old"),
		"policy":   per("policy.old"),
		"glue":     per("glue"),
	}
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	vals["obs.overhead_frac"] = tracedMs/untracedMs - 1
	vals["obs.coverage"] = sum / untracedMs
	layerReport(rep, vals, self, untracedMs)
	wrong, firstErr := rec.check()
	if wrong > 0 {
		rep.notef("output checker: %d wrong output(s); first: %v", wrong, firstErr)
	}
	rep.res.Correct, rep.res.Attempted, rep.res.Failed = wrong == 0, len(samples), wrong
	return rep, nil
}

// tracer replays updates with a span around each layer call.
type tracer struct {
	t       tally
	retries int
}

// allocBytes reads the process's cumulative heap allocation without
// stopping the world.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// replay re-executes one recorded route-map update and returns the traced
// pipeline time in ms: the replay's wall time minus the side measurements
// that repeat work to split a layer (intent parses, pattern compiles,
// atoms builds, policy evaluations on the final config).
func (tr *tracer) replay(ctx context.Context, o *output, cache *symbolic.SpaceCache) (float64, error) {
	t := tr.t
	start := time.Now()
	var side time.Duration
	// sidecar times f and excludes it from the pipeline time.
	sidecar := func(f func()) time.Duration {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		side += d
		return d
	}
	var spans time.Duration
	span := func(name string, f func()) {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		spans += d
		t.addDur(name, d)
	}
	sim, store := llm.NewSimLLM(), llm.NewPromptStore()
	complete := func(task llm.Task, counter string, turns ...llm.Message) (llm.Response, error) {
		var resp llm.Response
		var err error
		span("llm.total", func() { resp, err = sim.Complete(ctx, store.BuildRequest(task, turns...)) })
		t.add(counter, 1)
		return resp, err
	}
	user := llm.Message{Role: llm.RoleUser, Content: o.Intent}

	resp, err := complete(llm.TaskClassify, "llm.calls.classify", user)
	if err != nil {
		return 0, err
	}
	t.addDur("intent", sidecar(func() { intent.ClassifyText(o.Intent) }))
	if strings.TrimSpace(resp.Content) != "route-map" {
		return 0, fmt.Errorf("classified as %q", resp.Content)
	}
	specResp, err := complete(llm.TaskSpecRouteMap, "llm.calls.spec", user)
	if err != nil {
		return 0, err
	}
	t.addDur("intent", sidecar(func() { _, _ = intent.ParseRouteMapText(o.Intent) }))
	var rmSpec *spec.RouteMapSpec
	span("spec.parse", func() { rmSpec, err = spec.ParseRouteMapSpec([]byte(specResp.Content)) })
	if err != nil {
		return 0, err
	}

	turns := []llm.Message{user}
	var snippet *ios.Config
	var snippetText, name string
	for attempt := 1; snippet == nil; attempt++ {
		if attempt > 1 {
			tr.retries++
		}
		if attempt > 3 {
			return 0, fmt.Errorf("synthesis punted")
		}
		resp, err := complete(llm.TaskSynthRouteMap, "llm.calls.synth", turns...)
		if err != nil {
			return 0, err
		}
		t.addDur("intent", sidecar(func() { _, _ = intent.ParseRouteMapText(o.Intent) }))
		snippetText = resp.Content
		var parsed *ios.Config
		a0 := allocBytes()
		span("ios", func() {
			parsed, err = ios.Parse(snippetText)
			if err == nil {
				err = parsed.Validate()
			}
		})
		t.add("ios.alloc_b", allocBytes()-a0)
		if err != nil {
			return 0, fmt.Errorf("snippet: %w", err)
		}
		names := keys(parsed.RouteMaps)
		if name, err = soleName(len(names), names); err != nil {
			return 0, err
		}
		specCfg, _, err := rmSpec.ToConfig("SPEC")
		if err != nil {
			return 0, err
		}
		space, err := tr.acquire(cache, &spans, sidecar, parsed, specCfg)
		if err != nil {
			return 0, err
		}
		var violations []spec.Violation
		before := space.Pool.Counters()
		span("spec.verify", func() { violations, err = spec.VerifyRouteMapSnippetCached(cache, parsed, name, rmSpec) })
		tr.pool(space, before)
		if err != nil {
			return 0, err
		}
		t.add("spec.verifies", 1)
		if len(violations) > 0 {
			t.add("spec.violations", 1)
			turns = append(turns, llm.Message{Role: llm.RoleAssistant, Content: snippetText},
				llm.Message{Role: llm.RoleUser, Content: "The previous stanza does not meet the specification." + llm.FeedbackIntentMarker + o.Intent})
			continue
		}
		snippet = parsed
	}
	if snippetText != o.SnippetText {
		return 0, fmt.Errorf("replay synthesized a different snippet")
	}

	// Disambiguation. Its space is keyed on the merged configuration, whose
	// list patterns the recorded final configuration shares; acquiring it
	// first splits the space build from the search.
	newStanza := o.Final.RouteMaps[o.Target].Stanzas[o.Position]
	wrapper := ios.NewConfig()
	wrapper.AddRouteMap("__NEW__").Stanzas = []*ios.Stanza{newStanza}
	space, err := tr.acquire(cache, &spans, sidecar, o.Final, wrapper)
	if err != nil {
		return 0, err
	}
	statsBefore := cache.Stats()
	var oracleTime time.Duration
	asked := 0
	oracle := disambig.FuncRouteOracle(func(q disambig.RouteQuestion) (bool, error) {
		t0 := time.Now()
		defer func() { oracleTime += time.Since(t0) }()
		if asked >= len(o.Questions) {
			return false, fmt.Errorf("replay asked more questions than Submit")
		}
		chosen := o.Questions[asked].Chosen
		asked++
		switch chosen {
		case renderRouteVerdict(q.NewVerdict):
			return true, nil
		case renderRouteVerdict(q.OldVerdict):
			return false, nil
		}
		return false, fmt.Errorf("replay question %d differs from Submit's", asked)
	})
	var res *disambig.RouteResult
	before := space.Pool.Counters()
	var strategy disambig.Strategy
	t0 := time.Now()
	res, err = disambig.InsertRouteMapStanzaStrategyCached(strategy, cache, o.Pre, o.Target, snippet, name, oracle)
	insert := time.Since(t0) - oracleTime
	spans += insert
	t.addDur("disambig", insert)
	t.addDur("glue", oracleTime)
	tr.pool(space, before)
	if err != nil {
		return 0, err
	}
	if cache.Stats().Misses != statsBefore.Misses {
		return 0, fmt.Errorf("disambiguation built its own space; the split is off")
	}
	if res.Position != o.Position || len(res.Questions) != len(o.Questions) {
		return 0, fmt.Errorf("replay placed at %d after %d questions, Submit at %d after %d",
			res.Position, len(res.Questions), o.Position, len(o.Questions))
	}
	t.add("disambig.overlaps", float64(len(res.Overlaps)))
	t.add("disambig.questions", float64(len(res.Questions)))
	// Policy: the concrete evaluator on each question's witness, on the old
	// configuration with one evaluator per update as disambiguation does,
	// and on the new one.
	rmOld, rmNew := o.Pre.RouteMaps[o.Target], res.Config.RouteMaps[o.Target]
	t.addDur("policy.old", sidecar(func() {
		ev := policy.NewEvaluator(o.Pre)
		for _, q := range res.Questions {
			_, _ = ev.EvalRouteMap(rmOld, q.Input)
		}
	}))
	t.addDur("policy.new", sidecar(func() {
		ev := policy.NewEvaluator(res.Config)
		for _, q := range res.Questions {
			_, _ = ev.EvalRouteMap(rmNew, q.Input)
		}
	}))
	wall := time.Since(start) - side
	t.addDur("glue", wall-spans-oracleTime)
	return float64(wall) / float64(time.Millisecond), nil
}

// pool records the BDD work a call did on space since before.
func (tr *tracer) pool(space *symbolic.RouteSpace, before bdd.Counters) {
	c := space.Pool.Counters().Sub(before)
	tr.t.add("bdd.nodes", float64(space.Pool.Size()))
	tr.t.add("bdd.ite", float64(c.ITECalls))
	tr.t.add("bdd.unique_hits", float64(c.UniqueHits))
	tr.t.add("bdd.unique_lookups", float64(c.UniqueHits+c.UniqueMisses))
}

// acquire fingerprints cfgs and acquires their space from cache, then
// releases it, so that the layer call that follows finds it idle and its
// own Acquire is a hit. On a miss it splits the build from outside: it
// compiles and minimizes every pattern (rx) and rebuilds both atom
// universes (atoms) on the side; the rest of the miss is the BDD encoding.
func (tr *tracer) acquire(cache *symbolic.SpaceCache, spans *time.Duration, sidecar func(func()) time.Duration, cfgs ...*ios.Config) (*symbolic.RouteSpace, error) {
	t := tr.t
	t0 := time.Now()
	symbolic.Fingerprint(cfgs...)
	fp := time.Since(t0)
	hits := cache.Stats().Hits
	t1 := time.Now()
	space, err := cache.Acquire(cfgs...)
	acq := time.Since(t1)
	*spans += fp + acq
	if err != nil {
		return nil, err
	}
	cache.Release(space)
	t.addDur("symbolic.fingerprint", fp)
	t.add("symbolic.acquires", 1)
	if cache.Stats().Hits > hits {
		t.add("symbolic.hits", 1)
		t.addDur("symbolic.hit_ms", acq)
		return space, nil
	}
	t.add("symbolic.misses", 1)
	t.addDur("symbolic.miss_ms", acq)
	path, comm := patterns(cfgs)
	var compile, build time.Duration
	for _, set := range []struct {
		pats  []string
		comp  func(string) (*rx.DFA, error)
		valid *rx.DFA
		atoms string
	}{
		{path, ciscorx.CompilePath, ciscorx.ValidPath(), "atoms.path"},
		{comm, ciscorx.CompileCommunity, ciscorx.ValidCommunity(), "atoms.comm"},
	} {
		for _, p := range set.pats {
			var dfa *rx.DFA
			compile += sidecar(func() { dfa, _ = set.comp(p) })
			if dfa != nil {
				t.add("rx.states.raw", float64(dfa.NumStates()))
				t.add("rx.states.min", float64(dfa.Minimize().NumStates()))
			}
		}
		var u *atoms.Universe
		build += sidecar(func() { u, _ = atoms.Build(set.pats, set.comp, set.valid) })
		if u != nil {
			t.add(set.atoms, float64(len(u.Atoms)))
		}
	}
	t.addDur("rx", compile)
	t.addDur("atoms.build", build)
	// The side builds repeat the in-pipeline ones; noise can make them the
	// longer of the two.
	t.addDur("symbolic.encode", max(acq-build, 0))
	return space, nil
}

// patterns collects the as-path and community patterns a route space is
// built over, as symbolic.NewRouteSpace does.
func patterns(cfgs []*ios.Config) (path, comm []string) {
	for _, cfg := range cfgs {
		for _, n := range sortedKeys(cfg.ASPathLists) {
			for _, e := range cfg.ASPathLists[n].Entries {
				path = append(path, e.Regex)
			}
		}
		for _, n := range sortedKeys(cfg.CommunityLists) {
			l := cfg.CommunityLists[n]
			for _, e := range l.Entries {
				if l.Expanded {
					comm = append(comm, e.Values[0])
					continue
				}
				for _, v := range e.Values {
					comm = append(comm, "^"+v+"$")
				}
			}
		}
		for _, n := range sortedKeys(cfg.RouteMaps) {
			for _, st := range cfg.RouteMaps[n].Stanzas {
				for _, s := range st.Sets {
					if sc, ok := s.(ios.SetCommunity); ok {
						for _, v := range sc.Communities {
							comm = append(comm, "^"+v+"$")
						}
					}
				}
			}
		}
	}
	return path, comm
}

func sortedKeys[V any](m map[string]V) []string {
	out := keys(m)
	sort.Strings(out)
	return out
}
