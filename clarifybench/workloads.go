package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/clarifynet/clarify/server"
	"github.com/clarifynet/clarify/symbolic"
)

// load fixes an HTTP workload's traffic. The reference rung offers refRate
// for refShare of the run's seconds, over a thousand arrivals at the
// default 30 s, enough for a p99 with ten samples beyond it. The ladder's
// rungs offer fractions of the measured capacity, rungArrivals arrivals
// each (a p90 with ten beyond), until a rung's tail misses limitMs or its
// backlog grows.
type load struct {
	limitMs      float64
	refRate      float64
	refShare     float64
	rungArrivals int
	// lanes is the number of operators, each driving one session at a time.
	lanes int
}

// servedLoad is the traffic of both HTTP workloads, served and served-lb.
var servedLoad = load{limitMs: 150, refRate: 70, refShare: 0.6, rungArrivals: 150, lanes: 32}

// ladderFractions are the rungs, as fractions of the closed-loop capacity.
var ladderFractions = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// saturationShare is the share of the run's seconds the closed loop that
// measures capacity runs. Capacity is the median rate over
// saturationWindows equal windows of it, so one stall does not set it.
const (
	saturationShare   = 0.2
	saturationWindows = 4
)

// Script ranges: the reference rung and the ladder start at script 0, the
// capacity phase at saturationScripts and the traced run's second half at
// tracedScripts, so that no phase replays another's updates into the
// daemon's space cache.
const (
	saturationScripts = 400
	tracedScripts     = 700
)

// pollInterval paces server.Client's status and question polls, well below
// an update's service time so that the benchmark measures the daemon, not
// the client's poll floor (25 ms by default).
const pollInterval = 2 * time.Millisecond

// summarize sets the latency metrics and returns the accepted count.
func summarize(rep *report, samples []sample) int {
	var lat []time.Duration
	for _, s := range samples {
		if s.Err == "" {
			lat = append(lat, s.Lat)
		}
	}
	ms := msOf(lat)
	q, tail := tailQuantile(ms)
	rep.set("update_p50_ms", "ms", quantile(ms, 0.5))
	rep.set("update_p99_ms", "ms", tail)
	rep.notef("latency: n=%d p50=%.3fms p%g=%.3fms (the tail is the highest quantile with >=10 samples beyond it)",
		len(ms), quantile(ms, 0.5), q*100, tail)
	d := drift(samples)
	flag := "stationary"
	if d > driftLimit {
		flag = "DRIFTING: cost grows with run length"
	}
	rep.notef("stationarity: last/first quarter median latency = %.3f (%s)", d, flag)
	return len(lat)
}

// finish sets the correctness fields and the failure metric.
func finish(rep *report, rec *recorder, attempted, failed int) {
	wrong, err := rec.check()
	if err != nil {
		rep.notef("output checker: %d wrong output(s); first: %v", wrong, err)
	} else {
		rep.notef("output checker: %d update(s) checked, 0 wrong", len(rec.first))
	}
	failed += wrong
	rep.res.Attempted, rep.res.Failed = attempted, failed
	rep.res.Correct = wrong == 0
	rep.set("ok_frac", "ratio", 1-float64(failed)/float64(max(attempted, 1)))
}

func countFailed(ss []sample) (failed int, first string) {
	for _, s := range ss {
		if s.Err != "" {
			if failed == 0 {
				first = s.Err
			}
			failed++
		}
	}
	return failed, first
}

type inprocState struct {
	workload string
	in       *inputs
	cache    *symbolic.SpaceCache
}

// sessionCache is the space cache a new session uses. rm-replay shares one
// cache across all sessions. rm-grow gives every session its own: a run
// cycles through its finite script list several times, and a shared cache
// would turn those repeats into hits that open-vocabulary traffic never
// sees.
func (st inprocState) sessionCache() *symbolic.SpaceCache {
	if st.workload == "rm-grow" {
		return symbolic.NewSpaceCache()
	}
	return st.cache
}

func setupInproc(o opts) (inprocState, error) {
	in, err := genInputs(o.workload, o.seed)
	if err != nil {
		return inprocState{}, err
	}
	st := inprocState{workload: o.workload, in: in, cache: symbolic.NewSpaceCache()}
	// Warm-up: rm-replay fills the cache with one update per distinct
	// (base, intent) pair, as a long-running process would have; rm-grow
	// runs one session, since its spaces are never reused anyway.
	ctx := context.Background()
	seen := map[string]bool{}
	for idx, sc := range in.Scripts {
		k := fmt.Sprint(sc.Base, sc.Intents[0])
		if seen[k] || (o.workload == "rm-grow" && idx > 0) {
			continue
		}
		seen[k] = true
		s := newInprocSession(in, idx, st.sessionCache())
		for !s.done() {
			if smp, _ := s.next(ctx); smp.Err != "" {
				return st, fmt.Errorf("warm-up update failed: %s", smp.Err)
			}
		}
	}
	return st, nil
}

func runInproc(o opts) (*report, error) {
	st, setupS, err := medianSetup(setupRepeats, func() (inprocState, error) { return setupInproc(o) }, func(inprocState) {})
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceInproc(o, st)
	}
	ctx := context.Background()
	rep := &report{}
	rep.set("setup_s", "s", setupS)
	rep.notef("workload %s seed %d: input digest %s, %d scripts, %d updates per pass", o.workload, o.seed, st.in.digest(), len(st.in.Scripts), st.in.updates())
	mk := func(ctx context.Context, idx int) (session, error) {
		return newInprocSession(st.in, idx, st.sessionCache()), nil
	}
	rec := newRecorder()

	// Return the discarded set-ups' memory and restart the peak-RSS mark,
	// so that peak_rss_mb covers the measured loop alone.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	samples := closedLoop(ctx, o.nproc, time.Duration(o.seconds)*time.Second, len(st.in.Scripts), mk, rec)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	accepted := summarize(rep, samples)
	rep.set("updates_per_s", "1/s", float64(accepted)/elapsed.Seconds())
	rep.set("alloc_kb_per_update", "KiB", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(max(len(samples), 1)))
	cs := st.cache.Stats()
	rep.notef("closed loop: %d workers, %d updates in %.2fs; space cache %d hits / %d misses",
		o.nproc, len(samples), elapsed.Seconds(), cs.Hits, cs.Misses)

	if err := completePass(ctx, st.in, mk, rec); err != nil {
		return nil, err
	}
	qpu, lpu, n := rec.counts(allKeys(st.in))
	rep.set("questions_per_update", "count", qpu)
	rep.set("llm_calls_per_update", "count", lpu)
	rep.notef("exact counts over one pass of %d updates", n)
	// In process there is no admission queue to back up: the closed loop
	// with one worker per core is the saturation point, so the highest
	// sustainable rate is the closed-loop rate.
	rep.set("max_rate_per_s", "1/s", float64(accepted)/elapsed.Seconds())

	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", "MiB", rss)
	failed, firstErr := countFailed(samples)
	if failed > 0 {
		rep.notef("failed updates: %d; first: %s", failed, firstErr)
	}
	finish(rep, rec, len(samples), failed)
	return rep, nil
}

type servedState struct {
	in  *inputs
	f   *fleet
	c   *server.Client
	rec *recorder
	ls  *laneSet
}

func (st servedState) teardown() {
	if st.ls != nil {
		st.ls.close()
	}
	st.f.stop()
}

func setupServed(o opts) (servedState, error) {
	ctx := context.Background()
	in, err := genInputs(o.workload, o.seed)
	if err != nil {
		return servedState{}, err
	}
	f, err := startFleet(o.binDir, o.workDir, o.workload == "served-lb", o.nproc)
	if err != nil {
		return servedState{}, err
	}
	st := servedState{in: in, f: f, rec: newRecorder(),
		c: &server.Client{BaseURL: f.front, HTTP: f.hc, PollInterval: pollInterval}}
	mk := func(ctx context.Context, idx int) (session, error) {
		return newHTTPSession(ctx, in, idx, st.c, st.rec, nil)
	}
	lanes := servedLoad.lanes
	st.ls = newLaneSet(ctx, lanes, len(in.Scripts), 0, mk, st.rec)
	// Warm-up doubles as de-phasing: lane l first runs l mod sessionLen
	// updates of its session, untimed. Without it every lane would start
	// its sessions together, and the whole run would swing between young,
	// cheap sessions and old, dear ones.
	for l := 0; l < lanes; l++ {
		for i := 0; i < l%len(in.Scripts[0].Intents); i++ {
			if smp := st.ls.handle(ctx, l); smp.Err != "" {
				st.teardown()
				return st, fmt.Errorf("warm-up update failed: %s", smp.Err)
			}
		}
	}
	return st, nil
}

func runServed(o opts) (*report, error) {
	st, setupS, err := medianSetup(setupRepeats, func() (servedState, error) { return setupServed(o) }, servedState.teardown)
	if err != nil {
		return nil, err
	}
	defer st.teardown()
	if o.trace {
		return traceServed(o, st)
	}
	ctx := context.Background()
	rep := &report{}
	rep.set("setup_s", "s", setupS)
	rep.notef("workload %s seed %d: input digest %s, %d scripts of %d updates", o.workload, o.seed, st.in.digest(), len(st.in.Scripts), len(st.in.Scripts[0].Intents))
	l := servedLoad

	alloc0, err := st.f.totalAllocBytes(ctx)
	if err != nil {
		return nil, err
	}
	cpu0 := st.f.cpu()
	refArrivals := int(l.refRate * l.refShare * float64(o.seconds))
	sched := poissonSchedule(rand.New(rand.NewSource(o.seed)), l.refRate, refArrivals)
	t0 := time.Now()
	ol := runOpenLoop(ctx, sched, l.lanes, st.ls.handle)
	elapsed := time.Since(t0)
	alloc1, err := st.f.totalAllocBytes(ctx)
	if err != nil {
		return nil, err
	}
	samples := ol.Samples
	summarize(rep, samples)
	// Peak memory after the reference rung, a fixed amount of work; the
	// ladder's length varies with capacity.
	rss, err := peakRSSMB(st.f.daemon.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", "MiB", rss)
	cpu1 := st.f.cpu()
	if m, err := st.f.metrics(ctx); err == nil {
		stage := func(n string) float64 { return m.StagesMs[n].SumMs / float64(max(m.StagesMs[n].Count, 1)) }
		rep.notef("daemon: space cache %d hits / %d misses, %d idle; heap in use %.0f MiB; gc pause p99 %.2fms; stage means classify %.2f verify %.2f disambiguate %.2f synth %.2f",
			m.SpaceCache.Hits, m.SpaceCache.Misses, m.SpaceCache.Idle, float64(m.Runtime.HeapInUseBytes)/(1<<20), m.Runtime.GCPauseP99Ms,
			stage("classify"), stage("verify"), stage("disambiguate"), stage("synthesize-attempt"))
	}
	rep.notef("CPU ms per update at %.0f/s: clarifyd %.2f, clarify-lb %.2f, benchmark %.2f",
		l.refRate, (cpu1[0]-cpu0[0])*1000/float64(len(samples)), (cpu1[1]-cpu0[1])*1000/float64(len(samples)), (cpu1[2]-cpu0[2])*1000/float64(len(samples)))
	lag := msOf(ol.Lag)
	valid := "valid"
	if quantile(lag, 0.99) > float64(generatorLagLimit)/float64(time.Millisecond) {
		valid = "INVALID: the generator fell behind its schedule"
	}
	rep.notef("open loop at %.0f/s: %d arrivals in %.2fs, generator lag p50=%.3fms p99=%.3fms max=%.3fms (%s)",
		l.refRate, len(sched), elapsed.Seconds(), quantile(lag, 0.5), quantile(lag, 0.99), lag[len(lag)-1], valid)
	rep.set("alloc_kb_per_update", "KiB", (alloc1-alloc0)/1024/float64(max(len(samples), 1)))
	var ks []key
	for _, s := range samples {
		ks = append(ks, key{s.Script, s.Step})
	}
	qpu, lpu, _ := st.rec.counts(ks)
	rep.set("questions_per_update", "count", qpu)
	rep.set("llm_calls_per_update", "count", lpu)

	// Capacity: 2×nproc lanes each submit their next update as soon as the
	// last one is done, which keeps every daemon worker busy without a
	// storm of status polls.
	satLanes := 2 * o.nproc
	satTime := time.Duration(saturationShare * float64(o.seconds) * float64(time.Second))
	// Its lanes take consecutive scripts from their own range, so the
	// capacity phase holds every base in the same proportion in each run.
	satSet := newLaneSet(ctx, satLanes, len(st.in.Scripts), saturationScripts, st.ls.mk, st.rec)
	sat := saturate(ctx, satLanes, satTime, satSet.handle)
	satSet.close()
	failedSat, _ := countFailed(sat)
	capacity := windowedRate(sat, saturationWindows, satTime)
	rep.set("updates_per_s", "1/s", capacity)
	if failedSat > 0 {
		rep.notef("saturation: %d of %d updates failed (shed)", failedSat, len(sat))
	}

	// The ladder climbs in fractions of that capacity, so it brackets the
	// knee however fast the code is.
	ref := rung{Rate: l.refRate, Samples: samples, Lag: ol.Lag}
	ref.judge(l.limitMs)
	var rates []float64
	for _, f := range ladderFractions {
		rates = append(rates, f*capacity)
	}
	rungs := ladder(rates, l.limitMs, o.seed, l.rungArrivals, func(sched []time.Duration) openLoop {
		return runOpenLoop(ctx, sched, l.lanes, st.ls.handle)
	})
	rep.set("max_rate_per_s", "1/s", maxRate(rungs, l.limitMs))
	rep.notef("capacity %.1f/s (closed loop, %d lanes, %s); rate ladder (limit: tail <= %.0fms):\n  %s",
		capacity, satLanes, satTime, l.limitMs, fmtRungs(append([]rung{ref}, rungs...)))

	failed, firstErr := countFailed(samples)
	if failed > 0 {
		rep.notef("failed updates: %d; first: %s", failed, firstErr)
	}
	finish(rep, st.rec, len(samples), failed)
	return rep, nil
}
