package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/clarifynet/clarify/journal"
	"github.com/clarifynet/clarify/server"
	"github.com/clarifynet/clarify/tenant"
)

// callTally times server.Client calls by name; it implements callTimer.
type callTally struct {
	mu      sync.Mutex
	ms      tally
	n       tally
	changed tally
}

func newCallTally() *callTally {
	return &callTally{ms: tally{}, n: tally{}, changed: tally{}}
}

func (c *callTally) observe(call string, d time.Duration, changed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ms.addDur(call, d)
	c.n.add(call, 1)
	if changed {
		c.changed.add(call, 1)
	}
}

// mean is the mean round trip of one call kind, in ms.
func (c *callTally) mean(call string) float64 {
	if c.n[call] == 0 {
		return 0
	}
	return c.ms[call] / c.n[call]
}

// traceServed is the traced run of an HTTP workload. An untraced open loop
// at the reference rate is followed by a traced one at the same rate on
// other scripts, in which every server.Client call is timed. /metrics is
// read before and after, and the journal append and the fair queue's
// dispatch are timed on the side at the run's record size and queue depth.
// On served-lb, sessions of even scripts talk to the replica directly, so
// that the balancer hop is the difference between the two paths.
func traceServed(o opts, st servedState) (*report, error) {
	ctx := context.Background()
	rep := &report{}
	l := servedLoad
	n := int(l.refRate * l.refShare * float64(o.seconds) / 2)
	ol := runOpenLoop(ctx, poissonSchedule(rand.New(rand.NewSource(o.seed)), l.refRate, n), l.lanes, st.ls.handle)
	untraced := meanLatencyMs(ol.Samples)

	timer := newCallTally()
	lbRun := o.workload == "served-lb"
	direct := &server.Client{BaseURL: st.f.direct, HTTP: st.f.hc, PollInterval: pollInterval}
	viaLB := &server.Client{BaseURL: st.f.front, HTTP: st.f.hc, PollInterval: pollInterval}
	mk := func(ctx context.Context, idx int) (session, error) {
		if lbRun && idx%2 == 1 {
			return newHTTPSession(ctx, st.in, idx, viaLB, st.rec, suffixed{timer, ".lb"})
		}
		return newHTTPSession(ctx, st.in, idx, direct, st.rec, timer)
	}
	m0, err := st.f.metrics(ctx)
	if err != nil {
		return nil, err
	}
	lb0 := st.f.lbErrors(ctx)
	ls := newLaneSet(ctx, l.lanes, len(st.in.Scripts), tracedScripts, mk, st.rec)
	depths := st.f.sampleQueueDepth(ctx, 250*time.Millisecond)
	tol := runOpenLoop(ctx, poissonSchedule(rand.New(rand.NewSource(o.seed+1)), l.refRate, n), l.lanes, ls.handle)
	depth := depths()
	ls.close()
	m1, err := st.f.metrics(ctx)
	if err != nil {
		return nil, err
	}
	traced := meanLatencyMs(tol.Samples)
	updates := float64(len(tol.Samples))
	wrong, firstErr := st.rec.check()
	if wrong > 0 {
		return nil, fmt.Errorf("output checker: %d wrong outputs; first: %v", wrong, firstErr)
	}

	vals := map[string]float64{"tenant.queue_depth": depth}
	calls := []string{"create", "submit", "update", "question", "answer"}
	requests := 0.0
	for _, c := range calls {
		vals["server.rtt_ms."+c] = timer.mean(c)
		requests += timer.n[c] + timer.n[c+".lb"]
		if lbRun && c != "create" {
			vals["lb.hop_ms."+c] = timer.mean(c+".lb") - timer.mean(c)
		}
	}
	vals["server.requests_per_update"] = requests / updates
	if polls := timer.n["update"] + timer.n["update.lb"]; polls > 0 {
		vals["server.poll_wasted_frac"] = 1 - (timer.changed["update"]+timer.changed["update.lb"])/polls
	}
	if lbRun {
		vals["lb.retries"] = st.f.lbErrors(ctx) - lb0
	}
	if m0.Journal != nil && m1.Journal != nil && m1.Journal.Appended > m0.Journal.Appended {
		vals["journal.bytes_per_update"] = float64(m1.Journal.Bytes-m0.Journal.Bytes) / float64(m1.Journal.Appended-m0.Journal.Appended)
		ms, err := journalAppendMs(o.workDir, st, vals["journal.bytes_per_update"])
		if err != nil {
			return nil, err
		}
		vals["journal.append_ms"] = ms
	}
	vals["tenant.dispatch_us"] = dispatchUs(int(math.Round(depth)))
	if m1.Queue != nil && m0.Queue != nil {
		pushed := float64(m1.Queue.Pushed - m0.Queue.Pushed)
		shed := float64(m1.Queue.ShedOverload+m1.Queue.ShedFull-m0.Queue.ShedOverload-m0.Queue.ShedFull) + float64(m1.Rejected-m0.Rejected)
		if pushed+shed > 0 {
			vals["tenant.shed_frac"] = shed / (pushed + shed)
		}
	}
	hits, misses := float64(m1.SpaceCache.Hits-m0.SpaceCache.Hits), float64(m1.SpaceCache.Misses-m0.SpaceCache.Misses)
	if hits+misses > 0 {
		vals["symbolic.hit_frac"] = hits / (hits + misses)
	}
	vals["symbolic.idle_spaces"] = float64(m1.SpaceCache.Idle)
	lag := msOf(tol.Lag)
	vals["openloop.lag_p99_ms"] = quantile(lag, 0.99)
	vals["run.drift_ratio"] = drift(tol.Samples)
	vals["obs.overhead_frac"] = traced/untraced - 1

	// Client-side timeline of an update: round trips, poll sleeps, and the
	// rest (waiting for its lane, client glue).
	self := map[string]float64{"poll sleep": (timer.ms["sleep"] + timer.ms["sleep.lb"]) / updates}
	for _, c := range calls[1:] {
		self["server "+c] = (timer.ms[c] + timer.ms[c+".lb"]) / updates
	}
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	vals["obs.coverage"] = sum / traced
	layerReport(rep, vals, self, traced)
	rep.notef("daemon stage means over the traced run (ms, overlapping the round trips above): %s", stageMeans(m0, m1))
	rep.notef("traced run: %d arrivals untraced (mean %.3fms), %d traced (mean %.3fms)", n, untraced, len(tol.Samples), traced)
	rep.res.Correct, rep.res.Attempted = true, len(ol.Samples)+len(tol.Samples)
	for _, s := range append(ol.Samples, tol.Samples...) {
		if s.Err != "" {
			rep.res.Failed++
		}
	}
	return rep, nil
}

// suffixed tags a timer's call names, to keep two paths apart.
type suffixed struct {
	t   callTimer
	suf string
}

func (s suffixed) observe(call string, d time.Duration, changed bool) {
	s.t.observe(call+s.suf, d, changed)
}

func meanLatencyMs(ss []sample) float64 {
	sum, n := 0.0, 0
	for _, s := range ss {
		if s.Err == "" {
			sum += float64(s.Lat) / float64(time.Millisecond)
			n++
		}
	}
	return sum / float64(max(n, 1))
}

func stageMeans(m0, m1 server.MetricsSnapshot) string {
	var parts []string
	for _, st := range []string{"classify", "spec-extract", "synthesize-attempt", "parse", "verify", "disambiguate", "question-wait", "insert"} {
		h1, h0 := m1.StagesMs[st], m0.StagesMs[st]
		if c := h1.Count - h0.Count; c > 0 {
			parts = append(parts, fmt.Sprintf("%s %.3f", st, (h1.SumMs-h0.SumMs)/float64(c)))
		}
	}
	return strings.Join(parts, ", ")
}

// sampleQueueDepth polls the replica's queue depth every period until the
// returned function is called, which stops the poller and returns the mean.
func (f *fleet) sampleQueueDepth(ctx context.Context, period time.Duration) func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		sum, n := 0.0, 0
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- sum / float64(max(n, 1))
				return
			case <-t.C:
				if m, err := f.metrics(ctx); err == nil {
					sum += float64(m.QueueDepth)
					n++
				}
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// lbErrors is the balancer's count of failed proxy attempts (5xx answers
// and transport errors), or 0 without a balancer.
func (f *fleet) lbErrors(ctx context.Context) float64 {
	if f.lb == nil {
		return 0
	}
	var m struct {
		Backends []struct {
			Errors5xx       int64 `json:"errors5xx"`
			TransportErrors int64 `json:"transportErrors"`
		} `json:"backends"`
	}
	if err := getJSON(ctx, &server.Client{BaseURL: f.front, HTTP: f.hc}, "/metrics", &m); err != nil {
		return 0
	}
	total := 0.0
	for _, b := range m.Backends {
		total += float64(b.Errors5xx + b.TransportErrors)
	}
	return total
}

// journalAppendMs times journal.Append under the daemon's default options
// on records of the run's mean size, built from the run's own inputs.
func journalAppendMs(workDir string, st servedState, bytes float64) (float64, error) {
	dir, err := os.MkdirTemp(workDir, "journal-side-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		return 0, err
	}
	const records = 200
	var total time.Duration
	for i := 0; i < records; i++ {
		sc := st.in.Scripts[i%len(st.in.Scripts)]
		b := st.in.Bases[sc.Base]
		r := &journal.Record{Time: time.Now(), Intent: sc.Intents[0], Target: b.Target, BaseConfig: b.Text}
		if pad := int(bytes) - len(b.Text) - len(sc.Intents[0]) - 200; pad > 0 {
			r.FinalConfig = b.Text + strings.Repeat("!", max(pad-len(b.Text), 0))
		}
		t0 := time.Now()
		if err := j.Append(r); err != nil {
			j.Close()
			return 0, err
		}
		total += time.Since(t0)
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	return float64(total) / float64(time.Millisecond) / records, nil
}

// dispatchUs times one Push plus Next on the daemon's fair queue held at
// the given depth.
func dispatchUs(depth int) float64 {
	q := tenant.NewQueue(tenant.QueueConfig{Capacity: 4096})
	defer q.Close()
	noop := func() {}
	for i := 0; i < depth; i++ {
		q.Push(fmt.Sprintf("t%d", i%4), 1, tenant.Bulk, noop, nil)
	}
	const ops = 20000
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		q.Push(fmt.Sprintf("t%d", i%4), 1, tenant.Bulk, noop, nil)
		q.Next()
	}
	return float64(time.Since(t0)) / float64(time.Microsecond) / ops
}
