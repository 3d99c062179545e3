package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// poissonSchedule draws the due offsets of the first n arrivals of a
// Poisson process at rate per second. Fixing the count rather than the
// duration fixes which tail quantile a run can report.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// laneHandler serves one arrival on its lane. Arrivals of one lane are
// handed to it in order, one at a time; lanes run concurrently. It fills in
// everything of the sample except Due and Lat; End is when the update
// reached its terminal state, and may precede work the handler does after.
type laneHandler func(ctx context.Context, lane int) sample

// openLoop is the result of one open-loop run.
type openLoop struct {
	Samples []sample
	// Lag is, per arrival, how late the generator dispatched it.
	Lag []time.Duration
}

// runOpenLoop dispatches arrival i at start+sched[i] to lane i%lanes. Each
// arrival is timed from when it was due, not from when its lane got to it,
// so a stall is charged to every arrival queued behind it. It returns once
// every arrival has been served.
func runOpenLoop(ctx context.Context, sched []time.Duration, lanes int, handle laneHandler) openLoop {
	queues := make([]chan int, lanes)
	for l := range queues {
		// Sized to the arrivals this lane will receive, so the generator
		// never blocks on a slow lane.
		queues[l] = make(chan int, len(sched)/lanes+1)
	}
	res := openLoop{Samples: make([]sample, len(sched)), Lag: make([]time.Duration, len(sched))}
	start := time.Now()
	var wg sync.WaitGroup
	for l := range queues {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := range queues[l] {
				due := start.Add(sched[i])
				s := handle(ctx, l)
				s.Due, s.Lat = due, s.End.Sub(due)
				res.Samples[i] = s
			}
		}(l)
	}
	timer := time.NewTimer(0)
	<-timer.C
	for i, off := range sched {
		if wait := time.Until(start.Add(off)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		res.Lag[i] = time.Since(start.Add(off))
		queues[i%lanes] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return res
}

// rung is one step of a rate ladder.
type rung struct {
	Rate    float64
	Samples []sample
	Lag     []time.Duration
	// Tail is the latency at quantile TailQ (see tailQuantile), in ms.
	TailQ, Tail float64
	Failed      int
	Drift       float64
	// LagP99Ms is the generator's p99 lateness.
	LagP99Ms float64
	Pass     bool
}

// generatorLagLimit is how late the generator may dispatch before a run is
// marked invalid: past it, the generator rather than the system under test
// fell behind.
const generatorLagLimit = 5 * time.Millisecond

func (r *rung) judge(limitMs float64) {
	var lat []time.Duration
	for _, s := range r.Samples {
		if s.Err != "" {
			r.Failed++
			continue
		}
		lat = append(lat, s.Lat)
	}
	ms := msOf(lat)
	r.TailQ, r.Tail = tailQuantile(ms)
	r.Drift = drift(r.Samples)
	lag := msOf(r.Lag)
	r.LagP99Ms = quantile(lag, 0.99)
	// A rung passes when its tail meets the limit, nothing failed, and the
	// backlog did not grow: the median of the rung's last quarter stays
	// under half the limit.
	r.Pass = len(ms) > 0 && r.Tail <= limitMs && r.Failed == 0 && lastQuarterMedian(r.Samples) <= limitMs/2
}

// lastQuarterMedian is the median latency, in ms, of the last quarter of
// the accepted samples by due time.
func lastQuarterMedian(ss []sample) float64 {
	var ok []sample
	for _, s := range ss {
		if s.Err == "" {
			ok = append(ok, s)
		}
	}
	sortSamples(ok)
	var lat []time.Duration
	for _, s := range ok[len(ok)*3/4:] {
		lat = append(lat, s.Lat)
	}
	return quantile(msOf(lat), 0.5)
}

// ladder runs rates in order, n arrivals each, stopping after the first
// rung that fails. run executes one rung's schedule.
func ladder(rates []float64, limitMs float64, seed int64, n int, run func(sched []time.Duration) openLoop) []rung {
	var out []rung
	for k, rate := range rates {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(k)))
		ol := run(poissonSchedule(rng, rate, n))
		r := rung{Rate: rate, Samples: ol.Samples, Lag: ol.Lag}
		r.judge(limitMs)
		out = append(out, r)
		if !r.Pass {
			break
		}
	}
	return out
}

// maxRate is the highest sustainable rate a ladder shows: the last passing
// rung's rate, refined by interpolating the tail latency linearly towards
// the limit between it and the first failing rung, so that the estimate
// does not jump a whole rung on noise. When even the first rung fails, it
// is that rung's rate scaled by limit/tail, or halved when the rung failed
// on errors or a growing backlog rather than on its tail.
func maxRate(rungs []rung, limitMs float64) float64 {
	last := -1
	for i, r := range rungs {
		if !r.Pass {
			break
		}
		last = i
	}
	if last < 0 {
		r := rungs[0]
		if r.Tail > limitMs {
			return r.Rate * limitMs / r.Tail
		}
		return r.Rate / 2
	}
	lo := rungs[last]
	if last+1 >= len(rungs) {
		return lo.Rate
	}
	hi := rungs[last+1]
	if hi.Tail <= lo.Tail || hi.Tail <= limitMs || hi.Failed > 0 {
		return lo.Rate
	}
	f := (limitMs - lo.Tail) / (hi.Tail - lo.Tail)
	return lo.Rate + (hi.Rate-lo.Rate)*math.Max(0, math.Min(1, f))
}

// sortSamples orders samples by due time.
func sortSamples(ss []sample) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Due.Before(ss[j].Due) })
}
