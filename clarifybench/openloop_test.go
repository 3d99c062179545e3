package main

import (
	"context"
	"testing"
	"time"
)

// A handler that stalls must charge the stall to every arrival queued
// behind it, because arrivals are timed from when they were due, while the
// generator itself stays on schedule.
func TestOpenLoopChargesStallToQueuedArrivals(t *testing.T) {
	const (
		gap   = 10 * time.Millisecond
		stall = 200 * time.Millisecond
		n     = 40
		slow  = 5
	)
	sched := make([]time.Duration, n)
	for i := range sched {
		sched[i] = time.Duration(i) * gap
	}
	served := 0
	handle := func(ctx context.Context, lane int) sample {
		if served == slow {
			time.Sleep(stall)
		}
		served++
		return sample{End: time.Now()}
	}
	ol := runOpenLoop(context.Background(), sched, 1, handle)

	if got := ol.Samples[slow].Lat; got < stall {
		t.Fatalf("stalled arrival latency %v, want >= %v", got, stall)
	}
	// Arrival slow+k was due k gaps after the stalled one began, so it
	// waited out the rest of the stall.
	for k := 1; k*int(gap) < int(stall); k++ {
		want := stall - time.Duration(k)*gap
		if got := ol.Samples[slow+k].Lat; got < want {
			t.Errorf("arrival %d queued behind the stall: latency %v, want >= %v", slow+k, got, want)
		}
	}
	// Once the backlog has drained, arrivals are fast again.
	if got := ol.Samples[n-1].Lat; got > stall/2 {
		t.Errorf("last arrival latency %v; the backlog did not drain", got)
	}
	for i, lag := range ol.Lag {
		if lag > generatorLagLimit {
			t.Errorf("generator dispatched arrival %d %v late; the stall must not hold up the generator", i, lag)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(newRand(7), 100, 500)
	b := poissonSchedule(newRand(7), 100, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d due at %v and %v", i, a[i], b[i])
		}
	}
	if mean := a[len(a)-1].Seconds() / float64(len(a)); mean < 0.008 || mean > 0.012 {
		t.Errorf("mean gap %.4fs at 100/s", mean)
	}
}
