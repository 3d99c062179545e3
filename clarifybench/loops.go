package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// session runs one script's updates in order.
type session interface {
	next(ctx context.Context) (sample, *output)
	done() bool
	close()
}

// sessionFactory starts a session for script idx.
type sessionFactory func(ctx context.Context, idx int) (session, error)

// closedLoop runs workers that each take the next script, run its updates
// back to back, and take another, until d has passed. Scripts are handed
// out in order, wrapping around.
func closedLoop(ctx context.Context, workers int, d time.Duration, n int, mk sessionFactory, rec *recorder) []sample {
	var next atomic.Int64
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) && ctx.Err() == nil {
				idx := int(next.Add(1)-1) % n
				s, err := mk(ctx, idx)
				if err != nil {
					mine = append(mine, sample{Script: idx, Err: err.Error(), Due: time.Now(), End: time.Now()})
					continue
				}
				for !s.done() && time.Now().Before(deadline) {
					smp, out := s.next(ctx)
					rec.add(smp, out)
					mine = append(mine, smp)
				}
				s.close()
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// completePass runs, untimed, every script whose updates have not all been
// recorded yet, so that per-update counts cover exactly one full pass over
// the inputs however far the timed loop got.
func completePass(ctx context.Context, in *inputs, mk sessionFactory, rec *recorder) error {
	for idx, sc := range in.Scripts {
		missing := false
		for step := range sc.Intents {
			if rec.needs(key{idx, step}) {
				missing = true
			}
		}
		if !missing {
			continue
		}
		s, err := mk(ctx, idx)
		if err != nil {
			return err
		}
		for !s.done() {
			smp, out := s.next(ctx)
			rec.add(smp, out)
		}
		s.close()
	}
	return nil
}

// allKeys lists every update of one pass over the inputs.
func allKeys(in *inputs) []key {
	var ks []key
	for idx, sc := range in.Scripts {
		for step := range sc.Intents {
			ks = append(ks, key{idx, step})
		}
	}
	return ks
}

// laneSet is the open loop's population of operators: lane l works through
// scripts off+l, off+l+P, off+l+2P, ... (mod the script count), one session
// at a time, so which updates an arrival schedule runs is fixed by the seed
// alone.
type laneSet struct {
	mk     sessionFactory
	n, off int
	cur    []session
	errs   []error
	starts []int
	rec    *recorder
}

func newLaneSet(ctx context.Context, lanes, n, off int, mk sessionFactory, rec *recorder) *laneSet {
	ls := &laneSet{mk: mk, n: n, off: off, cur: make([]session, lanes), errs: make([]error, lanes),
		starts: make([]int, lanes), rec: rec}
	for l := range ls.cur {
		ls.open(ctx, l)
	}
	return ls
}

func (ls *laneSet) open(ctx context.Context, l int) {
	idx := (ls.off + l + ls.starts[l]*len(ls.cur)) % ls.n
	ls.starts[l]++
	s, err := ls.mk(ctx, idx)
	ls.cur[l], ls.errs[l] = s, err
	if err != nil {
		ls.cur[l] = nil
	}
}

// handle serves one arrival on lane l. Recycling a finished session happens
// after the update's End, so it is not charged to this update.
func (ls *laneSet) handle(ctx context.Context, l int) sample {
	s := ls.cur[l]
	if s == nil {
		ls.open(ctx, l)
		return sample{Err: "open session: " + ls.errs[l].Error(), End: time.Now()}
	}
	smp, out := s.next(ctx)
	ls.rec.add(smp, out)
	if s.done() {
		s.close()
		ls.open(ctx, l)
	}
	return smp
}

func (ls *laneSet) close() {
	for _, s := range ls.cur {
		if s != nil {
			s.close()
		}
	}
}

// windowedRate is the median over n equal windows of d, from the earliest
// start, of the accepted updates per second ending in each window.
func windowedRate(ss []sample, n int, d time.Duration) float64 {
	if len(ss) == 0 {
		return 0
	}
	start := ss[0].Due
	for _, s := range ss {
		if s.Due.Before(start) {
			start = s.Due
		}
	}
	w := d / time.Duration(n)
	counts := make([]float64, n)
	for _, s := range ss {
		if i := int(s.End.Sub(start) / w); s.Err == "" && i < n {
			counts[i]++
		}
	}
	return median(counts) / w.Seconds()
}

// saturate runs every lane back to back, with no pause between one
// update's end and the next one's submit, until d has passed.
func saturate(ctx context.Context, lanes int, d time.Duration, handle laneHandler) []sample {
	deadline := time.Now().Add(d)
	out := make([][]sample, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				s := handle(ctx, l)
				s.Due, s.Lat = t0, s.End.Sub(t0)
				out[l] = append(out[l], s)
			}
		}(l)
	}
	wg.Wait()
	var all []sample
	for _, ss := range out {
		all = append(all, ss...)
	}
	return all
}
