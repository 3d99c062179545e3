package main

import (
	"sync"
)

// key names one update: a script and the step within it.
type key struct{ Script, Step int }

// first is the first execution of an update, kept for the checker.
type first struct {
	Sample sample
	Out    *output
}

// recorder keeps the first output of every update and compares each repeat
// with it by digest: a session's outputs are a pure function of its script,
// so a repeat must ship exactly what the checked first execution shipped.
type recorder struct {
	mu         sync.Mutex
	first      map[key]first
	mismatches int
}

func newRecorder() *recorder { return &recorder{first: map[key]first{}} }

// needs reports whether the update has not been recorded yet, so that the
// caller fetches what the checker needs only once.
func (r *recorder) needs(k key) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.first[k]
	return !ok
}

// add records one execution and reports whether it matches the first.
func (r *recorder) add(s sample, out *output) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key{s.Script, s.Step}
	f, ok := r.first[k]
	if !ok {
		r.first[k] = first{Sample: s, Out: out}
		return true
	}
	same := f.Sample.Err == s.Err && f.Sample.Digest == s.Digest &&
		f.Sample.Questions == s.Questions && f.Sample.LLMCalls == s.LLMCalls
	if !same {
		r.mismatches++
	}
	return same
}

// check runs the output checker over every first execution and returns the
// number of wrong outputs and the first error seen.
func (r *recorder) check() (wrong int, firstErr error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.first {
		if f.Sample.Err != "" || f.Out == nil {
			continue
		}
		if err := checkOutput(f.Out); err != nil {
			wrong++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return wrong + r.mismatches, firstErr
}

// counts returns the mean questions and LLM calls per accepted update over
// the given updates.
func (r *recorder) counts(ks []key) (questions, llmCalls float64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range ks {
		f, ok := r.first[k]
		if !ok || f.Sample.Err != "" {
			continue
		}
		questions += float64(f.Sample.Questions)
		llmCalls += float64(f.Sample.LLMCalls)
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	return questions / float64(n), llmCalls / float64(n), n
}
