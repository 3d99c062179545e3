package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/clarifynet/clarify/server"
)

// proc is a child process the benchmark started.
type proc struct {
	cmd  *exec.Cmd
	done chan error
	log  *os.File
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func startProc(bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, done: make(chan error, 1), log: logf}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

// stop sends SIGTERM, waits for the process to exit, and kills it if it
// has not exited after a grace period.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(3 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in " + path)
}

// cpuSeconds reads the user+system CPU time a process has used (pid 0 is
// this process).
func cpuSeconds(pid int) (float64, error) {
	path := "/proc/self/stat"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/stat", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks (100 per second
	// on Linux).
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short " + path)
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad " + path)
	}
	return (u + st) / 100, nil
}

// resetPeakRSS restarts this process's VmHWM at its current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// fleet is the system under test for the HTTP workloads: one clarifyd
// replica, optionally behind clarify-lb.
type fleet struct {
	daemon, lb *proc
	// direct is the replica's URL, front the URL load is sent to.
	direct, front string
	hc            *http.Client
}

// startFleet starts clarifyd (journal on, default interval fsync) and,
// with withLB, clarify-lb in front of it, and waits until both serve.
func startFleet(binDir, workDir string, withLB bool, conns int) (*fleet, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	journalDir, err := os.MkdirTemp(workDir, "journal-")
	if err != nil {
		return nil, err
	}
	f := &fleet{direct: "http://" + addr, front: "http://" + addr}
	f.hc = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
	f.daemon, err = startProc(filepath.Join(binDir, "clarifyd"), filepath.Join(workDir, "clarifyd.log"),
		"-addr", addr, "-workers", strconv.Itoa(conns), "-queue", "256",
		"-journal", journalDir, "-quiet", "-pprof", "-drain-timeout", "2s")
	if err != nil {
		return nil, err
	}
	if err := f.waitOK(f.direct+"/readyz", f.daemon); err != nil {
		f.stop()
		return nil, err
	}
	if !withLB {
		return f, nil
	}
	lbAddr, err := freeAddr()
	if err != nil {
		f.stop()
		return nil, err
	}
	f.front = "http://" + lbAddr
	f.lb, err = startProc(filepath.Join(binDir, "clarify-lb"), filepath.Join(workDir, "clarify-lb.log"),
		"-addr", lbAddr, "-backends", f.direct, "-quiet", "-probe-interval", "100ms", "-drain-timeout", "2s")
	if err != nil {
		f.stop()
		return nil, err
	}
	if err := f.waitOK(f.front+"/healthz", f.lb); err != nil {
		f.stop()
		return nil, err
	}
	// The balancer admits a backend after its first successful probe.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var m struct {
			Admitted int `json:"admitted"`
		}
		c := server.Client{BaseURL: f.front, HTTP: f.hc}
		if err := getJSON(context.Background(), &c, "/metrics", &m); err == nil && m.Admitted > 0 {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, errors.New("clarify-lb never admitted the replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (f *fleet) waitOK(url string, p *proc) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case err := <-p.done:
			p.done <- err
			return fmt.Errorf("%s exited before serving: %v", url, err)
		default:
		}
		resp, err := f.hc.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 20s", url)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metrics reads the replica's /metrics snapshot.
func (f *fleet) metrics(ctx context.Context) (server.MetricsSnapshot, error) {
	return (&server.Client{BaseURL: f.direct, HTTP: f.hc}).Metrics(ctx)
}

// cpu returns the CPU seconds used so far by clarifyd, clarify-lb (0
// without one) and this process.
func (f *fleet) cpu() [3]float64 {
	var out [3]float64
	out[0], _ = cpuSeconds(f.daemon.cmd.Process.Pid)
	if f.lb != nil {
		out[1], _ = cpuSeconds(f.lb.cmd.Process.Pid)
	}
	out[2], _ = cpuSeconds(0)
	return out
}

func (f *fleet) stop() {
	f.lb.stop()
	f.daemon.stop()
	f.hc.CloseIdleConnections()
}

// getJSON fetches a JSON document from the client's base URL.
func getJSON(ctx context.Context, c *server.Client, path string, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return decodeJSON(resp.Body, out)
}

// totalAllocBytes reads runtime.MemStats.TotalAlloc of the replica from its
// heap profile (clarifyd runs with -pprof).
func (f *fleet) totalAllocBytes(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.direct+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseFloat(rest, 64)
		}
	}
	return 0, errors.New("no TotalAlloc in heap profile")
}

// callTimer accumulates client call round trips by call name; nil disables
// timing (untraced runs).
type callTimer interface {
	observe(call string, d time.Duration, changed bool)
}

// httpSession drives one script against the daemon through server.Client,
// answering each question at once.
type httpSession struct {
	in     *inputs
	idx    int
	c      *server.Client
	rec    *recorder
	timer  callTimer
	sid    string
	rng    *rand.Rand
	step   int
	closed bool
}

func newHTTPSession(ctx context.Context, in *inputs, idx int, c *server.Client, rec *recorder, timer callTimer) (*httpSession, error) {
	s := &httpSession{in: in, idx: idx, c: c, rec: rec, timer: timer,
		rng: rand.New(rand.NewSource(in.Scripts[idx].AnswerSeed))}
	t0 := time.Now()
	sid, err := c.CreateSession(ctx, server.CreateSessionRequest{Config: in.Bases[in.Scripts[idx].Base].Text})
	s.observe("create", t0, true)
	if err != nil {
		return nil, fmt.Errorf("create session: %w", err)
	}
	s.sid = sid
	return s, nil
}

func (s *httpSession) observe(call string, t0 time.Time, changed bool) {
	if s.timer != nil {
		s.timer.observe(call, time.Since(t0), changed)
	}
}

func (s *httpSession) done() bool { return s.step >= len(s.in.Scripts[s.idx].Intents) }

func (s *httpSession) close() {
	if !s.closed {
		s.closed = true
		_ = s.c.DeleteSession(context.Background(), s.sid)
	}
}

// next runs the script's next update: submit, then poll its status every
// poll interval until it is terminal, fetching and answering the pending
// question whenever the status is "waiting". A 429 is a shed update and
// counts as failed.
func (s *httpSession) next(ctx context.Context) (sample, *output) {
	sc := s.in.Scripts[s.idx]
	b := s.in.Bases[sc.Base]
	smp := sample{Script: s.idx, Step: s.step}
	intentText := sc.Intents[s.step]
	s.step++
	// A failed update leaves the session in an unknown state: the lane
	// abandons it and starts the next script.
	fail := func(err error) (sample, *output) {
		smp.Err = err.Error()
		smp.End = time.Now()
		s.step = len(sc.Intents)
		return smp, nil
	}
	t0 := time.Now()
	u, err := s.c.SubmitAsync(ctx, s.sid, intentText, b.Target)
	s.observe("submit", t0, true)
	if err != nil {
		return fail(fmt.Errorf("submit: %w", err))
	}
	smp.End = time.Now()
	var asked []answered
	answeredSeq := -1
	for !u.Terminal() {
		t0 = time.Now()
		if err := sleepCtx(ctx, s.c.PollInterval); err != nil {
			return fail(err)
		}
		s.observe("sleep", t0, false)
		t0 = time.Now()
		cur, err := s.c.Update(ctx, s.sid, u.ID)
		if err != nil {
			return fail(fmt.Errorf("poll update: %w", err))
		}
		s.observe("update", t0, cur.Status != u.Status)
		u = cur
		if u.Terminal() {
			smp.End = time.Now()
			break
		}
		if u.Status != server.StatusWaiting {
			continue
		}
		// The pipeline is parked on a question: fetch it and answer.
		t0 = time.Now()
		q, err := s.c.Question(ctx, s.sid)
		if err != nil {
			return fail(fmt.Errorf("fetch question: %w", err))
		}
		fresh := q != nil && q.Seq != answeredSeq
		s.observe("question", t0, fresh)
		if !fresh {
			continue
		}
		a, opt, err := s.answer(*q)
		if err != nil {
			return fail(err)
		}
		asked = append(asked, a)
		t0 = time.Now()
		if err := s.c.Answer(ctx, s.sid, q.Seq, opt); err != nil {
			return fail(fmt.Errorf("answer: %w", err))
		}
		s.observe("answer", t0, true)
		answeredSeq = q.Seq
	}
	if u.Status != server.StatusDone || u.Result == nil {
		return fail(fmt.Errorf("update %s: %s", u.Status, u.Error))
	}
	r := u.Result
	smp.Questions = len(asked)
	// Session.Submit makes one classification call, one spec-extraction
	// call and one synthesis call per attempt.
	smp.LLMCalls = 2 + r.Attempts
	out := &output{
		Target: b.Target, ACL: b.ACL, Intent: intentText,
		SnippetText: r.SnippetText, SpecJSON: r.SpecJSON, Position: r.Position,
		Renames: r.Renames, Questions: asked,
	}
	smp.Digest = out.digest()
	if r.Questions != len(asked) {
		smp.Err = fmt.Sprintf("daemon reports %d questions, client answered %d", r.Questions, len(asked))
		return smp, nil
	}
	if !s.rec.needs(key{smp.Script, smp.Step}) {
		return smp, nil
	}
	// The checker needs the configuration the update produced; fetch it
	// before the session's next update replaces it, and parse it only when
	// the checker runs, after the run.
	if out.FinalText, err = s.c.Config(ctx, s.sid); err != nil {
		return fail(fmt.Errorf("fetch config: %w", err))
	}
	return smp, out
}

// answer picks OPTION 1 or 2 uniformly and records the chosen behaviour.
func (s *httpSession) answer(q server.Question) (answered, int, error) {
	opt := 1 + s.rng.Intn(2)
	a := answered{Chosen: q.Option1}
	if opt == 2 {
		a.Chosen = q.Option2
	}
	switch q.Kind {
	case "route-map":
		if q.Route == nil {
			return a, 0, errors.New("route-map question without a route")
		}
		a.Route = q.Route
	case "acl":
		p, err := parsePacket(q.Packet)
		if err != nil {
			return a, 0, err
		}
		a.Packet = &p
	default:
		return a, 0, fmt.Errorf("question of unknown kind %q", q.Kind)
	}
	return a, opt, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
