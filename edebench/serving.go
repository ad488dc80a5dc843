package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

// Serving load shape: nproc connections, each keeping closedWindow queries
// outstanding. It stays well under transport.DefaultMaxPipeline (64): the
// server releases a pipeline slot only after writing the answer, so a
// client window of 56 already drew EDE 23 sheds on TCP.
const (
	closedWindow = 32
	qpsWindow    = 500 * time.Millisecond
	warmup       = 500 * time.Millisecond
	setupRuns    = 5
)

// server is a running process under test.
type server struct {
	once  sync.Once
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	ready readyLine
}

func startServer(cfg runConfig, traced bool) (*server, error) {
	args := []string{"serve"}
	if cfg.w.cluster {
		args = append(args, "-cluster")
	}
	if traced {
		args = append(args, "-trace")
	}
	cmd := exec.Command(cfg.self, args...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, in: in, out: bufio.NewReader(outPipe)}
	if err := s.readLine(&s.ready); err != nil {
		s.stop()
		return nil, fmt.Errorf("process under test did not come up: %w", err)
	}
	return s, nil
}

func (s *server) readLine(v any) error {
	line, err := s.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// cpu reads the process's CPU counter alone (no registry walk).
func (s *server) cpu() (int64, error) {
	if _, err := io.WriteString(s.in, "cpu\n"); err != nil {
		return 0, err
	}
	var c int64
	if err := s.readLine(&c); err != nil {
		return 0, fmt.Errorf("cpu: %w", err)
	}
	return c, nil
}

func (s *server) stats() (*serverStats, error) {
	if _, err := io.WriteString(s.in, "stats\n"); err != nil {
		return nil, err
	}
	var st serverStats
	if err := s.readLine(&st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &st, nil
}

// stop asks the process to exit and waits for it, killing it after 5 s.
func (s *server) stop() { s.once.Do(s.halt) }

func (s *server) halt() {
	_, _ = io.WriteString(s.in, "quit\n") // a dead process is stopped already
	s.in.Close()
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // the exit status of a stopped server carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// endpoint is where the workload's client traffic goes.
func (s *server) endpoint(w *workload) (network, addr string) {
	if w.cluster {
		return "tcp", s.ready.TCP
	}
	return "udp", s.ready.UDP
}

// startMeasured starts the process under test and returns once its
// listener has given the first correct answer, with the time that took.
func startMeasured(cfg runConfig, traced bool) (*server, float64, error) {
	t0 := time.Now()
	s, err := startServer(cfg, traced)
	if err != nil {
		return nil, 0, err
	}
	network, addr := s.endpoint(cfg.w)
	q := packQuery(testbed.ParentZone.Child("valid"), true)
	want := expect{}
	for {
		resp, err := exchangeOnce(network, addr, q, 200*time.Millisecond)
		if err == nil {
			if _, got, ok := parseAnswer(resp); ok && got == want {
				return s, time.Since(t0).Seconds(), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("no correct answer from %s %s within 30 s", network, addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func packQuery(name dnswire.Name, edns bool) []byte {
	q := dnswire.NewQuery(0, name, dnswire.TypeA)
	if !edns {
		q.OPT = nil
	}
	wire, err := q.Pack()
	if err != nil {
		panic(err) // a plain A query always packs
	}
	return wire
}

// buildTemplates turns the workload's case labels into packed queries.
func buildTemplates(w *workload) ([]tmpl, []uniqZone, error) {
	tb, err := testbed.Build()
	if err != nil {
		return nil, nil, err
	}
	query := map[string]dnswire.Name{}
	for _, c := range tb.Cases {
		query[c.Label] = c.Query
	}
	var out []tmpl
	for _, l := range w.labels {
		name, ok := query[l]
		if !ok {
			return nil, nil, fmt.Errorf("testbed has no case %q", l)
		}
		out = append(out, tmpl{label: l, edns: true, wire: packQuery(name, true)})
	}
	if w.plain {
		for _, l := range hitLabels {
			out = append(out, tmpl{label: l, wire: packQuery(query[l], false)})
		}
	}
	var uniq []uniqZone
	if w.uniquePerMille > 0 {
		for _, z := range uniqueZones {
			uniq = append(uniq, uniqZone{zone: testbed.ParentZone.Child(z)})
		}
	}
	return out, uniq, nil
}

// coldCheck sends every template once to a fresh server, serially, and
// checks the cold answers: the EDE set of each EDNS query must equal the
// Cloudflare column of the Table 4 golden file, SERVFAIL exactly for the
// error cases. With first set, the answers become the expected ones;
// otherwise they must equal them. It also returns each template's answer
// bytes, for the codec replay.
func coldCheck(s *server, w *workload, m *mix, golden map[string]uint64, first bool) ([][]byte, error) {
	network, addr := s.endpoint(w)
	isHit := map[string]bool{}
	for _, l := range hitLabels {
		isHit[l] = true
	}
	resps := make([][]byte, len(m.tmpls))
	for i := range m.tmpls {
		t := &m.tmpls[i]
		resp, err := exchangeOnce(network, addr, t.wire, 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("cold %s: %w", t.label, err)
		}
		got, err := checkParser(resp)
		if err != nil {
			return nil, fmt.Errorf("cold %s: %w", t.label, err)
		}
		resps[i] = resp
		if !first {
			if got != t.exp {
				return nil, fmt.Errorf("cold %s: %v, first server said %v", t.label, got, t.exp)
			}
			continue
		}
		want, ok := golden[t.label]
		switch {
		case !ok:
			return nil, fmt.Errorf("cold %s: not in the golden file", t.label)
		case !t.edns && got.codes != 0:
			return nil, fmt.Errorf("cold %s without EDNS carries EDE %v", t.label, maskCodes(got.codes))
		case t.edns && got.codes != want:
			return nil, fmt.Errorf("cold %s: EDE %v, golden Cloudflare column %v", t.label, maskCodes(got.codes), maskCodes(want))
		case isHit[t.label] == (got.rcode == rcodeServFail):
			return nil, fmt.Errorf("cold %s: rcode %d does not fit its mix", t.label, got.rcode)
		}
		t.exp = got
	}
	for z := range m.uniq {
		u := &m.uniq[z]
		resp, err := exchangeOnce(network, addr, packQuery(u.zone.Child(fmt.Sprintf("cold-%x", m.seed)), true), 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("cold unique name under %s: %w", u.zone, err)
		}
		got, err := checkParser(resp)
		if err != nil {
			return nil, err
		}
		if first {
			u.exp = got
		} else if got != u.exp {
			return nil, fmt.Errorf("cold unique name under %s: %v, first server said %v", u.zone, got, u.exp)
		}
	}
	return resps, nil
}

// warmUp cold-checks a fresh server and warms its caches with a short
// closed loop.
func warmUp(s *server, cfg runConfig, m *mix, golden map[string]uint64, first bool, stream *uint64) ([][]byte, error) {
	resps, err := coldCheck(s, cfg.w, m, golden, first)
	if err != nil {
		return nil, err
	}
	network, addr := s.endpoint(cfg.w)
	*stream++
	warm, err := closedLoop(m, loadSpec{network: network, addr: addr, conns: runtime.NumCPU(), window: closedWindow, dur: warmup, stream: *stream})
	if err != nil {
		return nil, err
	}
	if warm.wrong > 0 {
		return nil, fmt.Errorf("warm-up: %d wrong answers, e.g. %v", warm.wrong, warm.samples)
	}
	return resps, nil
}

// servingRun is everything one serving run measured.
type servingRun struct {
	cfg    runConfig
	setups []float64
	// Each round is a closed-loop (saturating) phase then an open-loop
	// (fixed-rate) phase; stats brackets every phase.
	sat, fixed []*phaseStats
	satD       delta // server stats across the closed-loop phases
	fixedD     delta // ... and the open-loop ones
	whole      delta // first to last stats line
	cpuPerOp   []float64
	base       *phaseStats // traced run: the untraced server's closed loop
	buildS     float64
	tmpls      []tmpl
	resps      [][]byte
	conns      int
	network    string
}

// A serving run alternates rounds closed-loop/open-loop pairs, so a burst
// of interference from outside the benchmark lands in one window of each
// rather than in one whole phase; satShare of each round is closed loop.
const (
	rounds   = 3
	satShare = 0.6
)

func runServing(cfg runConfig) (*result, error) {
	printMeta(cfg)
	golden, err := loadGolden(cfg.root)
	if err != nil {
		return nil, err
	}
	tmpls, uniq, err := buildTemplates(cfg.w)
	if err != nil {
		return nil, err
	}
	m := newMix(tmpls, uniq, cfg.w.uniquePerMille, cfg.seed)
	run := &servingRun{cfg: cfg, conns: runtime.NumCPU()}
	var stream uint64
	round := cfg.seconds * float64(time.Second) / rounds
	satPhase := time.Duration(round * satShare)
	fixedPhase := time.Duration(round * (1 - satShare))

	// Set-up is timed setupRuns times; every start but the last is only
	// probed and stopped. A traced run measures the untraced server's
	// capacity on the first start, for trace.overhead.
	first := true
	for i := 0; i < setupRuns-1; i++ {
		s, setup, err := startMeasured(cfg, false)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, setup)
		if cfg.trace && i == 0 {
			if _, err := warmUp(s, cfg, m, golden, true, &stream); err != nil {
				s.stop()
				return nil, err
			}
			first = false
			network, addr := s.endpoint(cfg.w)
			stream++
			run.base, err = closedLoop(m, loadSpec{network: network, addr: addr, conns: run.conns, window: closedWindow, dur: satPhase * rounds / 4, winDur: qpsWindow, stream: stream})
			if err != nil {
				s.stop()
				return nil, err
			}
		}
		s.stop()
	}
	s, setup, err := startMeasured(cfg, cfg.trace)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	run.setups = append(run.setups, setup)
	resps, err := warmUp(s, cfg, m, golden, first, &stream)
	if err != nil {
		return nil, err
	}
	run.buildS = s.ready.BuildS
	run.tmpls, run.resps = m.tmpls, resps
	network, addr := s.endpoint(cfg.w)
	run.network = network

	prev, err := s.stats()
	if err != nil {
		return nil, err
	}
	first0 := prev
	for r := 0; r < rounds; r++ {
		stream++
		sat, cpu, err := sampledClosedLoop(s, m, loadSpec{network: network, addr: addr, conns: run.conns, window: closedWindow, dur: satPhase, winDur: qpsWindow, stream: stream})
		if err != nil {
			return nil, err
		}
		for i, n := range sat.windows {
			if n > 0 && i+1 < len(cpu) {
				run.cpuPerOp = append(run.cpuPerOp, float64(cpu[i+1]-cpu[i])/1e3/float64(n))
			}
		}
		mid, err := s.stats()
		if err != nil {
			return nil, err
		}
		stream++
		fixed, err := openLoop(m, loadSpec{network: network, addr: addr, conns: run.conns, window: closedWindow, rate: cfg.w.rate, dur: fixedPhase, stream: stream})
		if err != nil {
			return nil, err
		}
		next, err := s.stats()
		if err != nil {
			return nil, err
		}
		run.sat, run.fixed = append(run.sat, sat), append(run.fixed, fixed)
		run.satD = append(run.satD, [2]*serverStats{prev, mid})
		run.fixedD = append(run.fixedD, [2]*serverStats{mid, next})
		prev = next
	}
	run.whole = delta{{first0, prev}}
	s.stop()
	return run.report(), nil
}

// sampledClosedLoop runs a closed-loop phase while reading the server's
// CPU counter at every qps window boundary, so CPU per answer can be
// taken window by window.
func sampledClosedLoop(s *server, m *mix, spec loadSpec) (*phaseStats, []int64, error) {
	cpu0, err := s.cpu()
	if err != nil {
		return nil, nil, err
	}
	cpu := []int64{cpu0}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(start.Add(time.Duration(k) * spec.winDur))):
			}
			c, err := s.cpu()
			if err != nil {
				return
			}
			cpu = append(cpu, c)
		}
	}()
	st, err := closedLoop(m, spec)
	close(stop)
	<-done
	return st, cpu, err
}
