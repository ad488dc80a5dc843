package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// tmpl is one query of a workload's mix, packed once with ID 0.
type tmpl struct {
	label string
	edns  bool
	wire  []byte
	exp   expect
}

// uniqZone is a signed zone never-repeated names are drawn under, with the
// cold answer every such name must get.
type uniqZone struct {
	zone dnswire.Name
	exp  expect
}

// mix is a workload's traffic: a seeded order over the templates, and an
// optional share of unique names.
type mix struct {
	tmpls    []tmpl
	order    []int32
	uniq     []uniqZone
	perMille int
	seed     uint64
	uniqN    atomic.Uint64 // unique names issued so far in this run
}

// newMix shuffles 16 copies of every template with the workload seed, so
// the qname order is a function of the seed alone.
func newMix(tmpls []tmpl, uniq []uniqZone, perMille int, seed uint64) *mix {
	m := &mix{tmpls: tmpls, uniq: uniq, perMille: perMille, seed: seed}
	for r := 0; r < 16; r++ {
		for i := range tmpls {
			m.order = append(m.order, int32(i))
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x6564656c6162))
	rng.Shuffle(len(m.order), func(i, j int) { m.order[i], m.order[j] = m.order[j], m.order[i] })
	return m
}

// uniqueWire appends the query for never-repeated name number n under
// zone z; its label carries the seed, so the names are a function of
// (seed, position).
func (m *mix) uniqueWire(buf []byte, z int, n uint64) []byte {
	q := dnswire.NewQuery(0, m.uniq[z].zone.Child(fmt.Sprintf("u%x-%d", m.seed, n)), dnswire.TypeA)
	out, err := q.AppendPack(buf)
	if err != nil {
		panic(err) // a short A query always packs
	}
	return out
}

// expectFor resolves a slot reference: ≥0 a template, <0 a unique zone.
func (m *mix) expectFor(ref int32) expect {
	if ref >= 0 {
		return m.tmpls[ref].exp
	}
	return m.uniq[-1-ref].exp
}

// seq walks the mix for one connection.
type seq struct {
	m   *mix
	pos int
	rng *rand.Rand
	buf []byte
}

func (m *mix) seq(stream uint64) *seq {
	return &seq{
		m:   m,
		pos: int(stream*7919) % len(m.order),
		rng: rand.New(rand.NewPCG(m.seed, stream)),
	}
}

// next returns the next query (ID 0), its slot reference and, for a
// unique name, its number.
func (s *seq) next() ([]byte, int32, uint64) {
	if s.m.perMille > 0 && s.rng.IntN(1000) < s.m.perMille {
		z := s.rng.IntN(len(s.m.uniq))
		n := s.m.uniqN.Add(1)
		s.buf = s.m.uniqueWire(s.buf[:0], z, n)
		return s.buf, int32(-1 - z), n
	}
	ref := s.m.order[s.pos]
	s.pos = (s.pos + 1) % len(s.m.order)
	return s.m.tmpls[ref].wire, ref, 0
}

// clientSocketBuffer is the UDP client sockets' receive buffer size.
const clientSocketBuffer = 4 << 20

// cliConn is one client socket or stream, sending and receiving whole
// DNS messages.
type cliConn interface {
	send(q []byte) error
	recv(buf []byte) ([]byte, error)
	SetReadDeadline(t time.Time) error
	Close() error
}

type udpCli struct{ *net.UDPConn }

func (c udpCli) send(q []byte) error { _, err := c.Write(q); return err }

func (c udpCli) recv(buf []byte) ([]byte, error) {
	n, err := c.Read(buf)
	return buf[:n], err
}

// tcpCli frames messages per RFC 1035 §4.2.2; send and recv may run on
// different goroutines (one writer, one reader).
type tcpCli struct {
	net.Conn
	r    *bufio.Reader
	wbuf []byte
}

func (c *tcpCli) send(q []byte) error {
	c.wbuf = append(append(c.wbuf[:0], byte(len(q)>>8), byte(len(q))), q...)
	_, err := c.Write(c.wbuf)
	return err
}

func (c *tcpCli) recv(buf []byte) ([]byte, error) {
	var l [2]byte
	if _, err := io.ReadFull(c.r, l[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(l[:]))
	if _, err := io.ReadFull(c.r, buf[:n]); err != nil {
		return nil, err
	}
	return buf[:n], nil
}

func dial(network, addr string) (cliConn, error) {
	if network == "udp" {
		ra, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, err
		}
		c, err := net.DialUDP("udp", nil, ra)
		if err != nil {
			return nil, err
		}
		// A deep client buffer keeps the generator's own scheduling
		// stalls from dropping answers; the kernel caps it at rmem_max.
		if err := c.SetReadBuffer(clientSocketBuffer); err != nil {
			c.Close()
			return nil, err
		}
		return udpCli{c}, nil
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpCli{Conn: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

// slot is one outstanding query, indexed by its DNS ID. due is 0 when the
// slot is free; the other fields are written before due publishes it.
type slot struct {
	due   atomic.Int64
	sent  atomic.Int64 // last (re)transmission
	ref   atomic.Int32
	uniq  atomic.Uint64 // unique-name number, when ref < 0
	tries atomic.Int32
}

// clock is the load generator's monotonic time base.
var clockBase = time.Now()

func clock() int64 { return int64(time.Since(clockBase)) }

// A UDP query unanswered for retryAfter is sent again, as a stub resolver
// would, up to maxTries transmissions; a stream query is never resent.
// Only a query still unanswered after that counts as failed.
const (
	retryAfter = int64(400 * time.Millisecond)
	maxTries   = 3
	reapEvery  = int64(100 * time.Millisecond)
	drainFor   = retryAfter*maxTries + reapEvery
)

// phaseStats is what one load phase measured, client side.
type phaseStats struct {
	sent, ok, wrong, shed, timeouts, errs, retries uint64

	lat     []int64  // due → answer, ns, per correct answer
	rttSum  int64    // last send → answer, ns, summed over correct answers
	lag     []int64  // open loop: send − due, ns
	windows []uint64 // correct answers per winNS window
	winNS   int64
	samples []string // first few wrong answers, for the report
}

func (a *phaseStats) merge(b *phaseStats) {
	a.sent += b.sent
	a.ok += b.ok
	a.wrong += b.wrong
	a.shed += b.shed
	a.timeouts += b.timeouts
	a.errs += b.errs
	a.retries += b.retries
	a.lat = append(a.lat, b.lat...)
	a.rttSum += b.rttSum
	a.lag = append(a.lag, b.lag...)
	if len(a.windows) < len(b.windows) {
		a.windows = append(a.windows, make([]uint64, len(b.windows)-len(a.windows))...)
	}
	for i, v := range b.windows {
		a.windows[i] += v
	}
	if len(a.samples) < 5 {
		a.samples = append(a.samples, b.samples...)
	}
	a.winNS = max(a.winNS, b.winNS)
}

func (a *phaseStats) failed() uint64 { return a.wrong + a.shed + a.timeouts + a.errs }

// conn is one client connection's state during a phase. The sending
// goroutine owns next, sbuf, seq, lag, sendErrs and st.sent; the receiving
// one owns rbuf, qbuf, nextReap and the rest of st.
type conn struct {
	cc        cliConn
	udp       bool
	m         *mix
	seq       *seq
	slots     *[65536]slot
	next      uint16
	sbuf      []byte
	rbuf      []byte
	qbuf      []byte
	start     int64 // phase start on the clock
	nextReap  int64
	inflight  atomic.Int64 // open loop: queries sent and not yet answered or given up
	st        phaseStats
	sendTrips uint64  // slots found still busy a full ID cycle later
	lag       []int64 // open loop, sender-owned: send − due per query
	sendErrs  uint64  // open loop, sender-owned
}

func newConn(cc cliConn, udp bool, m *mix, stream uint64, start int64, winNS int64, nwin int) *conn {
	return &conn{
		cc: cc, udp: udp, m: m, seq: m.seq(stream), slots: new([65536]slot),
		start: start, nextReap: start + reapEvery,
		st: phaseStats{winNS: winNS, windows: make([]uint64, nwin)},
	}
}

// send issues the next query of the sequence, due at due.
func (c *conn) send(due int64) error {
	wire, ref, uniq := c.seq.next()
	id := c.next
	c.next++
	sl := &c.slots[id]
	if sl.due.Load() != 0 {
		c.sendTrips++
	}
	sl.ref.Store(ref)
	sl.uniq.Store(uniq)
	sl.tries.Store(1)
	sl.sent.Store(clock())
	sl.due.Store(due)
	c.st.sent++
	c.sbuf = append(c.sbuf[:0], wire...)
	binary.BigEndian.PutUint16(c.sbuf, id)
	return c.cc.send(c.sbuf)
}

// resend retransmits slot id's query.
func (c *conn) resend(id int, now int64) {
	sl := &c.slots[id]
	ref := sl.ref.Load()
	if ref >= 0 {
		c.rbuf = append(c.rbuf[:0], c.m.tmpls[ref].wire...)
	} else {
		c.rbuf = c.m.uniqueWire(c.rbuf[:0], int(-1-ref), sl.uniq.Load())
	}
	binary.BigEndian.PutUint16(c.rbuf, uint16(id))
	sl.tries.Add(1)
	sl.sent.Store(now)
	c.st.retries++
	if c.cc.send(c.rbuf) != nil {
		c.st.errs++
	}
}

// handle books one received response; it reports whether a slot was freed.
func (c *conn) handle(resp []byte, now int64, record bool) bool {
	id, got, ok := parseAnswer(resp)
	if !ok {
		c.st.errs++
		return false
	}
	sl := &c.slots[id]
	due := sl.due.Load()
	if due == 0 {
		return false // the answer to a retransmitted query that already got one
	}
	ref := sl.ref.Load()
	if !c.sameQuestion(resp, ref, sl.uniq.Load()) {
		return false // a late answer to an abandoned query whose ID was reused
	}
	exp := c.m.expectFor(ref)
	sent := sl.sent.Load()
	if !sl.due.CompareAndSwap(due, 0) {
		return false
	}
	switch {
	case exp.matches(got):
		c.st.ok++
		c.st.rttSum += now - sent
		if record {
			c.st.lat = append(c.st.lat, now-due)
		}
		if w := (now - c.start) / c.st.winNS; w >= 0 && int(w) < len(c.st.windows) {
			c.st.windows[w]++
		}
	case exp.isShed(got):
		c.st.shed++
	default:
		c.st.wrong++
		if len(c.st.samples) < 5 {
			c.st.samples = append(c.st.samples, fmt.Sprintf("got %v, want %v", got, exp))
		}
	}
	return true
}

// sameQuestion reports whether resp echoes the question of the query
// behind slot reference ref, as a stub matches answers by ID and question.
func (c *conn) sameQuestion(resp []byte, ref int32, uniq uint64) bool {
	var q []byte
	if ref >= 0 {
		q = c.m.tmpls[ref].wire
	} else {
		c.qbuf = c.m.uniqueWire(c.qbuf[:0], int(-1-ref), uniq)
		q = c.qbuf
	}
	end := skipName(q, 12) + 4 // queries carry exactly one question
	return end <= len(resp) && string(resp[12:end]) == string(q[12:end])
}

// reap runs every reapEvery: it retransmits UDP queries unanswered for
// retryAfter and gives up on those out of tries (all: on every one still
// outstanding). It returns how many slots it freed.
func (c *conn) reap(now int64, all bool) int {
	if !all && now < c.nextReap {
		return 0
	}
	c.nextReap = now + reapEvery
	n := 0
	for i := range c.slots {
		sl := &c.slots[i]
		d := sl.due.Load()
		if d == 0 {
			continue
		}
		if !all {
			waited := now - sl.sent.Load()
			if !c.udp {
				// A stream is never resent: give it every try's patience.
				waited /= maxTries
			}
			if waited < retryAfter {
				continue
			}
			if c.udp && sl.tries.Load() < maxTries {
				c.resend(i, now)
				continue
			}
		}
		if sl.due.CompareAndSwap(d, 0) {
			c.st.timeouts++
			n++
		}
	}
	return n
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// loadSpec describes one phase of load.
type loadSpec struct {
	network, addr string
	conns         int
	window        int     // queries outstanding per connection (open loop: at most)
	rate          float64 // open loop: offered queries/s over all connections
	dur           time.Duration
	winDur        time.Duration
	stream        uint64 // distinguishes the phases' sequences
}

// closedLoop keeps spec.window queries outstanding on each connection for
// spec.dur, sending the next query as each answer arrives, then drains.
func closedLoop(m *mix, spec loadSpec) (*phaseStats, error) {
	return runConns(m, spec, func(conns []*conn, end int64) {
		each(conns, func(c *conn) {
			buf := make([]byte, 65535)
			outstanding := 0
			for i := 0; i < spec.window; i++ {
				if err := c.send(clock()); err != nil {
					c.st.errs++
					continue
				}
				outstanding++
			}
			for outstanding > 0 {
				now := clock()
				if now >= end+drainFor {
					c.reap(now, true)
					break
				}
				freed := c.reap(now, false)
				outstanding -= freed
				for ; freed > 0 && now < end; freed-- {
					if c.send(now) == nil {
						outstanding++
					}
				}
				_ = c.cc.SetReadDeadline(time.Now().Add(time.Duration(reapEvery))) // a closed conn fails the read below
				resp, err := c.cc.recv(buf)
				now = clock()
				if err != nil {
					if !isTimeout(err) {
						c.st.errs++
						c.reap(now, true)
						return
					}
					continue
				}
				if c.handle(resp, now, false) {
					outstanding--
					if now < end && c.send(now) == nil {
						outstanding++
					}
				}
			}
		})
	})
}

// openLoop sends at spec.rate on a fixed schedule regardless of answers,
// round-robin over the connections, timing each answer from when its
// query was due. One sender runs on its own OS thread sleeping with 1 ns
// timer slack, so the schedule is kept to the microsecond when the CPU
// allows; how late it ran is reported as lag. A single sender leaves the
// other Ps to the receivers: a sleeping sender holds its P, and with one
// sender per P the receivers waited on the runtime's 10 ms sysmon tick.
func openLoop(m *mix, spec loadSpec) (*phaseStats, error) {
	return runConns(m, spec, func(conns []*conn, end int64) {
		start := conns[0].start
		interval := float64(time.Second) / spec.rate
		done := make(chan struct{})
		go func() {
			defer close(done)
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			setTimerSlack()
			for i := 0; ; i++ {
				due := start + int64(float64(i)*interval)
				if due >= end {
					return
				}
				c := conns[i%len(conns)]
				now := clock()
				if d := due - now; d > 0 {
					ts := syscall.NsecToTimespec(d)
					_ = syscall.Nanosleep(&ts, nil) // an early wake just sends early
					now = clock()
				}
				// Keep the connection's outstanding queries under the
				// front door's pipeline bound: past a stall, wait for
				// answers rather than flood (the wait counts as latency).
				for c.inflight.Load() >= int64(spec.window) && clock() < end+drainFor {
					ts := syscall.NsecToTimespec(int64(50 * time.Microsecond))
					_ = syscall.Nanosleep(&ts, nil)
					now = clock()
				}
				c.lag = append(c.lag, now-due)
				c.inflight.Add(1)
				if c.send(due) != nil {
					c.sendErrs++
				}
			}
		}()
		each(conns, func(c *conn) {
			buf := make([]byte, 65535)
			for {
				now := clock()
				if now > end+drainFor {
					break
				}
				c.inflight.Add(-int64(c.reap(now, false)))
				_ = c.cc.SetReadDeadline(time.Now().Add(time.Duration(reapEvery))) // a closed conn fails the read below
				resp, err := c.cc.recv(buf)
				now = clock()
				if err != nil {
					if !isTimeout(err) {
						c.st.errs++
						break
					}
					if now > end && c.idle() {
						break
					}
					continue
				}
				if c.handle(resp, now, true) {
					c.inflight.Add(-1)
				}
			}
		})
		<-done
		// The sender has stopped: fold its counts into the connections'.
		for _, c := range conns {
			c.st.lag = c.lag
			c.st.errs += c.sendErrs
			c.reap(clock(), true)
		}
	})
}

// idle reports whether no query is outstanding.
func (c *conn) idle() bool {
	for i := range c.slots {
		if c.slots[i].due.Load() != 0 {
			return false
		}
	}
	return true
}

// runConns dials spec.conns connections, runs phase over them, and merges
// what they measured.
func runConns(m *mix, spec loadSpec, phase func(conns []*conn, end int64)) (*phaseStats, error) {
	winNS := int64(spec.winDur)
	if winNS <= 0 {
		winNS = int64(spec.dur)
	}
	nwin := int(int64(spec.dur)/winNS) + 1
	conns := make([]*conn, 0, spec.conns)
	defer func() {
		for _, c := range conns {
			c.cc.Close()
		}
	}()
	start := clock()
	for i := 0; i < spec.conns; i++ {
		cc, err := dial(spec.network, spec.addr)
		if err != nil {
			return nil, err
		}
		conns = append(conns, newConn(cc, spec.network == "udp", m, spec.stream*64+uint64(i), start, winNS, nwin))
	}
	phase(conns, start+int64(spec.dur))
	out := &phaseStats{winNS: winNS}
	for _, c := range conns {
		if c.sendTrips > 0 {
			return nil, fmt.Errorf("%d queries still outstanding a full 65536-ID cycle later", c.sendTrips)
		}
		out.merge(&c.st)
	}
	if nwin > 1 {
		out.windows = out.windows[:nwin-1] // drop the partial tail window
	}
	return out, nil
}

// each runs body on every connection at once and waits for all of them.
func each(conns []*conn, body func(c *conn)) {
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(c)
		}()
	}
	wg.Wait()
}

// setTimerSlack asks the kernel to wake this thread's sleeps within 1 ns
// of the requested time (PR_SET_TIMERSLACK) instead of the default 50 µs.
func setTimerSlack() {
	const prSetTimerSlack = 29
	if _, _, errno := syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0); errno != 0 {
		fmt.Fprintf(os.Stderr, "edebench: PR_SET_TIMERSLACK: %v\n", errno)
	}
}

// exchangeOnce sends one query and waits for its answer, for cold probes.
func exchangeOnce(network, addr string, q []byte, timeout time.Duration) ([]byte, error) {
	cc, err := dial(network, addr)
	if err != nil {
		return nil, err
	}
	defer cc.Close()
	if err := cc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if err := cc.send(q); err != nil {
		return nil, err
	}
	buf := make([]byte, 65535)
	resp, err := cc.recv(buf)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), resp...), nil
}
