package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

// stepClock is a serving clock the test moves forward while servers read
// it from their own goroutines.
type stepClock struct{ ns atomic.Int64 }

func (c *stepClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *stepClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// unreachableUpstream fails every recursion, so every question becomes an
// error-cache entry.
type unreachableUpstream struct{}

func (unreachableUpstream) Exchange(context.Context, dnswire.Name, dnswire.Type) (*dnswire.Message, error) {
	return nil, errors.New("authorities unreachable")
}

// pipelineTCP sends every query on one connection before reading any
// reply, and returns the raw replies by query ID.
func pipelineTCP(t *testing.T, addr string, queries [][]byte) map[uint16][]byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	var out []byte
	for _, q := range queries {
		out = binary.BigEndian.AppendUint16(out, uint16(len(q)))
		out = append(out, q...)
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatalf("write: %v", err)
	}
	br := bufio.NewReader(conn)
	replies := make(map[uint16][]byte, len(queries))
	for range queries {
		var hdr [2]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.Fatalf("reading reply %d of %d: %v", len(replies)+1, len(queries), err)
		}
		msg := make([]byte, binary.BigEndian.Uint16(hdr[:]))
		if _, err := io.ReadFull(br, msg); err != nil {
			t.Fatalf("reading reply %d of %d: %v", len(replies)+1, len(queries), err)
		}
		replies[binary.BigEndian.Uint16(msg)] = msg
	}
	return replies
}

// TestWireByteIdentitySweep is the byte-identity contract of the wire fast
// path over the paper's own answers: every testbed case × {CD, no CD} ×
// {EDNS+DO, no EDNS}, as fresh entries (the resolver's answers) and as
// error-cache entries (SERVFAIL+EDE, from the resolver's validation
// failures and from an unreachable upstream). At each second of the 30 s
// ErrorTTL — so at each EDE 13 countdown value 30…1 — ServeWire must equal
// a slow-path pack modulo the ID, and a live ServeTCP answering from the
// wire must equal one that never takes it, with TCPKeepalive off and on.
// With keepalive on, EDNS queries must take the slow path, which adds the
// option; the rest still leave from the wire.
func TestWireByteIdentitySweep(t *testing.T) {
	tb, err := testbed.Build()
	if err != nil {
		t.Fatalf("building testbed: %v", err)
	}
	type sweepQuery struct {
		name     dnswire.Name
		cd, edns bool
	}
	var queries []sweepQuery
	for _, c := range tb.Cases {
		for _, cd := range []bool{false, true} {
			for _, edns := range []bool{true, false} {
				queries = append(queries, sweepQuery{c.Query, cd, edns})
			}
		}
	}
	msg := func(sq sweepQuery, id uint16) *dnswire.Message {
		m := &dnswire.Message{
			ID: id, RecursionDesired: true, CheckingDisabled: sq.cd,
			Question: []dnswire.Question{{Name: sq.name, Type: dnswire.TypeA, Class: dnswire.ClassIN}},
		}
		if sq.edns {
			m.OPT = &dnswire.OPT{UDPSize: 1232, DO: true}
		}
		return m
	}
	pack := func(m *dnswire.Message) []byte {
		wire, err := m.Pack()
		if err != nil {
			t.Fatalf("Pack: %v", err)
		}
		return wire
	}

	const errorTTL = 30 * time.Second
	for _, run := range []struct {
		name      string
		up        func() forwarder.Upstream
		allErrors bool
		keepalive time.Duration
	}{
		{"resolver", func() forwarder.Upstream {
			return forwarder.ResolverUpstream{R: tb.NewResolver(resolver.ProfileCloudflare())}
		}, false, 0},
		{"resolver/keepalive", func() forwarder.Upstream {
			return forwarder.ResolverUpstream{R: tb.NewResolver(resolver.ProfileCloudflare())}
		}, false, 3 * time.Second},
		{"unreachable", func() forwarder.Upstream { return unreachableUpstream{} }, true, 0},
		{"unreachable/keepalive", func() forwarder.Upstream { return unreachableUpstream{} }, true, 3 * time.Second},
	} {
		t.Run(run.name, func(t *testing.T) {
			clock := &stepClock{}
			clock.ns.Store(tb.Clock().UnixNano())
			fe := frontend.New(run.up(), frontend.Config{Now: clock.Now, ErrorTTL: errorTTL})
			ctx := context.Background()
			for i, sq := range queries {
				if _, err := fe.HandleDNS(ctx, msg(sq, uint16(i+1))); err != nil {
					t.Fatal(err)
				}
			}

			reg := telemetry.NewRegistry()
			wireAddr, _, _, _ := startTCP(t, Config{Handler: fe, TCPKeepalive: run.keepalive, Registry: reg,
				MaxPipeline: 4 * len(queries)})
			slowAddr, _, _, _ := startTCP(t, Config{Handler: fe, TCPKeepalive: run.keepalive,
				DisableWire: true, MaxPipeline: 4 * len(queries)})
			raw := make([][]byte, len(queries))
			for i, sq := range queries {
				raw[i] = pack(msg(sq, uint16(i+1)))
			}

			var fresh, errs int
			for sec := 0; sec < int(errorTTL/time.Second); sec++ {
				fresh, errs = 0, 0
				for i, sq := range queries {
					wq, ok := dnswire.ScanQuery(pack(msg(sq, 0xBEEF)))
					if !ok {
						t.Fatal("ScanQuery rejected a sweep query")
					}
					// The image as the second begins (it may decline: the
					// countdown moved on), then after a slow-path serve
					// re-captured it. Whatever ServeWire serves must be the
					// slow path's bytes.
					before, _ := fe.ServeWire(wq, 0xFFFF, nil)
					resp, err := fe.HandleDNS(ctx, msg(sq, uint16(i+1)))
					if err != nil {
						t.Fatal(err)
					}
					slow := pack(resp)
					after, ok := fe.ServeWire(wq, 0xFFFF, nil)
					if !ok {
						t.Fatalf("second %d, %s cd=%t edns=%t: ServeWire declined right after a slow-path serve", sec, sq.name, sq.cd, sq.edns)
					}
					for _, fast := range [][]byte{before, after} {
						if fast == nil { // declined
							continue
						}
						if binary.BigEndian.Uint16(fast) != 0xBEEF {
							t.Fatalf("wire reply ID %#x, want 0xbeef", binary.BigEndian.Uint16(fast))
						}
						fast[0], fast[1] = slow[0], slow[1]
						if !bytes.Equal(slow, fast) {
							t.Fatalf("second %d, %s cd=%t edns=%t: wire reply differs from the slow path\nslow: %x\nwire: %x",
								sec, sq.name, sq.cd, sq.edns, slow, fast)
						}
					}
					if resp.RCode != dnswire.RCodeServFail {
						fresh++
						continue
					}
					errs++
					if sq.edns {
						var retry string
						for _, o := range resp.EDEs() {
							if o.InfoCode == uint16(ede.CodeCachedError) {
								retry = o.ExtraText
							}
						}
						if want := strconv.Itoa(int(errorTTL/time.Second) - sec); retry != want {
							t.Fatalf("second %d, %s: EDE 13 EXTRA-TEXT %q, want %q", sec, sq.name, retry, want)
						}
					}
				}

				// Live: the slow server re-captures each countdown image, the
				// wired one must then answer with the same bytes, keepalive
				// advertisement included.
				slowReplies := pipelineTCP(t, slowAddr, raw)
				wireReplies := pipelineTCP(t, wireAddr, raw)
				for i, sq := range queries {
					id := uint16(i + 1)
					if !bytes.Equal(slowReplies[id], wireReplies[id]) {
						t.Fatalf("second %d, %s cd=%t edns=%t: TCP wire reply differs from the slow path\nslow: %x\nwire: %x",
							sec, sq.name, sq.cd, sq.edns, slowReplies[id], wireReplies[id])
					}
					resp, err := dnswire.Unpack(wireReplies[id])
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := respKeepalive(resp); ok != (run.keepalive > 0 && sq.edns) {
						t.Fatalf("%s edns=%t: keepalive advertised=%t with TCPKeepalive %v", sq.name, sq.edns, ok, run.keepalive)
					}
				}
				clock.Advance(time.Second)
			}

			if run.allErrors && fresh != 0 {
				t.Errorf("%d fresh answers from an unreachable upstream", fresh)
			}
			if !run.allErrors && (fresh == 0 || errs == 0) {
				t.Errorf("resolver sweep covered %d fresh and %d error-cache answers, want both", fresh, errs)
			}
			seconds := int(errorTTL / time.Second)
			sent := float64(len(queries) * seconds)
			wired := sent // every live query a wire hit
			if run.keepalive > 0 {
				wired = 0 // only the non-EDNS ones
				for _, sq := range queries {
					if !sq.edns {
						wired += float64(seconds)
					}
				}
			}
			tcp := telemetry.L("transport", TransportTCP)
			if n, _ := reg.Value("edelab_frontdoor_queries_total", tcp); n != sent {
				t.Errorf("queries_total{tcp} = %v, want %v (each TCP query counted once)", n, sent)
			}
			if n, _ := reg.Value("edelab_frontdoor_wire_serves_total", tcp); n != wired {
				t.Errorf("wire_serves_total{tcp} = %v, want %v of %v (keepalive %v)", n, wired, sent, run.keepalive)
			}
		})
	}
}
