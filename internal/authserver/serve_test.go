package authserver

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// startFrontDoor serves the signed example.test zone, plus a 40-record TXT
// set at big.example.test that overflows a 512-byte UDP reply, through one
// transport front door on a UDP socket and a TCP listener: the path
// edeserver -mode auth and the live-udp example take.
func startFrontDoor(t *testing.T) (udpAddr, tcpAddr string) {
	t.Helper()
	z := testZone(t)
	big := dnswire.MustName("big.example.test")
	var rrs []dnswire.RR
	for i := 0; i < 40; i++ {
		rrs = append(rrs, dnswire.RR{Name: big, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.TXT{Strings: []string{string(make([]byte, 80))}}})
	}
	z.SetRRset(big, dnswire.TypeTXT, rrs)

	srv := transport.NewServer(transport.Config{Handler: New(z)})
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go srv.ServeUDP(ctx, conn)
	go srv.ServeTCP(ctx, l)
	return conn.LocalAddr().String(), l.Addr().String()
}

type exchangeFunc func(context.Context, *dnswire.Message) (*dnswire.Message, error)

// checkServedAnswers checks the handler's answers as they leave a real
// socket: AA answers, RRSIGs only when the query sets DO, NXDOMAIN inside
// the zone and REFUSED outside it.
func checkServedAnswers(t *testing.T, exchange exchangeFunc) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	www := dnswire.MustName("www.example.test")
	cases := []struct {
		name    string
		qname   dnswire.Name
		do      bool
		rcode   dnswire.RCode
		aa      bool
		wantA   bool
		wantSig bool
	}{
		{"answer with DO", www, true, dnswire.RCodeNoError, true, true, true},
		{"answer without DO", www, false, dnswire.RCodeNoError, true, true, false},
		{"nxdomain", dnswire.MustName("missing.example.test"), true, dnswire.RCodeNXDomain, true, false, false},
		{"foreign name", dnswire.MustName("elsewhere.invalid"), true, dnswire.RCodeRefused, false, false, false},
	}
	for i, tc := range cases {
		q := dnswire.NewQuery(uint16(10+i), tc.qname, dnswire.TypeA)
		q.OPT.DO = tc.do
		resp, err := exchange(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var haveA, haveSig bool
		for _, rr := range resp.Answer {
			switch rr.Type() {
			case dnswire.TypeA:
				haveA = true
			case dnswire.TypeRRSIG:
				haveSig = true
			}
		}
		if resp.ID != q.ID || resp.RCode != tc.rcode || resp.Authoritative != tc.aa ||
			haveA != tc.wantA || haveSig != tc.wantSig {
			t.Errorf("%s: id=%d rcode=%s aa=%t A=%t RRSIG=%t, want id=%d rcode=%s aa=%t A=%t RRSIG=%t",
				tc.name, resp.ID, resp.RCode, resp.Authoritative, haveA, haveSig,
				q.ID, tc.rcode, tc.aa, tc.wantA, tc.wantSig)
		}
	}
}

func TestServeUDPEndToEnd(t *testing.T) {
	udpAddr, _ := startFrontDoor(t)
	checkServedAnswers(t, func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		return transport.QueryUDP(ctx, udpAddr, q)
	})
}

func TestQueryTCP(t *testing.T) {
	_, tcpAddr := startFrontDoor(t)
	checkServedAnswers(t, func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		return transport.QueryTCP(ctx, tcpAddr, q)
	})
}

func bigQuery(id uint16) *dnswire.Message {
	q := dnswire.NewQuery(id, dnswire.MustName("big.example.test"), dnswire.TypeTXT)
	q.OPT.UDPSize = 512
	return q
}

// TestServeUDPTruncates: an answer too big for the client's UDP buffer
// comes back with TC set.
func TestServeUDPTruncates(t *testing.T) {
	udpAddr, _ := startFrontDoor(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := transport.QueryUDP(ctx, udpAddr, bigQuery(9))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Error("oversized UDP answer not truncated")
	}
}

// TestTruncationFallbackToTCP: after a truncated UDP answer the same
// question over TCP returns the whole RRset — the fallback that makes
// large signed answers usable.
func TestTruncationFallbackToTCP(t *testing.T) {
	udpAddr, tcpAddr := startFrontDoor(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	q := bigQuery(22)
	resp, err := transport.QueryUDP(ctx, udpAddr, q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Error("oversized UDP answer not truncated")
	}
	resp, err = transport.QueryTCP(ctx, tcpAddr, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || len(resp.Answer) != 40 {
		t.Errorf("TCP answer: tc=%t answers=%d, want the full 40-record RRset", resp.Truncated, len(resp.Answer))
	}
}

// TestTCPMultipleQueriesPerConnection: one TCP connection carries several
// queries in turn, each answered with its own ID.
func TestTCPMultipleQueriesPerConnection(t *testing.T) {
	_, tcpAddr := startFrontDoor(t)
	conn, err := net.Dial("tcp", tcpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		q := dnswire.NewQuery(uint16(30+i), dnswire.MustName("example.test"), dnswire.TypeA)
		if err := q.WriteStream(conn); err != nil {
			t.Fatal(err)
		}
		resp, err := dnswire.ReadStream(conn)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != q.ID || len(resp.Answer) == 0 {
			t.Errorf("query %d: id=%d answers=%d, want id=%d and an answer", i, resp.ID, len(resp.Answer), q.ID)
		}
	}
}
