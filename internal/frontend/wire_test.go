package frontend

import (
	"bytes"
	"context"
	"strconv"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// wireQueryMsg builds a client query in one of the three EDNS classes the
// wire cache distinguishes: no EDNS, EDNS without DO, EDNS with DO.
func wireQueryMsg(id uint16, name string, cd bool, edns, do bool) *dnswire.Message {
	m := &dnswire.Message{
		ID:               id,
		RecursionDesired: true,
		CheckingDisabled: cd,
		Question:         []dnswire.Question{{Name: dnswire.MustName(name), Type: dnswire.TypeA, Class: dnswire.ClassIN}},
	}
	if edns {
		m.OPT = &dnswire.OPT{UDPSize: 1232, DO: do}
	}
	return m
}

// dnssecAnswer is an upstream answer carrying an RRSIG, so the DO/no-DO
// variants of the reply genuinely differ.
func dnssecAnswer(qname dnswire.Name, ttl uint32) *dnswire.Message {
	m := positive(qname, ttl)
	m.AuthenticData = true
	m.Answer = append(m.Answer, dnswire.RR{
		Name: qname, Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.RRSIG{
			TypeCovered: dnswire.TypeA, Algorithm: 13, Labels: 2, OriginalTTL: ttl,
			Expiration: 1700000000, Inception: 1690000000, KeyTag: 12345,
			SignerName: dnswire.MustName("example."), Signature: []byte{1, 2, 3, 4},
		},
	})
	return m
}

// serveBoth answers q via the slow path and the wire fast path at the same
// instant, returning both packed responses. The slow path runs twice: when
// the first call fills (or refills) the cache, the second is the cache hit
// that captures the wire image.
func serveBoth(t *testing.T, f *Frontend, q *dnswire.Message, limit int) (slow []byte, fast []byte, ok bool) {
	t.Helper()
	primeWire(t, f, q)
	resp, err := f.HandleDNS(context.Background(), q)
	if err != nil {
		t.Fatalf("HandleDNS: %v", err)
	}
	slow, err = resp.AppendPack(nil)
	if err != nil {
		t.Fatalf("AppendPack: %v", err)
	}
	raw, err := q.Pack()
	if err != nil {
		t.Fatalf("Pack query: %v", err)
	}
	wq, scanned := dnswire.ScanQuery(raw)
	if !scanned {
		t.Fatalf("ScanQuery rejected test query")
	}
	fast, ok = f.ServeWire(wq, limit, nil)
	return slow, fast, ok
}

// primeWire serves q once on the slow path: a cache hit, when q's answer is
// already cached, which captures the wire image of q's EDNS class.
func primeWire(t *testing.T, f *Frontend, q *dnswire.Message) {
	t.Helper()
	if _, err := f.HandleDNS(context.Background(), q); err != nil {
		t.Fatalf("HandleDNS: %v", err)
	}
}

// TestWireHitByteIdentity is the tentpole correctness gate: for every
// upstream answer shape × CD state × EDNS class, and across entry ages
// (including past the original TTL), the wire fast path must produce
// byte-identical responses to the slow path.
func TestWireHitByteIdentity(t *testing.T) {
	answers := map[string]func(dnswire.Name) *dnswire.Message{
		"positive": func(n dnswire.Name) *dnswire.Message { return positive(n, 100) },
		"dnssec":   func(n dnswire.Name) *dnswire.Message { return dnssecAnswer(n, 100) },
		"nxdomain": func(n dnswire.Name) *dnswire.Message { return nxdomain(n, 300) },
		"withEDE": func(n dnswire.Name) *dnswire.Message {
			m := positive(n, 100)
			m.AddEDE(uint16(ede.CodeStaleAnswer), "upstream note")
			return m
		},
		"shortTTL": func(n dnswire.Name) *dnswire.Message { return positive(n, 5) },
	}
	classes := []struct {
		name     string
		edns, do bool
	}{
		{"noedns", false, false},
		{"edns", true, false},
		{"edns+do", true, true},
	}
	for aname, build := range answers {
		for _, cd := range []bool{false, true} {
			for _, cl := range classes {
				name := aname + "/" + cl.name
				if cd {
					name += "/cd"
				}
				t.Run(name, func(t *testing.T) {
					clock := newClock()
					up := &stubUpstream{}
					up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
						return build(qname), nil
					})
					f := New(up, Config{Now: clock.Now})

					q := func(id uint16) *dnswire.Message { return wireQueryMsg(id, "www.example.", cd, cl.edns, cl.do) }
					// Prime: the miss fills the cache.
					primeWire(t, f, q(1))
					// Cumulative ages 0s, 3s, 7s: same-second hits, partial
					// decay, and (for the 5s-TTL case) expiry + refetch, so
					// the recapture path is byte-identical too.
					for _, age := range []time.Duration{0, 3 * time.Second, 4 * time.Second} {
						clock.Advance(age)
						slow, fast, ok := serveBoth(t, f, q(0x4242), 0xFFFF)
						if !ok {
							t.Fatalf("age %v: wire fast path declined a fresh compatible hit", age)
						}
						if !bytes.Equal(slow, fast) {
							t.Errorf("age %v: wire fast path diverged from slow path\nslow: %x\nfast: %x", age, slow, fast)
						}
					}
				})
			}
		}
	}
}

// TestWireHitPatchesIDAndRD checks the two header patches: a wire hit must
// carry the asking client's ID and RD bit, not the capturing client's.
func TestWireHitPatchesIDAndRD(t *testing.T) {
	clock := newClock()
	up := &stubUpstream{}
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return positive(qname, 100), nil
	})
	f := New(up, Config{Now: clock.Now})
	// Fill, then the first cache hit captures the EDNS image.
	primeWire(t, f, wireQueryMsg(1, "www.example.", false, true, true))
	primeWire(t, f, wireQueryMsg(1, "www.example.", false, true, true))

	q := wireQueryMsg(0xABCD, "www.example.", false, true, true)
	q.RecursionDesired = false
	raw, _ := q.Pack()
	wq, ok := dnswire.ScanQuery(raw)
	if !ok {
		t.Fatal("scan rejected")
	}
	out, ok := f.ServeWire(wq, 0xFFFF, nil)
	if !ok {
		t.Fatal("wire fast path declined")
	}
	resp, err := dnswire.Unpack(out)
	if err != nil {
		t.Fatalf("Unpack(wire response): %v", err)
	}
	if resp.ID != 0xABCD {
		t.Errorf("ID = %#x, want 0xABCD", resp.ID)
	}
	if resp.RecursionDesired {
		t.Errorf("RD = true, want false (capturing client had RD set)")
	}
}

// TestWireFallsBack enumerates the declines: miss, an entry only the
// filling miss has answered, stale entry (also after a stale slow-path
// serve), wrong class, oversized reply, the uncaptured EDNS class, and an
// error image whose EDE 13 countdown has moved on.
func TestWireFallsBack(t *testing.T) {
	clock := newClock()
	up := &stubUpstream{}
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return positive(qname, 100), nil
	})
	f := New(up, Config{Now: clock.Now})
	// Fill, then the first cache hit captures the EDNS image.
	primeWire(t, f, wireQueryMsg(1, "www.example.", false, true, true))
	primeWire(t, f, wireQueryMsg(1, "www.example.", false, true, true))
	scan := func(m *dnswire.Message) dnswire.WireQuery {
		raw, _ := m.Pack()
		wq, ok := dnswire.ScanQuery(raw)
		if !ok {
			t.Fatal("scan rejected")
		}
		return wq
	}

	if _, ok := f.ServeWire(scan(wireQueryMsg(2, "other.example.", false, true, true)), 0xFFFF, nil); ok {
		t.Error("served a cache miss from the wire path")
	}
	primeWire(t, f, wireQueryMsg(1, "once.example.", false, true, true))
	if _, ok := f.ServeWire(scan(wireQueryMsg(2, "once.example.", false, true, true)), 0xFFFF, nil); ok {
		t.Error("served an image captured from the miss that filled the entry (only cache hits capture)")
	}
	if _, ok := f.ServeWire(scan(wireQueryMsg(2, "www.example.", false, false, false)), 0xFFFF, nil); ok {
		t.Error("served the never-captured no-EDNS class")
	}
	wq := scan(wireQueryMsg(2, "www.example.", false, true, true))
	if _, ok := f.ServeWire(wq, 40, nil); ok {
		t.Error("served a reply larger than the limit (truncation is the slow path's job)")
	}
	wrongClass := wq
	wrongClass.Class = dnswire.ClassCH
	if _, ok := f.ServeWire(wrongClass, 0xFFFF, nil); ok {
		t.Error("served a non-IN class query")
	}
	clock.Advance(101 * time.Second) // past TTL: entry is stale now
	if _, ok := f.ServeWire(wq, 0xFFFF, nil); ok {
		t.Error("served a stale entry from the wire path (stale serves carry EDE 3)")
	}

	// A stale serve follows a failed refresh attempt and is never
	// captured: the entry keeps declining after the slow path served it.
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return nil, context.DeadlineExceeded
	})
	if _, err := f.HandleDNS(context.Background(), wireQueryMsg(3, "www.example.", false, true, true)); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.ServeWire(wq, 0xFFFF, nil); ok {
		t.Error("served a stale entry from the wire path after a stale slow-path serve")
	}

	// An error image is served only within the second its EDE 13
	// countdown was captured in.
	f2 := New(up, Config{Now: clock.Now, StaleWindow: -1})
	errQ := wireQueryMsg(1, "err.example.", false, true, true)
	if _, err := f2.HandleDNS(context.Background(), errQ); err != nil {
		t.Fatal(err)
	}
	ewq := scan(wireQueryMsg(2, "err.example.", false, true, true))
	if _, ok := f2.ServeWire(ewq, 0xFFFF, nil); ok {
		t.Error("served the first failure's entry before any error-cache serve captured it")
	}
	if _, err := f2.HandleDNS(context.Background(), errQ); err != nil {
		t.Fatal(err)
	}
	if _, ok := f2.ServeWire(ewq, 0xFFFF, nil); !ok {
		t.Error("declined an error image within the second it was captured in")
	}
	clock.Advance(time.Second)
	if _, ok := f2.ServeWire(ewq, 0xFFFF, nil); ok {
		t.Error("served an error image after its EDE 13 countdown changed")
	}
}

// TestWireHitAllocGate is the CI alloc gate: a full fast-path serve —
// scanning the raw query plus ServeWire into a ready buffer — stays within
// 2 allocations (the qname cache-key string is the only mandatory one).
func TestWireHitAllocGate(t *testing.T) {
	clock := newClock()
	up := &stubUpstream{}
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return dnssecAnswer(qname, 300), nil
	})
	f := New(up, Config{Now: clock.Now})
	// Fill, then the first cache hit captures the EDNS image.
	primeWire(t, f, wireQueryMsg(1, "www.example.", false, true, true))
	primeWire(t, f, wireQueryMsg(1, "www.example.", false, true, true))
	clock.Advance(2 * time.Second) // force the TTL patch loop to run
	raw, _ := wireQueryMsg(0x7777, "www.example.", false, true, true).Pack()
	dst := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(500, func() {
		wq, ok := dnswire.ScanQuery(raw)
		if !ok {
			t.Fatal("scan rejected")
		}
		if _, ok := f.ServeWire(wq, 0xFFFF, dst); !ok {
			t.Fatal("wire fast path declined")
		}
	})
	if allocs > 2 {
		t.Errorf("wire hit path allocates %.1f times per op, want <= 2", allocs)
	}
}

// TestWireHitCountsMetrics checks a wire hit is indistinguishable from a
// slow-path hit in the serving metrics, and additionally counted under
// WireHits and the entry's EDE emissions.
func TestWireHitCountsMetrics(t *testing.T) {
	clock := newClock()
	up := &stubUpstream{}
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		m := positive(qname, 100)
		m.AddEDE(uint16(ede.CodeStaleAnswer), "carried through")
		return m, nil
	})
	f := New(up, Config{Now: clock.Now})
	// Fill, then the first cache hit captures the EDNS image.
	primeWire(t, f, wireQueryMsg(1, "www.example.", false, true, true))
	primeWire(t, f, wireQueryMsg(1, "www.example.", false, true, true))
	raw, _ := wireQueryMsg(2, "www.example.", false, true, true).Pack()
	wq, _ := dnswire.ScanQuery(raw)
	if _, ok := f.ServeWire(wq, 0xFFFF, nil); !ok {
		t.Fatal("wire fast path declined")
	}
	snap := f.Metrics().Snapshot()
	if snap.Queries != 3 || snap.Hits != 2 || snap.WireHits != 1 {
		t.Errorf("metrics = %d queries / %d hits / %d wire hits, want 3/2/1",
			snap.Queries, snap.Hits, snap.WireHits)
	}
	if got := snap.EDECounts[uint16(ede.CodeStaleAnswer)]; got != 3 {
		t.Errorf("EDE 3 emissions = %d, want 3 (slow-path fill + slow-path hit + wire hit)", got)
	}

	// An error-cache hit served from the wire moves every serving counter
	// and every EDE emission (13 included) exactly as a slow-path hit
	// does: two frontends see the same traffic, one answering its last
	// hit on the slow path and one from the wire image.
	servfailUp := &stubUpstream{}
	servfailUp.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		m := servfail(qname)
		m.AddEDE(uint16(ede.CodeDNSSECBogus), "signature expired")
		m.AddEDE(uint16(ede.CodeSignatureExpired), "")
		return m, nil
	})
	errQ := wireQueryMsg(1, "err.example.", false, true, true)
	raw, _ = wireQueryMsg(2, "err.example.", false, true, true).Pack()
	errWQ, _ := dnswire.ScanQuery(raw)
	serve := func(wire bool) *telemetry.Registry {
		f := New(servfailUp, Config{Now: clock.Now})
		reg := telemetry.NewRegistry()
		f.RegisterMetrics(reg)
		for i := 0; i < 2; i++ { // first failure, then the capturing error-cache hit
			if _, err := f.HandleDNS(context.Background(), errQ); err != nil {
				t.Fatal(err)
			}
		}
		if !wire {
			if _, err := f.HandleDNS(context.Background(), errQ); err != nil {
				t.Fatal(err)
			}
		} else if _, ok := f.ServeWire(errWQ, 0xFFFF, nil); !ok {
			t.Fatal("wire fast path declined a captured error image")
		}
		return reg
	}
	slowReg, wireReg := serve(false), serve(true)
	events := []string{"hit", "error_serve", "miss", "wire_hit"}
	codes := []string{"unassigned"}
	for c := 0; c < edeCodeSlots-1; c++ {
		codes = append(codes, strconv.Itoa(c))
	}
	if sv, _ := slowReg.Value("edelab_frontend_queries_total"); sv != 3 {
		t.Errorf("slow path queries_total = %v, want 3", sv)
	}
	if wv, _ := wireReg.Value("edelab_frontend_queries_total"); wv != 3 {
		t.Errorf("wire path queries_total = %v, want 3", wv)
	}
	for _, ev := range events {
		l := telemetry.L("event", ev)
		sv, _ := slowReg.Value("edelab_frontend_cache_events_total", l)
		wv, _ := wireReg.Value("edelab_frontend_cache_events_total", l)
		want := sv
		if ev == "wire_hit" {
			want = sv + 1
		}
		if wv != want {
			t.Errorf("error hit: cache event %s = %v on the wire path, want %v (slow path %v)", ev, wv, want, sv)
		}
	}
	if hits, _ := wireReg.Value("edelab_frontend_cache_events_total", telemetry.L("event", "error_serve")); hits != 2 {
		t.Errorf("error_serve = %v, want 2 (one slow-path, one wire error-cache hit)", hits)
	}
	for _, c := range codes {
		l := telemetry.L("code", c)
		sv, _ := slowReg.Value("edelab_frontend_ede_emissions_total", l)
		wv, _ := wireReg.Value("edelab_frontend_ede_emissions_total", l)
		if sv != wv {
			t.Errorf("error hit: EDE %s emissions = %v on the wire path, %v on the slow path", c, wv, sv)
		}
	}
	if n, _ := wireReg.Value("edelab_frontend_ede_emissions_total", telemetry.L("code", "13")); n != 2 {
		t.Errorf("EDE 13 emissions = %v, want 2 (slow-path and wire error-cache hits)", n)
	}
}
