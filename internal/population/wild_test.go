package population

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/resolver"
)

func smallWild(t *testing.T) *Wild {
	t.Helper()
	pop := Generate(Config{TotalDomains: 1515, Seed: 77})
	w, err := Materialize(pop)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMaterializeRegistersInfrastructure(t *testing.T) {
	w := smallWild(t)
	if len(w.Roots) != 1 || len(w.Anchor) != 1 {
		t.Fatalf("roots=%d anchor=%d", len(w.Roots), len(w.Anchor))
	}
	// Every domain must be indexed.
	for _, d := range w.Pop.Domains[:50] {
		if got, ok := w.Lookup(d.Name); !ok || got != d {
			t.Fatalf("index missing %s", d.Name)
		}
	}
	if _, ok := w.Lookup(dnswire.MustName("absent.zzz")); ok {
		t.Error("index returned a nonexistent domain")
	}
}

func TestWildClock(t *testing.T) {
	w := smallWild(t)
	t0 := w.Now()
	w.AdvanceClock(2 * time.Hour)
	if got := w.Now().Sub(t0); got != 2*time.Hour {
		t.Errorf("clock advanced %v", got)
	}
}

func TestWarmupDomainsAreStaleClass(t *testing.T) {
	w := smallWild(t)
	warm := w.WarmupDomains()
	if len(warm) == 0 {
		t.Fatal("no warmup domains")
	}
	for _, name := range warm {
		d, ok := w.Lookup(name)
		if !ok || d.Class != ClassStale {
			t.Errorf("%s: class %v", name, d.Class)
		}
	}
}

func TestTLDServerReferral(t *testing.T) {
	w := smallWild(t)
	var healthy *Domain
	for _, d := range w.Pop.Domains {
		if d.Class == ClassHealthy && !d.TLD.special() {
			healthy = d
			break
		}
	}
	if healthy == nil {
		t.Fatal("no healthy domain")
	}
	q := dnswire.NewQuery(1, healthy.Name, dnswire.TypeA)
	resp, err := w.Net.Query(context.Background(), healthy.TLD.Addr, q)
	if err != nil {
		t.Fatal(err)
	}
	var ns, proof int
	for _, rr := range resp.Authority {
		switch rr.Type() {
		case dnswire.TypeNS:
			ns++
		case dnswire.TypeNSEC3, dnswire.TypeNSEC:
			proof++
		}
	}
	if ns == 0 || len(resp.Additional) == 0 {
		t.Errorf("referral: ns=%d glue=%d", ns, len(resp.Additional))
	}
	if proof == 0 {
		t.Error("unsigned delegation referral lacks the insecure proof")
	}
}

func TestTLDServerDNSKEY(t *testing.T) {
	w := smallWild(t)
	tld := w.Pop.TLDs[0]
	q := dnswire.NewQuery(2, tld.Name, dnswire.TypeDNSKEY)
	resp, err := w.Net.Query(context.Background(), tld.Addr, q)
	if err != nil {
		t.Fatal(err)
	}
	var keys, sigs int
	for _, rr := range resp.Answer {
		switch rr.Type() {
		case dnswire.TypeDNSKEY:
			keys++
		case dnswire.TypeRRSIG:
			sigs++
		}
	}
	if keys < 2 || sigs < 2 {
		t.Errorf("DNSKEY answer: keys=%d sigs=%d", keys, sigs)
	}
	// The response must be cached: a second query returns the same set.
	resp2, err := w.Net.Query(context.Background(), tld.Addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Answer) != len(resp.Answer) {
		t.Error("DNSKEY answer not stable across queries")
	}
}

func TestTLDServerStandbyPublishesExtraKSK(t *testing.T) {
	w := smallWild(t)
	var standby *TLD
	for _, tld := range w.Pop.TLDs {
		if tld.Standby {
			standby = tld
			break
		}
	}
	if standby == nil {
		t.Fatal("no standby TLD")
	}
	q := dnswire.NewQuery(3, standby.Name, dnswire.TypeDNSKEY)
	resp, err := w.Net.Query(context.Background(), standby.Addr, q)
	if err != nil {
		t.Fatal(err)
	}
	sep := 0
	signedBy := map[uint16]bool{}
	var seps []dnswire.DNSKEY
	for _, rr := range resp.Answer {
		switch d := rr.Data.(type) {
		case dnswire.DNSKEY:
			if d.IsSEP() {
				sep++
				seps = append(seps, d)
			}
		case dnswire.RRSIG:
			signedBy[d.KeyTag] = true
		}
	}
	if sep != 2 {
		t.Fatalf("SEP keys = %d, want active + standby", sep)
	}
	unsigned := 0
	for _, k := range seps {
		if !signedBy[k.KeyTag()] {
			unsigned++
		}
	}
	if unsigned != 1 {
		t.Errorf("stand-by keys without covering RRSIG = %d, want 1", unsigned)
	}
}

func TestTLDServerRefusesForeign(t *testing.T) {
	w := smallWild(t)
	tld := w.Pop.TLDs[0]
	q := dnswire.NewQuery(4, dnswire.MustName("elsewhere.invalid"), dnswire.TypeA)
	resp, err := w.Net.Query(context.Background(), tld.Addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %s", resp.RCode)
	}
}

func TestTLDServerUnknownChildReferral(t *testing.T) {
	w := smallWild(t)
	tld := w.Pop.TLDs[0]
	q := dnswire.NewQuery(5, tld.Name.Child("never-registered"), dnswire.TypeA)
	resp, err := w.Net.Query(context.Background(), tld.Addr, q)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown children still get a (provider-backed) referral; the
	// provider answers NXDOMAIN.
	hasNS := false
	for _, rr := range resp.Authority {
		if rr.Type() == dnswire.TypeNS {
			hasNS = true
		}
	}
	if !hasNS {
		t.Error("no referral for unknown child")
	}
}

func TestProviderServesSignedDomain(t *testing.T) {
	w := smallWild(t)
	var signed *Domain
	for _, d := range w.Pop.Domains {
		if d.Class == ClassHealthySigned {
			signed = d
			break
		}
	}
	if signed == nil {
		t.Skip("no healthy-signed domain at this seed")
	}
	addr := w.providerFor(signed)

	q := dnswire.NewQuery(6, signed.Name, dnswire.TypeA)
	resp, err := w.Net.Query(context.Background(), addr, q)
	if err != nil {
		t.Fatal(err)
	}
	var a, sig bool
	for _, rr := range resp.Answer {
		switch rr.Type() {
		case dnswire.TypeA:
			a = true
		case dnswire.TypeRRSIG:
			sig = true
		}
	}
	if !a || !sig {
		t.Errorf("signed answer: a=%t sig=%t", a, sig)
	}

	q = dnswire.NewQuery(7, signed.Name, dnswire.TypeDNSKEY)
	resp, err = w.Net.Query(context.Background(), addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answer) < 3 {
		t.Errorf("DNSKEY answer records = %d", len(resp.Answer))
	}
}

func TestChildOf(t *testing.T) {
	tld := dnswire.MustName("com")
	cases := []struct{ in, want string }{
		{"d1.com", "d1.com."},
		{"ns1.d1.com", "d1.com."},
		{"deep.ns1.d1.com", "d1.com."},
	}
	for _, c := range cases {
		if got := childOf(dnswire.MustName(c.in), tld); string(got) != c.want {
			t.Errorf("childOf(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestWindowFor(t *testing.T) {
	for _, c := range []struct {
		w    SigWindow
		past bool
	}{{WindowValid, false}, {WindowExpired, true}, {WindowFuture, false}} {
		inc, exp := windowFor(c.w)
		if inc >= exp {
			t.Errorf("window %v: inception %d >= expiration %d", c.w, inc, exp)
		}
		if c.past && exp >= ScanTime {
			t.Errorf("expired window ends at %d, after scan time", exp)
		}
	}
}

// TestNSECDenialTLDsServeNSECProofs pins the denial-flavour split.
func TestNSECDenialTLDsServeNSECProofs(t *testing.T) {
	w := smallWild(t)
	var checked int
	for _, d := range w.Pop.Domains {
		if checked >= 2 || d.Class != ClassHealthy || !d.TLD.NSECDenial || d.TLD.special() {
			continue
		}
		checked++
		q := dnswire.NewQuery(9, d.Name, dnswire.TypeA)
		resp, err := w.Net.Query(context.Background(), d.TLD.Addr, q)
		if err != nil {
			t.Fatal(err)
		}
		var nsec, nsec3 int
		for _, rr := range resp.Authority {
			switch rr.Type() {
			case dnswire.TypeNSEC:
				nsec++
			case dnswire.TypeNSEC3:
				nsec3++
			}
		}
		if nsec == 0 || nsec3 != 0 {
			t.Errorf("%s: nsec=%d nsec3=%d, want plain NSEC proof", d.Name, nsec, nsec3)
		}
	}
	if checked == 0 {
		t.Skip("no healthy domain under an NSEC TLD at this seed")
	}
}

// TestNSEC3TLDsServeOptOutSpans: an NSEC3 TLD proves every unsigned
// delegation with its apex NSEC3 and the opt-out span covering the child,
// and signs each span once, so referrals share signatures.
func TestNSEC3TLDsServeOptOutSpans(t *testing.T) {
	// Large enough that an NSEC3 TLD has several DS-bearing children.
	w, err := Materialize(Generate(Config{TotalDomains: 30300, Seed: 42}))
	if err != nil {
		t.Fatal(err)
	}
	// The ordinary NSEC3 TLD with the most DS-bearing children.
	signedUnder := make(map[*TLD]int)
	for _, d := range w.Pop.Domains {
		if d.Keys != nil {
			signedUnder[d.TLD]++
		}
	}
	var tld *TLD
	for _, cand := range w.Pop.TLDs {
		if !cand.NSECDenial && !cand.special() &&
			(tld == nil || signedUnder[cand] > signedUnder[tld]) {
			tld = cand
		}
	}
	if tld == nil {
		t.Fatal("no ordinary NSEC3 TLD at this seed")
	}
	signed := signedUnder[tld]
	apexOwner := tld.Name.Child(dnswire.Base32HexNoPad(dnssec.NSEC3Hash(tld.Name, 0, nil)))
	owners := make(map[dnswire.Name]bool)
	sigs := make(map[string]bool)
	var unsigned []dnswire.Name
	for _, d := range w.Pop.Domains {
		if d.TLD == tld && d.Keys == nil {
			unsigned = append(unsigned, d.Name)
		}
	}
	referrals := len(unsigned)
	// Referrals are served concurrently, as in a scan: the spans' lazy
	// signing is shared state (run under -race).
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(unsigned); i += 8 {
				resp, err := w.Net.Query(context.Background(), tld.Addr, dnswire.NewQuery(9, unsigned[i], dnswire.TypeA))
				if err != nil {
					t.Error(err)
					return
				}
				var haveApex bool
				var nsec3 int
				mu.Lock()
				for _, rr := range resp.Authority {
					switch data := rr.Data.(type) {
					case dnswire.NSEC3:
						nsec3++
						owners[rr.Name] = true
						haveApex = haveApex || rr.Name == apexOwner
						if data.Flags&dnswire.NSEC3FlagOptOut == 0 {
							t.Errorf("%s: NSEC3 %s lacks the opt-out flag", unsigned[i], rr.Name)
						}
					case dnswire.RRSIG:
						sigs[string(data.Signature)] = true
					}
				}
				mu.Unlock()
				if !haveApex || nsec3 < 1 || nsec3 > 2 {
					t.Errorf("%s: %d NSEC3 records (apex present: %v), want the apex plus at most one span", unsigned[i], nsec3, haveApex)
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%s: %d referrals, %d NSEC3 owners, %d DS-bearing children", tld.Name, referrals, len(owners), signed)
	if len(owners) > signed+1 || len(sigs) != len(owners) {
		t.Errorf("%d referrals used %d NSEC3 owners and %d signatures; the chain has %d links, each signed once",
			referrals, len(owners), len(sigs), signed+1)
	}
}

func TestClassStrings(t *testing.T) {
	for c := ClassHealthy; c < numClasses; c++ {
		if s := c.String(); s == "" || s[0] == 'C' {
			t.Errorf("class %d unnamed: %q", int(c), s)
		}
	}
}

// TestTLDKeyTagCollision forces a TLD's KSK and ZSK to share a key tag, as
// about one Materialize in fifty does by chance. Referrals through that TLD
// are signed by the ZSK, and a validator trying only the first key with the
// tag (the KSK) judged them bogus: d000002.net flipped from NOERROR to
// SERVFAIL with EDE 6.
func TestTLDKeyTagCollision(t *testing.T) {
	// Birthday search over KSK/ZSK pairs: ~1000 of each give ~15 collisions.
	ksks := make(map[uint16]*dnssec.KeyPair)
	var ksk, zsk *dnssec.KeyPair
	for i := 0; i < 20000 && zsk == nil; i++ {
		k, err := dnssec.GenerateKey(dnssec.AlgED25519, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP, 0)
		if err != nil {
			t.Fatal(err)
		}
		ksks[k.KeyTag()] = k
		z, err := dnssec.GenerateKey(dnssec.AlgED25519, dnswire.DNSKEYFlagZone, 0)
		if err != nil {
			t.Fatal(err)
		}
		if match, ok := ksks[z.KeyTag()]; ok {
			ksk, zsk = match, z
		}
	}
	if zsk == nil {
		t.Fatal("no KSK/ZSK key-tag collision in 20000 pairs")
	}

	gen := tldKeys
	defer func() { tldKeys = gen }()
	tldKeys = func(tld *TLD) (*dnssec.KeyPair, *dnssec.KeyPair, error) {
		if tld.Label == "net" {
			return ksk, zsk, nil
		}
		return gen(tld)
	}
	w, err := Materialize(Generate(Config{TotalDomains: 3030, Seed: 42}))
	if err != nil {
		t.Fatal(err)
	}
	name := dnswire.MustName("d000002.net")
	if d, ok := w.Lookup(name); !ok || d.Class != ClassHealthy || d.TLD.NSECDenial {
		t.Fatalf("%s is not a healthy domain under an NSEC3 TLD in this population", name)
	}
	r := resolver.New(w.Net, w.Roots, w.Anchor, resolver.ProfileCloudflare())
	r.Now = w.Now
	res := r.Resolve(context.Background(), name, dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNoError || len(res.Msg.Answer) == 0 {
		t.Fatalf("%s through a TLD whose KSK and ZSK share tag %d: rcode %s, conditions %v",
			name, zsk.KeyTag(), res.Msg.RCode, res.Conditions)
	}
}
