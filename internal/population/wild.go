package population

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/authserver"
	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

// Timing constants shared by the wild infrastructure (same epoch as the
// testbed: valid signatures straddle ScanTime).
const (
	ScanTime       uint32 = 1750000000
	wildInception  uint32 = 1700000000
	wildExpiration uint32 = 1800000000
	pastInception  uint32 = 1600000000
	pastExpiration uint32 = 1650000000
	futInception   uint32 = 1900000000
	futExpiration  uint32 = 1950000000
)

// Wild is the materialized synthetic Internet: a signed root, one server
// per TLD, provider endpoints for healthy domains, and the §4.2 menagerie
// of broken nameservers.
type Wild struct {
	Net    *netsim.Network
	Roots  []netip.Addr
	Anchor []dnswire.DS
	Pop    *Population

	// offset shifts the scan instant; the scan harness advances it between
	// the cache-warmup pass and the measurement pass. It is an atomic
	// nanosecond count because every resolution reads the clock — a mutex
	// here was a global serialization point for the whole worker pool.
	offset atomic.Int64

	providers []netip.Addr
	index     map[dnswire.Name]*Domain
}

// Now is the wild clock (ScanTime plus any offset set by AdvanceClock).
func (w *Wild) Now() time.Time {
	return time.Unix(int64(ScanTime), 0).Add(time.Duration(w.offset.Load()))
}

// AdvanceClock moves the wild clock forward (used between the warmup and
// measurement passes so warmed cache entries expire into stale range).
func (w *Wild) AdvanceClock(d time.Duration) {
	w.offset.Add(int64(d))
}

// WarmupDomains lists the domains whose resolutions must be primed before
// the scan — the stale-answer class, standing in for the background client
// traffic that populated Cloudflare's shared cache in the real measurement.
func (w *Wild) WarmupDomains() []dnswire.Name {
	var out []dnswire.Name
	for _, d := range w.Pop.Domains {
		if d.Class == ClassStale {
			out = append(out, d.Name)
		}
	}
	return out
}

// Lookup returns the domain spec for a name.
func (w *Wild) Lookup(name dnswire.Name) (*Domain, bool) {
	d, ok := w.index[name]
	return d, ok
}

// Materialize wires the population onto a fresh simulated network.
func Materialize(pop *Population) (*Wild, error) {
	w := &Wild{
		Net:   netsim.New(pop.Config.Seed ^ 0x57494C44), // "WILD"
		Pop:   pop,
		index: make(map[dnswire.Name]*Domain, len(pop.Domains)),
	}
	for _, d := range pop.Domains {
		w.index[d.Name] = d
	}

	// Provider pool for healthy domains.
	for i := 0; i < 16; i++ {
		w.providers = append(w.providers, netip.AddrFrom4([4]byte{198, 21, 0, byte(i + 1)}))
	}

	// Signing material for signed wild classes.
	if err := buildChildKeys(pop); err != nil {
		return nil, err
	}

	// Root zone with one delegation per TLD.
	rootAddr := netip.AddrFrom4([4]byte{198, 18, 0, 1})
	root := zone.New(dnswire.Root, 86400)
	root.AddNS(dnswire.MustName("a.root-servers.net"), rootAddr)

	signedChildren := make(map[*TLD][]dnswire.Name)
	for _, d := range pop.Domains {
		if d.Keys != nil {
			signedChildren[d.TLD] = append(signedChildren[d.TLD], d.Name)
		}
	}
	tldServers := make([]*tldServer, 0, len(pop.TLDs))
	for _, t := range pop.TLDs {
		srv, err := newTLDServer(w, t, signedChildren[t])
		if err != nil {
			return nil, err
		}
		tldServers = append(tldServers, srv)
		nsHost := t.Name.Child("ns")
		root.AddDelegation(t.Name, map[dnswire.Name][]netip.Addr{nsHost: {t.Addr}})
		root.AddDS(t.Name, srv.ds)
	}
	if err := root.Sign(zone.SignOptions{
		Algorithm: dnssec.AlgED25519,
		Inception: wildInception, Expiration: wildExpiration,
	}); err != nil {
		return nil, err
	}
	anchor, err := root.DS(dnssec.DigestSHA256)
	if err != nil {
		return nil, err
	}
	w.Roots = []netip.Addr{rootAddr}
	w.Anchor = anchor
	w.Net.Register(rootAddr, authserver.New(root))
	for _, srv := range tldServers {
		w.Net.Register(srv.tld.Addr, srv)
	}

	// Provider endpoints.
	provider := &providerServer{wild: w}
	for _, addr := range w.providers {
		w.Net.Register(addr, provider)
	}
	// Shared special endpoints.
	w.Net.Register(invalidDataAddr, netsim.MismatchedQuestion(provider))
	w.Net.Register(notAuthAddr, netsim.StaticRCode(dnswire.RCodeNotAuth))

	// Broken nameservers.
	for _, ns := range pop.BrokenNS {
		switch ns.Behavior {
		case "refused":
			w.Net.Register(ns.Addr, netsim.StaticRCode(dnswire.RCodeRefused))
		case "servfail":
			w.Net.Register(ns.Addr, netsim.StaticRCode(dnswire.RCodeServFail))
		default:
			// timeout: leave unregistered — silence.
		}
	}

	// Dying endpoints for the stale class: answer once (the warmup), then
	// go dark.
	staleIdx := 0
	for _, d := range pop.Domains {
		if d.Class != ClassStale {
			continue
		}
		addr := netip.AddrFrom4([4]byte{198, 21, 1, byte(staleIdx%250 + 1)})
		staleIdx++
		var broken netsim.Handler
		if staleIdx%3 == 0 {
			broken = netsim.StaticRCode(dnswire.RCodeRefused) // → EDE 3,22,23
		} else {
			broken = netsim.Unresponsive() // → EDE 3,22
		}
		w.Net.Register(addr, netsim.DieAfter(1, provider, broken))
		d.staleAddr = addr
	}
	return w, nil
}

var invalidDataAddr = netip.AddrFrom4([4]byte{198, 21, 2, 1})
var notAuthAddr = netip.AddrFrom4([4]byte{198, 21, 2, 2})

// nsAddrsFor returns the nameserver addresses the TLD publishes as glue for
// a domain, ordered deterministically.
func (w *Wild) nsAddrsFor(d *Domain) []netip.Addr {
	switch d.Class {
	case ClassLameTimeout, ClassLameRefused, ClassLameServfail:
		return []netip.Addr{w.Pop.BrokenNS[d.BrokenNS].Addr}
	case ClassPartialUpstream:
		// Broken server listed first: the resolver hits it, records the
		// Network Error advisory, then succeeds on the provider.
		return []netip.Addr{w.Pop.BrokenNS[d.BrokenNS].Addr, w.providerFor(d)}
	case ClassInvalidData:
		return []netip.Addr{invalidDataAddr}
	case ClassCachedError:
		return []netip.Addr{notAuthAddr}
	case ClassStale:
		return []netip.Addr{d.staleAddr}
	default:
		return []netip.Addr{w.providerFor(d)}
	}
}

func (w *Wild) providerFor(d *Domain) netip.Addr {
	h := 0
	for _, c := range string(d.Name) {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return w.providers[h%len(w.providers)]
}

// buildChildKeys creates DNSSEC material for every signed wild domain.
func buildChildKeys(pop *Population) error {
	unsupportedRotation := 0
	for _, d := range pop.Domains {
		var alg dnssec.Algorithm
		var bits int
		digest := dnssec.DigestSHA256
		window := WindowValid
		mismatch := false

		switch d.Class {
		case ClassHealthySigned:
			alg = dnssec.AlgED25519
		case ClassSigExpired:
			alg, window = dnssec.AlgED25519, WindowExpired
		case ClassSigNotYet:
			alg, window = dnssec.AlgED25519, WindowFuture
		case ClassDNSKEYMismatch:
			alg, mismatch = dnssec.AlgED25519, true
		case ClassUnsupportedDigest:
			alg, digest = dnssec.AlgED25519, dnssec.DigestGOST
		case ClassUnsupportedAlg:
			// Rotate through the §4.2 item 7 causes: GOST, Ed448, weak RSA.
			switch unsupportedRotation % 3 {
			case 0:
				alg = dnssec.AlgECCGOST
			case 1:
				alg = dnssec.AlgED448
			default:
				alg, bits = dnssec.AlgRSASHA256, 512
			}
			unsupportedRotation++
		default:
			continue
		}

		ksk, err := dnssec.GenerateKey(alg, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP, bits)
		if err != nil {
			return err
		}
		zsk, err := dnssec.GenerateKey(alg, dnswire.DNSKEYFlagZone, bits)
		if err != nil {
			return err
		}
		dsKey := ksk
		if mismatch {
			// The DS points at a retired key that is no longer published.
			if dsKey, err = dnssec.GenerateKey(alg, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP, bits); err != nil {
				return err
			}
		}
		ds, err := dnssec.CreateDS(d.Name, dsKey.DNSKEY(), digest)
		if err != nil {
			return err
		}
		d.Keys = &ChildKeys{KSK: ksk, ZSK: zsk, DS: ds, DigestType: digest, Window: window}
	}
	return nil
}

// --- TLD server: synthesizes referrals, DS records, and insecure proofs ---

type tldServer struct {
	wild *Wild
	tld  *TLD
	ksk  *dnssec.KeyPair
	zsk  *dnssec.KeyPair
	ds   dnswire.DS

	// chain is an NSEC3 TLD's opt-out chain in hash order: the apex plus
	// every DS-bearing child, the way large delegation-centric zones such
	// as .com deny unsigned delegations. apex is its link at the apex.
	// Both are nil for plain-NSEC and NoProof TLDs.
	chain []*nsec3Link
	apex  *nsec3Link

	mu         sync.Mutex
	dnskeyResp *dnswire.Message
}

// nsec3Link is one NSEC3 record of a TLD's chain with its RRSIG, signed on
// first use and then reused by every referral the span covers.
type nsec3Link struct {
	hash []byte
	rr   dnswire.RR
	once sync.Once
	sig  *dnswire.RR // nil when signing failed
}

// tldKeys generates a TLD's KSK and ZSK. Tests replace it to force a
// key-tag collision between the two.
var tldKeys = func(*TLD) (ksk, zsk *dnssec.KeyPair, err error) {
	if ksk, err = dnssec.GenerateKey(dnssec.AlgED25519, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP, 0); err != nil {
		return nil, nil, err
	}
	zsk, err = dnssec.GenerateKey(dnssec.AlgED25519, dnswire.DNSKEYFlagZone, 0)
	return ksk, zsk, err
}

func newTLDServer(w *Wild, t *TLD, signedChildren []dnswire.Name) (*tldServer, error) {
	ksk, zsk, err := tldKeys(t)
	if err != nil {
		return nil, err
	}
	ds, err := dnssec.CreateDS(t.Name, ksk.DNSKEY(), dnssec.DigestSHA256)
	if err != nil {
		return nil, err
	}
	s := &tldServer{wild: w, tld: t, ksk: ksk, zsk: zsk, ds: ds}
	if !t.NSECDenial && !t.NoProof {
		s.buildChain(signedChildren)
	}
	return s, nil
}

// buildChain lays out the opt-out NSEC3 chain (RFC 5155 §6): unsigned
// delegations get no record of their own, they fall inside a span.
func (s *tldServer) buildChain(signedChildren []dnswire.Name) {
	link := func(name dnswire.Name, types []dnswire.Type) *nsec3Link {
		return &nsec3Link{hash: dnssec.NSEC3Hash(name, 0, nil), rr: dnswire.RR{
			Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.NSEC3{HashAlg: dnssec.NSEC3HashSHA1, Flags: dnswire.NSEC3FlagOptOut, Types: types},
		}}
	}
	s.apex = link(s.tld.Name, []dnswire.Type{dnswire.TypeNS, dnswire.TypeSOA, dnswire.TypeRRSIG, dnswire.TypeDNSKEY, dnswire.TypeNSEC3PARAM})
	s.chain = append(s.chain, s.apex)
	for _, child := range signedChildren {
		s.chain = append(s.chain, link(child, []dnswire.Type{dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeRRSIG}))
	}
	sort.Slice(s.chain, func(i, j int) bool { return bytes.Compare(s.chain[i].hash, s.chain[j].hash) < 0 })
	for i, l := range s.chain {
		l.rr.Name = s.tld.Name.Child(dnswire.Base32HexNoPad(l.hash))
		rec := l.rr.Data.(dnswire.NSEC3)
		rec.NextHashed = s.chain[(i+1)%len(s.chain)].hash
		l.rr.Data = rec
	}
}

// covering returns the chain link whose span covers hash h: the last link
// whose owner hash sorts before h, wrapping to the final link.
func (s *tldServer) covering(h []byte) *nsec3Link {
	i := sort.Search(len(s.chain), func(i int) bool { return bytes.Compare(s.chain[i].hash, h) >= 0 })
	if i == 0 {
		return s.chain[len(s.chain)-1]
	}
	return s.chain[i-1]
}

// signed returns l's RRSIG, signing it on first use. BogusDenial TLDs
// publish a corrupted signature.
func (s *tldServer) signed(l *nsec3Link) *dnswire.RR {
	l.once.Do(func() {
		sig, err := dnssec.SignRRset([]dnswire.RR{l.rr}, s.zsk, s.tld.Name, wildInception, wildExpiration)
		if err != nil {
			return
		}
		if s.tld.BogusDenial {
			corrupt(&sig)
		}
		l.sig = &sig
	})
	return l.sig
}

// corrupt flips the first octet of an RRSIG's signature, in a copy.
func corrupt(sig *dnswire.RR) {
	data := sig.Data.(dnswire.RRSIG)
	data.Signature = append([]byte(nil), data.Signature...)
	data.Signature[0] ^= 0xFF
	sig.Data = data
}

// HandleDNS implements netsim.Handler.
func (s *tldServer) HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	resp := q.Reply()
	if len(q.Question) != 1 {
		resp.RCode = dnswire.RCodeFormErr
		return resp, nil
	}
	question := q.Question[0]
	if !question.Name.IsSubdomainOf(s.tld.Name) {
		resp.RCode = dnswire.RCodeRefused
		return resp, nil
	}
	if question.Name == s.tld.Name {
		if question.Type == dnswire.TypeDNSKEY {
			return s.dnskeyAnswer(q), nil
		}
		// Anything else at the apex: NODATA without proof; the scan never
		// asks.
		return resp, nil
	}

	// Child query → referral: NS records plus, with DO, a DS RRset or an
	// insecure proof of up to four records.
	child := childOf(question.Name, s.tld.Name)
	domain, known := s.wild.index[child]
	resp.Authority = make([]dnswire.RR, 0, 6)
	resp.Authority = append(resp.Authority, dnswire.RR{
		Name: child, Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.NS{Host: child.Child("ns1")},
	})
	var glue []netip.Addr
	if known {
		glue = s.wild.nsAddrsFor(domain)
	} else {
		glue = []netip.Addr{s.wild.providers[0]}
	}
	for i, addr := range glue {
		host := child.Child("ns1")
		if i > 0 {
			host = child.Child(fmt.Sprintf("ns%d", i+1))
			resp.Authority = append(resp.Authority, dnswire.RR{
				Name: child, Class: dnswire.ClassIN, TTL: 3600,
				Data: dnswire.NS{Host: host},
			})
		}
		resp.Additional = append(resp.Additional, dnswire.RR{
			Name: host, Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.A{Addr: addr},
		})
	}

	if q.DO() {
		if known && domain.Keys != nil {
			s.attachDS(resp, child, domain.Keys.DS)
		} else {
			s.attachInsecureProof(resp, child)
		}
	}
	return resp, nil
}

func (s *tldServer) dnskeyAnswer(q *dnswire.Message) *dnswire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dnskeyResp == nil {
		keys := []dnswire.RR{
			{Name: s.tld.Name, Class: dnswire.ClassIN, TTL: 3600, Data: s.ksk.DNSKEY()},
			{Name: s.tld.Name, Class: dnswire.ClassIN, TTL: 3600, Data: s.zsk.DNSKEY()},
		}
		signers := []*dnssec.KeyPair{s.ksk, s.zsk}
		if s.tld.Standby {
			// Publish a stand-by KSK with no covering signature (§4.2
			// item 3): validators chain through the active key, Cloudflare
			// additionally reports RRSIGs Missing as an advisory.
			standby, err := dnssec.GenerateKey(dnssec.AlgED25519, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP, 0)
			if err == nil {
				keys = append(keys, dnswire.RR{Name: s.tld.Name, Class: dnswire.ClassIN, TTL: 3600, Data: standby.DNSKEY()})
			}
		}
		msg := &dnswire.Message{Response: true, Authoritative: true,
			Question: []dnswire.Question{{Name: s.tld.Name, Type: dnswire.TypeDNSKEY, Class: dnswire.ClassIN}},
			OPT:      &dnswire.OPT{UDPSize: 1232, DO: true},
		}
		msg.Answer = append(msg.Answer, keys...)
		for _, key := range signers {
			sig, err := dnssec.SignRRset(keys, key, s.tld.Name, wildInception, wildExpiration)
			if err == nil {
				msg.Answer = append(msg.Answer, sig)
			}
		}
		s.dnskeyResp = msg
	}
	out := *s.dnskeyResp
	out.ID = q.ID
	return &out
}

func (s *tldServer) attachDS(resp *dnswire.Message, child dnswire.Name, ds dnswire.DS) {
	rr := dnswire.RR{Name: child, Class: dnswire.ClassIN, TTL: 3600, Data: ds}
	set := []dnswire.RR{rr}
	resp.Authority = append(resp.Authority, rr)
	if sig, err := dnssec.SignRRset(set, s.zsk, s.tld.Name, wildInception, wildExpiration); err == nil {
		resp.Authority = append(resp.Authority, sig)
	}
}

// attachInsecureProof adds the records proving the delegation has no DS.
// NSEC3 TLDs send the opt-out proof of RFC 5155 §7.2.4: the apex NSEC3
// (the closest encloser) and the opt-out span covering the child's hash.
// NSECDenial TLDs send a plain NSEC at the cut; NoProof TLDs omit the
// proof; BogusDenial TLDs corrupt its signatures.
func (s *tldServer) attachInsecureProof(resp *dnswire.Message, child dnswire.Name) {
	if s.tld.NoProof {
		return
	}
	if s.tld.NSECDenial {
		s.attachInsecureProofNSEC(resp, child)
		return
	}
	links := []*nsec3Link{s.apex}
	if span := s.covering(dnssec.NSEC3Hash(child, 0, nil)); span != s.apex {
		links = append(links, span)
	}
	for _, l := range links {
		resp.Authority = append(resp.Authority, l.rr)
		if sig := s.signed(l); sig != nil {
			resp.Authority = append(resp.Authority, *sig)
		}
	}
}

// attachInsecureProofNSEC is the plain-NSEC flavour of the no-DS proof: an
// NSEC record at the cut whose bitmap lacks DS.
func (s *tldServer) attachInsecureProofNSEC(resp *dnswire.Message, child dnswire.Name) {
	rec := dnswire.RR{
		Name: child, Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.NSEC{
			NextName: child.Child("\000"),
			Types:    []dnswire.Type{dnswire.TypeNS, dnswire.TypeRRSIG, dnswire.TypeNSEC},
		},
	}
	set := []dnswire.RR{rec}
	resp.Authority = append(resp.Authority, rec)
	sig, err := dnssec.SignRRset(set, s.zsk, s.tld.Name, wildInception, wildExpiration)
	if err != nil {
		return
	}
	if s.tld.BogusDenial {
		corrupt(&sig)
	}
	resp.Authority = append(resp.Authority, sig)
}

// childOf returns the direct child of tld on the path to name.
func childOf(name, tld dnswire.Name) dnswire.Name {
	labels := name.Labels()
	tldLabels := tld.LabelCount()
	childLabel := labels[len(labels)-tldLabels-1]
	return tld.Child(childLabel)
}

// --- provider server: answers for healthy and signed wild domains ---

type providerServer struct {
	wild *Wild
}

// HandleDNS implements netsim.Handler.
func (s *providerServer) HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	resp := q.Reply()
	if len(q.Question) != 1 {
		resp.RCode = dnswire.RCodeFormErr
		return resp, nil
	}
	question := q.Question[0]

	// Find the owning domain: the question is either the domain apex or a
	// host under it.
	domain, ok := s.wild.index[question.Name]
	if !ok {
		domain, ok = s.wild.index[question.Name.Parent()]
	}
	if !ok {
		resp.RCode = dnswire.RCodeNXDomain
		resp.Authoritative = true
		return resp, nil
	}
	resp.Authoritative = true
	apex := domain.Name

	switch {
	case question.Name == apex && question.Type == dnswire.TypeA:
		if domain.Class == ClassIterLoop {
			resp.Answer = append(resp.Answer, dnswire.RR{
				Name: apex, Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.CNAME{Target: apex.Child("loop")},
			})
			// The loop target aliases back to the apex.
			return resp, nil
		}
		a := dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: addrForDomain(apex)}}
		resp.Answer = append(resp.Answer, a)
		if domain.Keys != nil && q.DO() {
			inc, exp := windowFor(domain.Keys.Window)
			if sig, err := dnssec.SignRRset([]dnswire.RR{a}, domain.Keys.ZSK, apex, inc, exp); err == nil {
				resp.Answer = append(resp.Answer, sig)
			}
		}
	case question.Type == dnswire.TypeA && question.Name == apex.Child("loop"):
		resp.Answer = append(resp.Answer, dnswire.RR{
			Name: question.Name, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.CNAME{Target: apex},
		})
	case question.Name == apex && question.Type == dnswire.TypeDNSKEY && domain.Keys != nil:
		keys := []dnswire.RR{
			{Name: apex, Class: dnswire.ClassIN, TTL: 300, Data: domain.Keys.KSK.DNSKEY()},
			{Name: apex, Class: dnswire.ClassIN, TTL: 300, Data: domain.Keys.ZSK.DNSKEY()},
		}
		resp.Answer = append(resp.Answer, keys...)
		if q.DO() {
			for _, key := range []*dnssec.KeyPair{domain.Keys.KSK, domain.Keys.ZSK} {
				if sig, err := dnssec.SignRRset(keys, key, apex, wildInception, wildExpiration); err == nil {
					resp.Answer = append(resp.Answer, sig)
				}
			}
		}
	case question.Type == dnswire.TypeA && question.Name.IsSubdomainOf(apex):
		// Nameserver host addresses.
		resp.Answer = append(resp.Answer, dnswire.RR{
			Name: question.Name, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: s.wild.providerFor(domain)},
		})
	default:
		// NODATA.
	}
	return resp, nil
}

func windowFor(w SigWindow) (uint32, uint32) {
	switch w {
	case WindowExpired:
		return pastInception, pastExpiration
	case WindowFuture:
		return futInception, futExpiration
	default:
		return wildInception, wildExpiration
	}
}

// addrForDomain derives a stable answer address.
func addrForDomain(n dnswire.Name) netip.Addr {
	h := uint32(2166136261)
	for i := 0; i < len(n); i++ {
		h = (h ^ uint32(n[i])) * 16777619
	}
	return netip.AddrFrom4([4]byte{203, 0, 113, byte(h%250 + 1)})
}

// RepairTopNameservers implements the paper's §4.2 item 2 counterfactual:
// "fixing 20k nameservers would render reachable more than 81% of domain
// names". The k busiest broken nameservers are re-registered as healthy
// providers answering for their stranded domains; a re-scan then measures
// the recovery directly instead of inferring it from the assignment table.
// It returns how many nameservers were repaired.
func (w *Wild) RepairTopNameservers(k int) int {
	// Order broken nameservers by stranded-domain count, descending.
	idx := make([]int, len(w.Pop.BrokenNS))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return w.Pop.BrokenNS[idx[a]].Domains > w.Pop.BrokenNS[idx[b]].Domains
	})
	provider := &providerServer{wild: w}
	repaired := 0
	for _, i := range idx {
		if repaired >= k || w.Pop.BrokenNS[i].Domains == 0 {
			break
		}
		w.Net.Register(w.Pop.BrokenNS[i].Addr, provider)
		repaired++
	}
	return repaired
}
