package resolver

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// optOutFixture is a signed parent zone with an opt-out NSEC3 chain over
// its apex and one signed child, and a resolution whose key cache already
// trusts the parent's ZSK.
type optOutFixture struct {
	t      *testing.T
	parent dnswire.Name
	zsk    *dnssec.KeyPair
	chain  []dnswire.RR // sorted by owner hash
	hashes [][]byte
}

func newOptOutFixture(t *testing.T) *optOutFixture {
	f := &optOutFixture{t: t, parent: dnswire.MustName("tld"), zsk: mustKeyPair(t, dnssec.AlgED25519, 256)}
	names := []dnswire.Name{f.parent, dnswire.MustName("signed.tld")}
	for _, n := range names {
		f.hashes = append(f.hashes, dnssec.NSEC3Hash(n, 0, nil))
	}
	sort.Slice(f.hashes, func(i, j int) bool { return bytes.Compare(f.hashes[i], f.hashes[j]) < 0 })
	for i, h := range f.hashes {
		f.chain = append(f.chain, dnswire.RR{
			Name: f.parent.Child(dnswire.Base32HexNoPad(h)), Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.NSEC3{HashAlg: dnssec.NSEC3HashSHA1, Flags: dnswire.NSEC3FlagOptOut,
				NextHashed: f.hashes[(i+1)%len(f.hashes)], Types: []dnswire.Type{dnswire.TypeNS}},
		})
	}
	return f
}

// link returns the chain record owned by the hash of n (match) or whose
// span covers it.
func (f *optOutFixture) link(n dnswire.Name) dnswire.RR {
	h := dnssec.NSEC3Hash(n, 0, nil)
	i := sort.Search(len(f.hashes), func(i int) bool { return bytes.Compare(f.hashes[i], h) > 0 })
	return f.chain[(i+len(f.chain)-1)%len(f.chain)]
}

func (f *optOutFixture) sign(rr dnswire.RR) dnswire.RR {
	sig, err := dnssec.SignRRset([]dnswire.RR{rr}, f.zsk, f.parent, tInception, tExpiration)
	if err != nil {
		f.t.Fatal(err)
	}
	return sig
}

// evaluate runs the referral check for child over authority and returns
// the conditions and details it recorded.
func (f *optOutFixture) evaluate(child dnswire.Name, authority []dnswire.RR) ([]Condition, map[Condition]string) {
	r := New(nil, nil, nil, ProfileCloudflare())
	r.Now = func() time.Time { return time.Unix(tInception+1000, 0) }
	r.Cache.putKeys(f.parent, &zoneKeys{keys: []dnswire.DNSKEY{f.zsk.DNSKEY()}, secure: true, expiresAt: r.Now().Add(time.Hour)})
	st := &resolution{r: r, details: map[Condition]string{}}
	resp := &dnswire.Message{Response: true, Authority: append([]dnswire.RR{{
		Name: child, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: child.Child("ns1")},
	}}, authority...)}
	ds, secure := st.evaluateDelegation(resp, f.parent, []dnswire.DS{{}}, true, child, nil)
	if ds != nil || secure {
		f.t.Fatalf("%s: unsigned delegation judged secure", child)
	}
	return st.conds, st.details
}

// TestOptOutReferralProof is RFC 5155 §8.9: the closest encloser's NSEC3
// plus an opt-out span covering the next closer name prove an unsigned
// delegation; without the opt-out flag, or with a bad signature, they do
// not, and the conditions are those of any missing or bogus proof.
func TestOptOutReferralProof(t *testing.T) {
	f := newOptOutFixture(t)
	// An unsigned child outside the apex's span, so the proof takes two
	// distinct records.
	apex := f.link(f.parent)
	var child dnswire.Name
	var span dnswire.RR
	for i := 0; span.Name == "" || span.Name == apex.Name; i++ {
		child = f.parent.Child(fmt.Sprintf("plain%d", i))
		span = f.link(child)
	}
	wantOnly := func(name string, conds []Condition, details map[Condition]string, want Condition, detail string) {
		t.Helper()
		if len(conds) != 1 || conds[0] != want {
			t.Errorf("%s: conditions %v, want [%s]", name, conds, want)
		}
		if !strings.Contains(details[want], detail) {
			t.Errorf("%s: detail %q, want %q", name, details[want], detail)
		}
	}

	conds, details := f.evaluate(child, []dnswire.RR{apex, f.sign(apex), span, f.sign(span)})
	wantOnly("opt-out proof", conds, details, ConditionInsecure, "")

	// The same span without the opt-out flag denies the child outright.
	plain := span
	rec := plain.Data.(dnswire.NSEC3)
	rec.Flags = 0
	plain.Data = rec
	conds, details = f.evaluate(child, []dnswire.RR{apex, f.sign(apex), plain, f.sign(plain)})
	wantOnly("span without opt-out", conds, details, ConditionReferralProofMissing,
		"failed to verify an insecure referral proof for "+string(child))

	// No closest encloser: the span alone proves nothing.
	conds, details = f.evaluate(child, []dnswire.RR{span, f.sign(span)})
	wantOnly("span without the apex NSEC3", conds, details, ConditionReferralProofMissing,
		"failed to verify an insecure referral proof for "+string(child))

	// A corrupted signature on either record is a bogus proof.
	for i, target := range []dnswire.RR{apex, span} {
		sigs := []dnswire.RR{f.sign(apex), f.sign(span)}
		s := sigs[i].Data.(dnswire.RRSIG)
		s.Signature = append([]byte(nil), s.Signature...)
		s.Signature[0] ^= 0xFF
		sigs[i].Data = s
		conds, details = f.evaluate(child, []dnswire.RR{apex, sigs[0], span, sigs[1]})
		wantOnly("bad signature on "+string(target.Name), conds, details, ConditionReferralProofBogus,
			"insecure referral proof for "+string(child)+" failed validation: crypto-failed")
	}
}
