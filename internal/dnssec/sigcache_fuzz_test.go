package dnssec

import (
	"crypto/ed25519"
	"reflect"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// fuzzKeys are fixed keys, so every fuzz input is reproducible: an Ed25519
// KSK and ZSK from constant seeds, and an Ed448 stand-in ZSK (unsupported
// under the Cloudflare support set).
func fuzzKeys() []*KeyPair {
	ed := func(seed byte, flags uint16) *KeyPair {
		s := make([]byte, ed25519.SeedSize)
		s[0] = seed
		priv := ed25519.NewKeyFromSeed(s)
		return &KeyPair{Alg: AlgED25519, Flags: flags, priv: ed25519Key{priv: priv}, pubWire: priv.Public().(ed25519.PublicKey)}
	}
	standin := make([]byte, standinSeedLen(AlgED448))
	standin[0] = 3
	return []*KeyPair{
		ed(1, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP),
		ed(2, dnswire.DNSKEYFlagZone),
		{Alg: AlgED448, Flags: dnswire.DNSKEYFlagZone, priv: standinKey{alg: AlgED448, seed: standin}, pubWire: standin},
	}
}

// fuzzInput builds a signed TXT RRset from data: the records, one RRSIG per
// key, and the published DNSKEYs.
func fuzzInput(t *testing.T, pairs []*KeyPair, data []byte) (rrs, sigs []dnswire.RR, keys []dnswire.DNSKEY) {
	owner := dnswire.MustName("w.example.net")
	for len(data) > 0 && len(rrs) < 3 {
		n := min(len(data), 1+int(data[0])%40)
		rrs = append(rrs, dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.TXT{Strings: []string{string(data[:n])}}})
		data = data[n:]
	}
	if len(rrs) == 0 {
		rrs = append(rrs, dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.TXT{Strings: []string{"x"}}})
	}
	for _, k := range pairs {
		sig, err := SignRRset(rrs, k, dnswire.MustName("example.net"), testInception, testExpiration)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, sig)
		keys = append(keys, k.DNSKEY())
	}
	return rrs, sigs, keys
}

// mutate applies the edit script mut, two octets per edit (operation,
// argument), to copies of the RRset, signatures and keys.
func mutate(mut []byte, rrs, sigs []dnswire.RR, keys []dnswire.DNSKEY) ([]dnswire.RR, []dnswire.RR, []dnswire.DNSKEY) {
	rrs = append([]dnswire.RR(nil), rrs...)
	sigs = append([]dnswire.RR(nil), sigs...)
	keys = append([]dnswire.DNSKEY(nil), keys...)
	for ; len(mut) >= 2; mut = mut[2:] {
		op, arg := mut[0], mut[1]
		if len(sigs) == 0 && op%13 < 8 {
			continue
		}
		si, ki, ri := int(arg)%max(len(sigs), 1), int(arg)%len(keys), int(arg)%len(rrs)
		editSig := func(f func(*dnswire.RRSIG)) {
			s := sigs[si].Data.(dnswire.RRSIG)
			s.Signature = append([]byte(nil), s.Signature...)
			f(&s)
			sigs[si].Data = s
		}
		switch op % 13 {
		case 0:
			editSig(func(s *dnswire.RRSIG) { s.Signature[int(arg)%len(s.Signature)] ^= 1 << (arg % 8) })
		case 1:
			editSig(func(s *dnswire.RRSIG) { s.KeyTag += uint16(arg) })
		case 2:
			editSig(func(s *dnswire.RRSIG) { s.Algorithm = arg })
		case 3:
			editSig(func(s *dnswire.RRSIG) { s.Labels = arg % 5 })
		case 4:
			editSig(func(s *dnswire.RRSIG) { s.Expiration += uint32(arg) << 24 })
		case 5:
			editSig(func(s *dnswire.RRSIG) { s.Inception -= uint32(arg) << 24 })
		case 6:
			editSig(func(s *dnswire.RRSIG) { s.OriginalTTL += uint32(arg) })
		case 7:
			sigs = append(sigs[:si], sigs[si+1:]...)
		case 8:
			s := rrs[ri].Data.(dnswire.TXT)
			rrs[ri].Data = dnswire.TXT{Strings: append([]string{string(arg)}, s.Strings...)}
		case 9:
			rrs[ri].TTL += uint32(arg)
		case 10:
			keys[ki].Flags ^= uint16(1) << (arg % 16)
		case 11:
			keys[ki].PublicKey = append([]byte(nil), keys[ki].PublicKey...)
			keys[ki].PublicKey[int(arg)%len(keys[ki].PublicKey)] ^= 0x80
		case 12:
			keys[0], keys[ki] = keys[ki], keys[0]
		}
	}
	return rrs, sigs, keys
}

// FuzzSigCache is the signature cache's differential check: for mutated
// RRsets, signatures, keys and validation instants, CheckRRset through a
// SigCache must return exactly what the uncached CheckRRset returns, with
// the cache cold, primed by the unmutated set's success, and warmed by the
// mutated set's own result. Seeds are below plus testdata/fuzz/FuzzSigCache.
// Run with: go test -fuzz=FuzzSigCache ./internal/dnssec
func FuzzSigCache(f *testing.F) {
	f.Add([]byte("hello"), []byte{}, uint32(testNow), false)
	f.Add([]byte("hello"), []byte{0, 3}, uint32(testNow), false)
	f.Add([]byte("\x05abcde\x02xy"), []byte{8, 1, 12, 1}, uint32(testNow), true)
	f.Add([]byte("txt"), []byte{4, 200}, uint32(testExpiration+10), false)
	f.Add([]byte("txt"), []byte{7, 0, 1, 0}, uint32(testNow), true)
	pairs := fuzzKeys()
	f.Fuzz(func(t *testing.T, data, mut []byte, now uint32, cloudflare bool) {
		sup := StandardSupport()
		if cloudflare {
			sup = CloudflareSupport()
		}
		rrs0, sigs0, keys0 := fuzzInput(t, pairs, data)
		rrs, sigs, keys := mutate(mut, rrs0, sigs0, keys0)
		want := CheckRRset(rrs, sigs, keys, now, sup)

		cold := NewSigCache()
		if got := cold.CheckRRset(rrs, sigs, keys, now, sup); !reflect.DeepEqual(got, want) {
			t.Fatalf("cold cache: %+v, uncached %+v", got, want)
		}
		primed := NewSigCache()
		if c := primed.CheckRRset(rrs0, sigs0, keys0, testNow, sup); c.Status != SigOK {
			t.Fatalf("unmutated set: %v", c.Status)
		}
		for pass := 0; pass < 2; pass++ {
			if got := primed.CheckRRset(rrs, sigs, keys, now, sup); !reflect.DeepEqual(got, want) {
				t.Fatalf("primed cache, pass %d: %+v, uncached %+v", pass, got, want)
			}
		}
	})
}
