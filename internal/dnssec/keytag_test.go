package dnssec

import (
	"crypto/rand"
	"sync"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// collidingPair generates Ed25519 zone keys until two share a key tag: a
// birthday search, about 300 keys on average over the 16-bit tag space.
func collidingPair(t *testing.T) (first, second *KeyPair) {
	t.Helper()
	seen := make(map[uint16]*KeyPair)
	for i := 0; i < 20000; i++ {
		k := mustKey(t, AlgED25519, dnswire.DNSKEYFlagZone, 0)
		if prev, ok := seen[k.KeyTag()]; ok {
			return prev, k
		}
		seen[k.KeyTag()] = k
	}
	t.Fatal("no key-tag collision in 20000 keys")
	return nil, nil
}

// TestCheckRRsetTriesEveryCollidingKey is RFC 4035 §5.3.1: when two
// published keys share a signature's tag and algorithm, the validator tries
// each. Trying only the first turned valid zones bogus.
func TestCheckRRsetTriesEveryCollidingKey(t *testing.T) {
	first, second := collidingPair(t)
	rrs := testRRset("w.example.net")
	sig := signSet(t, rrs, second, "example.net")
	keys := []dnswire.DNSKEY{first.DNSKEY(), second.DNSKEY()}
	c := CheckRRset(rrs, []dnswire.RR{sig}, keys, testNow, StandardSupport())
	if c.Status != SigOK || c.VerifiedBy != second.KeyTag() {
		t.Fatalf("signature by the second of two keys with tag %d: %+v, want ok", second.KeyTag(), c)
	}
	// And with the signer first, the other key is never tried.
	cache := NewSigCache()
	keys[0], keys[1] = keys[1], keys[0]
	if c := cache.CheckRRset(rrs, []dnswire.RR{sig}, keys, testNow, StandardSupport()); c.Status != SigOK {
		t.Fatalf("signer listed first: %v", c.Status)
	}
	if _, misses := cache.Stats(); misses != 1 {
		t.Errorf("signer listed first: %d verifications, want 1", misses)
	}
}

// withTag returns a copy of key whose last two public-key octets are
// adjusted until its key tag is tag. The result is not a usable key; it is
// the cheap decoy a KeyTrap zone publishes.
func withTag(t *testing.T, key dnswire.DNSKEY, tag uint16) dnswire.DNSKEY {
	t.Helper()
	out := key
	out.PublicKey = append([]byte(nil), key.PublicKey...)
	n := len(out.PublicKey)
	out.PublicKey[n-2], out.PublicKey[n-1] = 0, 0
	// The tag is a folded sum of 16-bit words, so it moves with the last
	// word almost one for one: start the search where that lands.
	start := tag - out.KeyTag()
	for i := 0; i < 1<<16; i++ {
		w := start + uint16(i)
		out.PublicKey[n-2], out.PublicKey[n-1] = byte(w>>8), byte(w)
		if out.KeyTag() == tag {
			return out
		}
	}
	t.Fatalf("no public key with tag %d", tag)
	return out
}

// TestCheckRRsetKeyTrapBounds: 64 published keys sharing one tag, and 64
// signatures naming it, cost at most MaxFailedVerifications verifications,
// and one signature is tried against at most MaxKeysPerSig keys.
func TestCheckRRsetKeyTrapBounds(t *testing.T) {
	signer := mustKey(t, AlgED25519, dnswire.DNSKEYFlagZone, 0)
	tag := signer.KeyTag()
	rrs := testRRset("w.example.net")
	sigRR := signSet(t, rrs, signer, "example.net")

	decoys := make([]dnswire.DNSKEY, 63)
	for i := range decoys {
		k := signer.DNSKEY()
		k.PublicKey = make([]byte, len(k.PublicKey))
		if _, err := rand.Read(k.PublicKey); err != nil {
			t.Fatal(err)
		}
		decoys[i] = withTag(t, k, tag)
	}
	keys := append(append([]dnswire.DNSKEY(nil), decoys...), signer.DNSKEY())
	sup := StandardSupport()

	// One genuine signature whose key sits behind 63 decoys.
	c := NewSigCache()
	if got := c.CheckRRset(rrs, []dnswire.RR{sigRR}, keys, testNow, sup); got.Status != SigCryptoFailed {
		t.Errorf("signer behind 63 decoys: %v, want %v (candidate cap)", got.Status, SigCryptoFailed)
	}
	if _, misses := c.Stats(); misses != MaxKeysPerSig {
		t.Errorf("one signature cost %d verifications, cap is %d", misses, MaxKeysPerSig)
	}
	// Within the cap the signer is found.
	near := append(append([]dnswire.DNSKEY(nil), decoys[:MaxKeysPerSig-1]...), signer.DNSKEY())
	if got := CheckRRset(rrs, []dnswire.RR{sigRR}, near, testNow, sup); got.Status != SigOK {
		t.Errorf("signer as candidate %d: %v, want ok", MaxKeysPerSig, got.Status)
	}

	// 64 signatures naming the tag, none of them valid.
	var sigs []dnswire.RR
	for i := 0; i < 64; i++ {
		bad := sigRR
		s := bad.Data.(dnswire.RRSIG)
		s.Signature = append([]byte(nil), s.Signature...)
		s.Signature[i%len(s.Signature)] ^= byte(i + 1)
		bad.Data = s
		sigs = append(sigs, bad)
	}
	c = NewSigCache()
	if got := c.CheckRRset(rrs, sigs, keys, testNow, sup); got.Status != SigCryptoFailed {
		t.Errorf("64 bad signatures × 64 keys: %v, want %v", got.Status, SigCryptoFailed)
	}
	if _, misses := c.Stats(); misses > MaxFailedVerifications {
		t.Errorf("64 bad signatures × 64 keys cost %d verifications, cap is %d", misses, MaxFailedVerifications)
	}
}

// TestSigCacheMemoizesSuccessOnly: a second check of the same signature is
// a hit, a failing one is re-verified every time, and Flush forgets.
func TestSigCacheMemoizesSuccessOnly(t *testing.T) {
	key := mustKey(t, AlgED25519, dnswire.DNSKEYFlagZone, 0)
	rrs := testRRset("w.example.net")
	sigRR := signSet(t, rrs, key, "example.net")
	keys := []dnswire.DNSKEY{key.DNSKEY()}
	sup := StandardSupport()
	c := NewSigCache()
	for i := 0; i < 3; i++ {
		if got := c.CheckRRset(rrs, []dnswire.RR{sigRR}, keys, testNow, sup); got.Status != SigOK {
			t.Fatalf("pass %d: %v", i, got.Status)
		}
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 1 || c.Len() != 1 {
		t.Errorf("3 checks of one signature: hits %d misses %d len %d, want 2/1/1", hits, misses, c.Len())
	}
	// The window is re-checked on a hit.
	if got := c.CheckRRset(rrs, []dnswire.RR{sigRR}, keys, testExpiration+1, sup); got.Status != SigExpired {
		t.Errorf("cached signature past expiry: %v, want expired", got.Status)
	}
	// An unsigned TTL change leaves the signed data alone (a hit); altered
	// RDATA is different data, a miss and a failure every time.
	changed := append([]dnswire.RR(nil), rrs...)
	changed[0].TTL++
	if got := c.CheckRRset(changed, []dnswire.RR{sigRR}, keys, testNow, sup); got.Status != SigOK {
		t.Errorf("TTL change (not signed): %v, want ok", got.Status)
	}
	changed[0].Data = dnswire.A{Addr: testRRset("x.")[1].Data.(dnswire.A).Addr.Next()}
	for i := 0; i < 2; i++ {
		if got := c.CheckRRset(changed, []dnswire.RR{sigRR}, keys, testNow, sup); got.Status != SigCryptoFailed {
			t.Errorf("altered RDATA: %v, want crypto failure", got.Status)
		}
	}
	if _, misses := c.Stats(); misses != 3 {
		t.Errorf("failures re-verified: misses %d, want 3", misses)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Errorf("Len after Flush = %d", c.Len())
	}
}

// TestSigCacheConcurrent shares one cache among goroutines checking the
// same and distinct signatures, valid and not (run it under -race).
func TestSigCacheConcurrent(t *testing.T) {
	key := mustKey(t, AlgED25519, dnswire.DNSKEYFlagZone, 0)
	keys := []dnswire.DNSKEY{key.DNSKEY()}
	sup := StandardSupport()
	type input struct {
		rrs, sigs []dnswire.RR
		want      SigStatus
	}
	var inputs []input
	for _, owner := range []string{"a.example.net", "b.example.net"} {
		rrs := testRRset(owner)
		good := signSet(t, rrs, key, "example.net")
		bad := good
		s := bad.Data.(dnswire.RRSIG)
		s.Signature = append([]byte(nil), s.Signature...)
		s.Signature[0] ^= 1
		bad.Data = s
		inputs = append(inputs, input{rrs, []dnswire.RR{good}, SigOK}, input{rrs, []dnswire.RR{bad}, SigCryptoFailed})
	}
	c := NewSigCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				in := inputs[(g+i)%len(inputs)]
				if got := c.CheckRRset(in.rrs, in.sigs, keys, testNow, sup); got.Status != in.want {
					t.Errorf("goroutine %d: %v, want %v", g, got.Status, in.want)
				}
			}
		}()
	}
	wg.Wait()
	if hits, misses := c.Stats(); hits+misses != 160 || c.Len() != 2 {
		t.Errorf("160 checks: hits %d + misses %d, %d entries (want 2)", hits, misses, c.Len())
	}
}
