package dnssec

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// SigCacheCapacity bounds the verifications one SigCache remembers, across
// all its shards.
const SigCacheCapacity = 1 << 16

// sigCacheShards is the lock-stripe count; a power of two so an id's first
// byte can be masked onto a shard.
const sigCacheShards = 16

// sigID names one cryptographic check: a SHA-256 over the algorithm, the
// DNSKEY public key, the signed data and the signature, each length-framed
// so no two distinct checks share an encoding.
type sigID [sha256.Size]byte

// SigCache memoizes successful signature verifications. Ed25519, ECDSA and
// RSA verification is a pure function of (algorithm, public key, signed
// data, signature), so a check that passed once passes again; failures are
// not stored and are re-verified every time. The cache is bounded by
// SigCacheCapacity and safe for concurrent use.
type SigCache struct {
	shards       [sigCacheShards]sigShard
	hits, misses atomic.Uint64
}

type sigShard struct {
	mu      sync.Mutex
	entries map[sigID]struct{}
}

// NewSigCache returns an empty signature cache.
func NewSigCache() *SigCache {
	c := &SigCache{}
	for i := range c.shards {
		c.shards[i].entries = make(map[sigID]struct{})
	}
	return c
}

// signedDataPool recycles signed-data buffers: a validating scan builds one
// per check, cache hits included, and no verifier retains it.
var signedDataPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// verify checks sig over rrs with key, consulting and filling c. The caller
// has already matched key tag and algorithm.
func (c *SigCache) verify(sig dnswire.RRSIG, rrs []dnswire.RR, key *dnswire.DNSKEY) error {
	alg := Algorithm(sig.Algorithm)
	buf := signedDataPool.Get().(*[]byte)
	data := signedData((*buf)[:0], sig, rrs)
	defer func() {
		*buf = data[:0]
		signedDataPool.Put(buf)
	}()
	if c == nil {
		return Verify(alg, key.PublicKey, data, sig.Signature)
	}
	id := newSigID(sig.Algorithm, key.PublicKey, data, sig.Signature)
	s := &c.shards[id[0]&(sigCacheShards-1)]
	s.mu.Lock()
	_, hit := s.entries[id]
	s.mu.Unlock()
	if hit {
		c.hits.Add(1)
		return nil
	}
	c.misses.Add(1)
	if err := Verify(alg, key.PublicKey, data, sig.Signature); err != nil {
		return err
	}
	s.mu.Lock()
	if len(s.entries) >= SigCacheCapacity/sigCacheShards {
		for old := range s.entries { // map order is arbitrary: drop any one
			delete(s.entries, old)
			break
		}
	}
	s.entries[id] = struct{}{}
	s.mu.Unlock()
	return nil
}

func newSigID(alg uint8, pub, data, signature []byte) sigID {
	var frame [7]byte
	frame[0] = alg
	binary.BigEndian.PutUint16(frame[1:3], uint16(len(pub)))
	binary.BigEndian.PutUint32(frame[3:7], uint32(len(data)))
	h := sha256.New()
	h.Write(frame[:3])
	h.Write(pub)
	h.Write(frame[3:])
	h.Write(data)
	h.Write(signature)
	var id sigID
	h.Sum(id[:0])
	return id
}

// Stats reports the checks answered from the cache (hits) and the
// cryptographic verifications performed (misses).
func (c *SigCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len reports the number of memoized verifications.
func (c *SigCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Flush forgets every memoized verification.
func (c *SigCache) Flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[sigID]struct{})
		s.mu.Unlock()
	}
}
