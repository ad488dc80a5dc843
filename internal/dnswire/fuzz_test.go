package dnswire

import (
	"bytes"
	"testing"
)

// FuzzUnpack is a native fuzz target for the message parser: it must never
// panic, and anything it accepts must re-serialize and re-parse to an
// equivalent structure (parse → pack → parse fixpoint). The seed corpus
// covers queries, signed answers, EDE responses, and negative proofs.
// Run with: go test -fuzz=FuzzUnpack ./internal/dnswire
func FuzzUnpack(f *testing.F) {
	addUnpackSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		// Accepted input must survive a pack/unpack round trip.
		repacked, err := m.Pack()
		if err != nil {
			// A parsed message may still be unserializable only in the
			// extended-RCODE-without-OPT corner, which Unpack cannot
			// produce (the RCODE high bits come from OPT). Anything else
			// is a bug.
			t.Fatalf("Pack failed on parsed message: %v", err)
		}
		m2, err := Unpack(repacked)
		if err != nil {
			t.Fatalf("re-Unpack failed: %v", err)
		}
		if len(m2.Question) != len(m.Question) ||
			len(m2.Answer) != len(m.Answer) ||
			len(m2.Authority) != len(m.Authority) ||
			len(m2.Additional) != len(m.Additional) {
			t.Fatalf("section counts changed: %+v vs %+v", m, m2)
		}
		if m2.RCode != m.RCode || m2.ID != m.ID {
			t.Fatalf("header changed: %+v vs %+v", m, m2)
		}
	})
}

// addUnpackSeeds adds FuzzUnpack's seed corpus to f.
func addUnpackSeeds(f *testing.F) {
	seeds := []*Message{
		NewQuery(1, MustName("example.com"), TypeA),
		sampleFuzzResponse(),
	}
	for _, m := range seeds {
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		plain, err := m.PackNoCompress()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(plain)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xC0}, 64)) // pointer soup
}

// FuzzScanQuery is the differential check behind every wire fast path (UDP
// datagrams and TCP/DoT frames alike): whatever ScanQuery accepts, Unpack
// must accept too, with the same ID, question, header bits and EDNS shape,
// so a reply chosen from the scan is the reply the parsed query would get.
// Seeds are FuzzUnpack's corpus plus testdata/fuzz/FuzzScanQuery (EDNS
// options, a compressed qname, trailing bytes).
// Run with: go test -fuzz=FuzzScanQuery ./internal/dnswire
func FuzzScanQuery(f *testing.F) {
	addUnpackSeeds(f)
	for _, m := range []*Message{
		{ID: 2, Question: []Question{{Name: MustName("example.com"), Type: TypeAAAA, Class: ClassIN}}},
		{ID: 3, CheckingDisabled: true, Question: []Question{{Name: Root, Type: TypeNS, Class: ClassCH}},
			OPT: &OPT{UDPSize: 4096}},
	} {
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		q, ok := ScanQuery(data)
		if !ok {
			return
		}
		m, err := Unpack(data)
		if err != nil {
			t.Fatalf("ScanQuery accepted what Unpack rejects (%v): %x", err, data)
		}
		if m.Response || m.Opcode != OpcodeQuery || len(m.Question) != 1 ||
			len(m.Answer)+len(m.Authority)+len(m.Additional) != 0 {
			t.Fatalf("ScanQuery accepted a message that is not a plain query: %+v", m)
		}
		qn := m.Question[0]
		if q.ID != m.ID || q.Name != qn.Name || q.Type != qn.Type || q.Class != qn.Class {
			t.Fatalf("scan %+v disagrees with Unpack on the ID or question %+v (ID %d)", q, qn, m.ID)
		}
		if q.RD != m.RecursionDesired || q.CD != m.CheckingDisabled || q.DO != m.DO() {
			t.Fatalf("scan RD/CD/DO %t/%t/%t, Unpack %t/%t/%t",
				q.RD, q.CD, q.DO, m.RecursionDesired, m.CheckingDisabled, m.DO())
		}
		if q.HasEDNS != (m.OPT != nil) {
			t.Fatalf("scan HasEDNS %t, Unpack OPT %+v", q.HasEDNS, m.OPT)
		}
		if m.OPT != nil && (q.UDPSize != m.OPT.UDPSize || len(m.OPT.Options) != 0) {
			t.Fatalf("scan UDPSize %d, Unpack OPT %+v", q.UDPSize, m.OPT)
		}
	})
}

func sampleFuzzResponse() *Message {
	m := NewQuery(7, MustName("sub.extended-dns-errors.com"), TypeA)
	m.Response = true
	m.RCode = RCodeServFail
	m.AddEDE(9, "no SEP matching the DS found")
	m.Authority = []RR{
		{Name: MustName("extended-dns-errors.com"), Class: ClassIN, TTL: 300,
			Data: SOA{MName: MustName("ns1.extended-dns-errors.com"),
				RName:  MustName("hostmaster.extended-dns-errors.com"),
				Serial: 1, Refresh: 2, Retry: 3, Expire: 4, Minimum: 5}},
		{Name: MustName("hash.extended-dns-errors.com"), Class: ClassIN, TTL: 300,
			Data: NSEC3{HashAlg: 1, Iterations: 5, Salt: []byte{1, 2},
				NextHashed: bytes.Repeat([]byte{9}, 20),
				Types:      []Type{TypeA, TypeRRSIG}}},
	}
	return m
}
