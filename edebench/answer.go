package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

const (
	rcodeServFail = 2
	edeStale13    = 13 // Cached Error: allowed on top of a SERVFAIL's cold codes
	ednsOptionEDE = 15
	typeOPT       = 41
)

// expect is the part of an answer the correctness check compares: the
// RCODE and the set of EDE info codes, as a bit mask (EDE codes are < 64).
type expect struct {
	rcode int
	codes uint64
}

func (e expect) String() string {
	return fmt.Sprintf("rcode=%d ede=%v", e.rcode, maskCodes(e.codes))
}

func maskCodes(m uint64) []int {
	var out []int
	for m != 0 {
		c := bits.TrailingZeros64(m)
		out = append(out, c)
		m &^= 1 << c
	}
	return out
}

// parseAnswer reads the ID, full RCODE and EDE code mask of a response
// without allocating. ok=false means the datagram is not a well-formed
// response, or carries a code that does not fit the mask or twice.
func parseAnswer(b []byte) (id uint16, e expect, ok bool) {
	if len(b) < 12 || b[2]&0x80 == 0 {
		return 0, e, false
	}
	id = binary.BigEndian.Uint16(b)
	e.rcode = int(b[3] & 0x0f)
	qd := int(binary.BigEndian.Uint16(b[4:]))
	rrs := int(binary.BigEndian.Uint16(b[6:])) + int(binary.BigEndian.Uint16(b[8:]))
	ar := int(binary.BigEndian.Uint16(b[10:]))
	off := 12
	for i := 0; i < qd; i++ {
		if off = skipName(b, off); off < 0 || off+4 > len(b) {
			return 0, e, false
		}
		off += 4
	}
	for i := 0; i < rrs+ar; i++ {
		if off = skipName(b, off); off < 0 || off+10 > len(b) {
			return 0, e, false
		}
		typ := binary.BigEndian.Uint16(b[off:])
		ttl := binary.BigEndian.Uint32(b[off+4:])
		rdlen := int(binary.BigEndian.Uint16(b[off+8:]))
		off += 10
		if off+rdlen > len(b) {
			return 0, e, false
		}
		if i >= rrs && typ == typeOPT {
			e.rcode |= int(ttl>>24) << 4
			for o := off; o+4 <= off+rdlen; {
				code := binary.BigEndian.Uint16(b[o:])
				olen := int(binary.BigEndian.Uint16(b[o+2:]))
				if o+4+olen > off+rdlen {
					return 0, e, false
				}
				if code == ednsOptionEDE {
					if olen < 2 {
						return 0, e, false
					}
					info := binary.BigEndian.Uint16(b[o+4:])
					if info >= 64 || e.codes&(1<<info) != 0 {
						return 0, e, false
					}
					e.codes |= 1 << info
				}
				o += 4 + olen
			}
		}
		off += rdlen
	}
	return id, e, true
}

// skipName returns the offset just past the (possibly compressed) name at
// off, or -1.
func skipName(b []byte, off int) int {
	for off < len(b) {
		l := int(b[off])
		switch {
		case l == 0:
			return off + 1
		case l&0xc0 == 0xc0:
			if off+2 > len(b) {
				return -1
			}
			return off + 2
		case l&0xc0 != 0:
			return -1
		}
		off += 1 + l
	}
	return -1
}

// matches is the per-answer correctness rule: the RCODE and EDE set equal
// the name's cold answer, except that a SERVFAIL may add EDE 13 (the
// error-cache serve).
func (e expect) matches(got expect) bool {
	if got.rcode != e.rcode {
		return false
	}
	if e.rcode == rcodeServFail {
		got.codes &^= 1 << edeStale13
	}
	return got.codes == e.codes
}

// isShed reports an overload answer: SERVFAIL carrying EDE 23 alone where
// the name's cold answer is something else.
func (e expect) isShed(got expect) bool {
	return got.rcode == rcodeServFail && got.codes == 1<<23 && !e.matches(got)
}

// checkParser cross-checks parseAnswer against dnswire.Unpack on a cold
// answer, so the fast check cannot silently disagree with the codec.
func checkParser(wire []byte) (expect, error) {
	_, got, ok := parseAnswer(wire)
	if !ok {
		return got, fmt.Errorf("unparseable response (%d bytes)", len(wire))
	}
	m, err := dnswire.Unpack(wire)
	if err != nil {
		return got, fmt.Errorf("dnswire.Unpack: %w", err)
	}
	var want expect
	want.rcode = int(m.RCode)
	for _, c := range m.EDECodes() {
		want.codes |= 1 << c
	}
	if want != got {
		return got, fmt.Errorf("light parser read %v, dnswire.Unpack %v", got, want)
	}
	return got, nil
}

// loadGolden reads the Cloudflare column of the Table 4 golden file:
// case label → EDE code mask.
func loadGolden(root string) (map[string]uint64, error) {
	path := filepath.Join(root, "internal", "chaostest", "testdata", "table4.golden")
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]uint64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 3 || fields[1] != "Cloudflare" {
			continue
		}
		var m uint64
		if fields[2] != "None" {
			for _, c := range strings.Split(fields[2], ",") {
				n, err := strconv.Atoi(c)
				if err != nil || n < 0 || n >= 64 {
					return nil, fmt.Errorf("%s: bad code %q", path, c)
				}
				m |= 1 << n
			}
		}
		out[fields[0]] = m
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no Cloudflare rows", path)
	}
	return out, nil
}
