package main

import (
	"runtime"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// codecCost is the dnswire cost of a run's own traffic, replayed in a
// quiet process after the load phases.
type codecCost struct {
	scanNS, unpackNS, unpackAllocs, packNS, packAllocs float64
}

// replayBudget is how long each codec operation is replayed.
const replayBudget = 150 * time.Millisecond

// timeOps runs op over n items round-robin for about replayBudget and
// returns ns and heap allocations per call.
func timeOps(n int, op func(i int)) (ns, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	for i := 0; i < n; i++ {
		op(i) // warm
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	calls := 0
	for time.Since(t0) < replayBudget {
		for i := 0; i < 256; i++ {
			op(calls % n)
			calls++
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return float64(el.Nanoseconds()) / float64(calls), float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
}

// replayCodec times dnswire.ScanQuery over the queries, and Unpack and
// AppendPack over the responses, of one run.
func replayCodec(queries, responses [][]byte) codecCost {
	var c codecCost
	c.scanNS, _ = timeOps(len(queries), func(i int) { dnswire.ScanQuery(queries[i]) })
	var msgs []*dnswire.Message
	for _, r := range responses {
		if m, err := dnswire.Unpack(r); err == nil {
			msgs = append(msgs, m)
		}
	}
	c.unpackNS, c.unpackAllocs = timeOps(len(responses), func(i int) { _, _ = dnswire.Unpack(responses[i]) })
	buf := make([]byte, 0, 65535)
	c.packNS, c.packAllocs = timeOps(len(msgs), func(i int) { buf, _ = msgs[i].AppendPack(buf[:0]) })
	return c
}
