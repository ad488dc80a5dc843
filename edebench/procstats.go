package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// procStats is what the process under test reports about itself: CPU from
// getrusage, the Go heap and GC from runtime/metrics.
type procStats struct {
	CPUNS      int64   `json:"cpu_ns"`      // user+sys CPU since process start
	HeapPeak   uint64  `json:"heap_peak"`   // peak heap object bytes since the previous report
	Allocs     uint64  `json:"allocs"`      // cumulative heap allocations (objects)
	GCCPU      float64 `json:"gc_cpu_s"`    // cumulative GC CPU seconds
	TotalCPU   float64 `json:"total_cpu_s"` // cumulative CPU seconds as the Go runtime accounts them
	GOMAXPROCS int     `json:"gomaxprocs"`
}

const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocs      = "/gc/heap/allocs:objects"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

// heapWatch samples the live heap every few milliseconds and keeps the
// peak since the last reset.
type heapWatch struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: mHeapObjects}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapWatch) close() {
	close(h.stop)
	<-h.done
}

// cpuNS is the process's user+sys CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// read reports the process's counters and restarts the heap peak.
func (h *heapWatch) read() procStats {
	s := []metrics.Sample{{Name: mHeapObjects}, {Name: mAllocs}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	peak := h.peak.Swap(s[0].Value.Uint64())
	if cur := s[0].Value.Uint64(); cur > peak {
		peak = cur
	}
	return procStats{
		CPUNS:      cpuNS(),
		HeapPeak:   peak,
		Allocs:     s[1].Value.Uint64(),
		GCCPU:      s[2].Value.Float64(),
		TotalCPU:   s[3].Value.Float64(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}
