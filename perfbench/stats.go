package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rtStats is a snapshot of the counters the benchmark records around
// every measured pass: the runtime's allocation, GC cycle and GC CPU
// counters, and the CPU time the kernel charged the process. The kernel's
// figure leaves out the time other tenants of the host held the CPU,
// which wall time does not.
type rtStats struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // s, the runtime's estimate
	busyCPU    float64 // s the runtime's Ps were not idle
	procCPU    float64 // s user+system, from getrusage
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rtStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		busyCPU:    s[3].Value.Float64() - s[4].Value.Float64(),
		procCPU:    seconds(ru.Utime) + seconds(ru.Stime),
	}
}

func seconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// delta is the change of each counter from a to b.
func (a rtStats) delta(b rtStats) rtStats {
	return rtStats{
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
		gcCPU:      b.gcCPU - a.gcCPU,
		busyCPU:    b.busyCPU - a.busyCPU,
		procCPU:    b.procCPU - a.procCPU,
	}
}

// gcFrac is the GC's share of the CPU time the runtime was busy.
func (a rtStats) gcFrac() float64 {
	if a.busyCPU <= 0 {
		return 0
	}
	return a.gcCPU / a.busyCPU
}

// allocSample reads only the cumulative allocation counter, for span
// deltas in the serial traced run.
func allocSample() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the live heap, as the last completed GC marked it,
// every few milliseconds until stopped and reports the largest value seen.
// Marked live bytes do not depend on where in its GC cycle the sampler
// looks, unlike the allocated heap.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampler, read after done is closed
}

func startHeapPeak() *heapPeak {
	// Collect first: the live heap the runtime reports is what the last
	// collection marked, which would otherwise be the previous stretch's.
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				metrics.Read(s)
				if v := s[0].Value.Uint64(); v > h.peak {
					h.peak = v
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end collects the garbage, so the live heap at the end of the measured
// stretch is marked too, stops the sampler, waits for it and returns the
// peak in bytes.
func (h *heapPeak) end() uint64 {
	runtime.GC()
	close(h.stop)
	<-h.done
	return h.peak
}

// hostCalibration times a fixed integer workload: reported beside each
// run's results so a reader can compare hosts, never used to rescale.
func hostCalibration() float64 {
	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		x := uint64(1)
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return ms(best)
}

var calibSink uint64
