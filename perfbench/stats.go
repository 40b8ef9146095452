package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rtSample is a reading of the Go runtime's own counters through
// runtime/metrics.
type rtSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	gcPauses   *metrics.Float64Histogram
	schedLat   *metrics.Float64Histogram
	liveBytes  uint64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return rtSample{
		allocBytes: ss[0].Value.Uint64(),
		gcCycles:   ss[1].Value.Uint64(),
		gcCPU:      ss[2].Value.Float64(),
		gcPauses:   ss[3].Value.Float64Histogram(),
		schedLat:   ss[4].Value.Float64Histogram(),
		liveBytes:  ss[5].Value.Uint64(),
	}
}

// rtDelta is what the runtime did between two samples.
type rtDelta struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64 // s of CPU spent in the GC, all threads
	gcPause    float64 // s the world was stopped for the GC
	schedP99   float64 // s a runnable goroutine waited, 99th percentile
}

func (a rtSample) to(b rtSample) rtDelta {
	pauses := histDelta(a.gcPauses, b.gcPauses)
	var pause float64
	for i, c := range pauses {
		pause += float64(c) * bucketMid(b.gcPauses.Buckets, i)
	}
	return rtDelta{
		allocBytes: float64(b.allocBytes - a.allocBytes),
		gcCycles:   float64(b.gcCycles - a.gcCycles),
		gcCPU:      b.gcCPU - a.gcCPU,
		gcPause:    pause,
		schedP99:   histQuantile(b.schedLat.Buckets, histDelta(a.schedLat, b.schedLat), 0.99),
	}
}

func histDelta(a, b *metrics.Float64Histogram) []uint64 {
	d := make([]uint64, len(b.Counts))
	for i := range d {
		d[i] = b.Counts[i] - a.Counts[i]
	}
	return d
}

// bucketMid is the midpoint of bucket i, or its finite edge when the
// other edge is infinite.
func bucketMid(edges []float64, i int) float64 {
	lo, hi := edges[i], edges[i+1]
	switch {
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	}
	return (lo + hi) / 2
}

// histQuantile returns the upper edge of the bucket holding the
// q-quantile (its lower edge when the bucket is unbounded above).
func histQuantile(edges []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if math.IsInf(edges[i+1], 1) {
				return edges[i]
			}
			return edges[i+1]
		}
	}
	return edges[len(edges)-1]
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(readRuntime().liveBytes) / (1 << 20)
}
