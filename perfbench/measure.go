package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the median of xs (the mean of the middle two for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
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

// tail is the highest percentile of n samples that still has at least
// ten samples strictly beyond it: the value of rank n-11 (0-based) in
// sorted order. Because runs are count-bounded, n — and therefore the
// percentile — is the same on every commit.
type tail struct {
	Value      float64
	Percentile float64
	Beyond     int
}

func tailOf(xs []float64) tail {
	n := len(xs)
	if n <= 10 {
		return tail{Value: median(xs), Percentile: 50, Beyond: n / 2}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := n - 11
	return tail{Value: s[rank], Percentile: 100 * float64(rank+1) / float64(n), Beyond: n - 1 - rank}
}

// usage is a snapshot of the process's CPU time, peak RSS and GC counters.
type usage struct {
	wall      time.Time
	cpu       time.Duration
	maxRSSKB  int64
	gcCPU     float64 // seconds of GC CPU (runtime/metrics)
	gcPauseNS float64 // total stop-the-world GC pause
}

// hostTicks reads the whole machine's stolen CPU ticks and the ticks its
// CPUs were busy (user, nice, system, irq, softirq). It returns zeros where
// /proc/stat is unavailable.
func hostTicks() (steal, busy uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64) // a malformed count reads as 0
		switch i {
		case 4, 5: // idle, iowait
		case 8:
			steal = v
		default:
			busy += v
		}
	}
	return steal, busy
}

// A sampler reads the machine's tick counters and the process's resident
// set every samplePeriod while a run is timed. The ticks give any interval
// of the run its steal share: the part of the CPU time the machine wanted
// that the hypervisor gave to other tenants instead. An idle vCPU accrues
// no steal, so the share is that of the time the busy vCPUs were runnable.
type sampler struct {
	mu      sync.Mutex
	samples []sample
	stop    chan struct{}
	done    chan struct{}
}

type sample struct {
	at          time.Time
	steal, busy uint64
	rss         int64 // bytes
}

const (
	samplePeriod = 20 * time.Millisecond
	// maxSteal caps the share a correction divides out, so a vCPU that
	// was barely scheduled cannot turn a few verdicts into a huge rate.
	maxSteal = 0.75
	// rssHold is how many consecutive samples the resident set must hold
	// a size for it to count as the run's peak (about 100 ms).
	rssHold = 5
)

func startSampler() *sampler {
	m := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				m.sample()
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *sampler) sample() {
	steal, busy := hostTicks()
	rss := residentBytes()
	m.mu.Lock()
	m.samples = append(m.samples, sample{time.Now(), steal, busy, rss})
	m.mu.Unlock()
}

// residentBytes reads the process's resident set size; it returns 0 where
// /proc/self/statm is unavailable.
func residentBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(fields[1], 10, 64) // a malformed count reads as 0
	return pages * int64(os.Getpagesize())
}

// close takes a last sample and stops the sampler.
func (m *sampler) close() {
	close(m.stop)
	<-m.done
}

// sustainedRSS is the largest resident set, in MB, that the process held
// over rssHold consecutive samples. Allocation bursts lift the resident
// set for a few milliseconds at a time; how many of them a run catches
// varies from run to run, while the size the process works at does not.
func (m *sampler) sustainedRSS() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var peak int64
	for i := 0; i+rssHold <= len(m.samples); i++ {
		low := m.samples[i].rss
		for _, s := range m.samples[i+1 : i+rssHold] {
			low = min(low, s.rss)
		}
		peak = max(peak, low)
	}
	return float64(peak) / (1 << 20)
}

// stealShare is the steal share between the last sample at or before from
// and the first sample at or after to, capped at maxSteal.
func (m *sampler) stealShare(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	xs := m.samples
	i := sort.Search(len(xs), func(k int) bool { return xs[k].at.After(from) }) - 1
	j := sort.Search(len(xs), func(k int) bool { return !xs[k].at.Before(to) })
	i, j = max(i, 0), min(j, len(xs)-1)
	if j <= i {
		return 0
	}
	steal, busy := xs[j].steal-xs[i].steal, xs[j].busy-xs[i].busy
	if steal+busy == 0 {
		return 0
	}
	return min(float64(steal)/float64(steal+busy), maxSteal)
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	u := usage{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB: ru.Maxrss,
	}
	metrics.Read(gcSamples)
	if gcSamples[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = gcSamples[0].Value.Float64()
	}
	if gcSamples[1].Value.Kind() == metrics.KindFloat64Histogram {
		u.gcPauseNS = histSum(gcSamples[1].Value.Float64Histogram()) * 1e9
	}
	return u
}

// histSum estimates the sum of a runtime/metrics histogram from its bucket
// midpoints (the runtime exposes pause durations only as a histogram).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

// processDelta turns two snapshots around a run of n verdicts into the
// process.* ledger metrics.
func processDelta(a, b usage, n int) (cpuMSPerVerdict, gcCPUFrac, gcPauseMS float64) {
	cpu := (b.cpu - a.cpu).Seconds()
	if n > 0 {
		cpuMSPerVerdict = cpu * 1e3 / float64(n)
	}
	if cpu > 0 {
		gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	gcPauseMS = (b.gcPauseNS - a.gcPauseNS) / 1e6
	return
}

// A timed run is cut into consecutive slices of about sliceSamples samples,
// and at least minSlices of them. Each end-to-end timing is the median of
// its per-slice values, so a transient stall of the shared host moves one
// slice rather than the result, and the tail is taken within a slice.
const (
	sliceSamples = 200
	minSlices    = 5
)

// timing is a run's end-to-end timing metrics. vps and p50 are in
// un-stolen time, the Raw values in wall-clock time.
type timing struct {
	vps, vpsRaw float64
	p50, p50Raw float64
	tail        tail    // Value is the median of the slices' tails, wall-clock
	steal       float64 // steal share over the whole run
	rssMB       float64 // sustained peak resident set over the run
	slices      int
	perSlice    int
}

// e2eTimings cuts samples, in completion order (latency in ms, completion
// instant), into equal slices. A slice's throughput is its samples times
// per verdicts over the time since the previous slice completed. Its
// throughput and median latency are then taken in un-stolen time: the
// machine's vCPUs were runnable but not running for the slice's steal
// share of it, which stretches the slice's work by that share.
func e2eTimings(start time.Time, lat []float64, done []time.Time, per float64, m *sampler) timing {
	n := len(lat)
	k := min(max(minSlices, n/sliceSamples), n)
	var vps, vpsRaw, p50, p50Raw, tails []float64
	var t tail
	prev := start
	for s := 0; s < k; s++ {
		lo, hi := s*n/k, (s+1)*n/k
		wall := done[hi-1].Sub(prev).Seconds()
		run := 1 - m.stealShare(prev, done[hi-1])
		vpsRaw = append(vpsRaw, float64(hi-lo)*per/wall)
		vps = append(vps, float64(hi-lo)*per/(wall*run))
		prev = done[hi-1]
		m := median(lat[lo:hi])
		p50Raw = append(p50Raw, m)
		p50 = append(p50, m*run)
		t = tailOf(lat[lo:hi])
		tails = append(tails, t.Value)
	}
	t.Value = median(tails)
	return timing{vps: median(vps), vpsRaw: median(vpsRaw), p50: median(p50), p50Raw: median(p50Raw), tail: t,
		steal: m.stealShare(start, done[n-1]), rssMB: m.sustainedRSS(), slices: k, perSlice: n / k}
}
