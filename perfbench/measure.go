package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pccproteus/internal/stats"
)

// snapshot is the process-wide cost counters at one instant. Deltas of
// two snapshots bracket a measured window from outside the program.
type snapshot struct {
	wall    time.Time
	usr     time.Duration
	sys     time.Duration
	mallocs uint64
	numGC   uint32
	pauseNs uint64
}

func takeSnapshot() snapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		wall:    time.Now(),
		usr:     time.Duration(ru.Utime.Nano()),
		sys:     time.Duration(ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// cost is the difference between two snapshots.
type cost struct {
	wall, usr, sys time.Duration
	mallocs        uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func (b snapshot) since(a snapshot) cost {
	return cost{
		wall:     b.wall.Sub(a.wall),
		usr:      b.usr - a.usr,
		sys:      b.sys - a.sys,
		mallocs:  b.mallocs - a.mallocs,
		gcCycles: b.numGC - a.numGC,
		gcPause:  time.Duration(b.pauseNs - a.pauseNs),
	}
}

func (c cost) cpu() time.Duration { return c.usr + c.sys }

func (c *cost) add(o cost) {
	c.wall += o.wall
	c.usr += o.usr
	c.sys += o.sys
	c.mallocs += o.mallocs
	c.gcCycles += o.gcCycles
	c.gcPause += o.gcPause
}

// setupRepeats is how many times a workload sets up per run; setup_s
// is the median.
const setupRepeats = 15

// timeSetup times one set-up, in seconds. It first collects the heap and
// returns its free pages to the OS, so every repetition pays the same
// page faults rather than whatever the previous one left resident.
func timeSetup(f func() error) (float64, error) {
	debug.FreeOSMemory()
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// peakRSSMiB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// udpRcvbufErrors is the host's count of UDP datagrams dropped because a
// socket's receive buffer was full (RcvbufErrors in /proc/net/snmp), or
// -1 when it cannot be read.
func udpRcvbufErrors() int64 {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return -1
	}
	var names []string
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "Udp:")
		if !ok {
			continue
		}
		if names == nil {
			names = strings.Fields(rest)
			continue
		}
		for i, v := range strings.Fields(rest) {
			if i < len(names) && names[i] == "RcvbufErrors" {
				if n, err := strconv.ParseInt(v, 10, 64); err == nil {
					return n
				}
			}
		}
	}
	return -1
}

// median of xs with its sample count.
func median(xs []float64) value {
	return value{stats.Median(xs), int64(len(xs))}
}

// pct is the p-th percentile of xs with its sample count.
func pct(xs []float64, p float64) value {
	return value{stats.Percentile(xs, p), int64(len(xs))}
}

// per divides, reporting 0 for an empty base.
func per(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

// sampler records the process CPU time and resident set every few
// milliseconds, so the cost of a window that starts or peaks inside a
// blocking call can be read once the call returns.
type sampler struct {
	mu   sync.Mutex
	pts  []samplePoint
	quit chan struct{}
	done chan struct{}
}

type samplePoint struct {
	at       time.Time
	usr, sys time.Duration
	rssMiB   float64
}

const sampleInterval = 5 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleInterval)
		defer t.Stop()
		for {
			p := takeSamplePoint()
			s.mu.Lock()
			s.pts = append(s.pts, p)
			s.mu.Unlock()
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func takeSamplePoint() samplePoint {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return samplePoint{at: time.Now(), usr: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano()), rssMiB: rssMiB()}
}

// rssMiB is the process's current resident set, in MiB.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// stop ends sampling and waits for the sampling goroutine to exit.
func (s *sampler) stop() {
	close(s.quit)
	<-s.done
}

// at returns the last sample taken at or before t.
func (s *sampler) at(t time.Time) samplePoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].at.After(t) })
	if i == 0 {
		i = 1 // t precedes sampling: the first sample is the closest
	}
	return s.pts[i-1]
}

// peakRSS is the largest resident set sampled between a and b, in MiB.
func (s *sampler) peakRSS(a, b time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	peak := 0.0
	for _, p := range s.pts {
		if !p.at.Before(a) && !p.at.After(b) && p.rssMiB > peak {
			peak = p.rssMiB
		}
	}
	return peak
}
