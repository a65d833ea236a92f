package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// median is the middle of xs (the mean of the two middle samples for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// ratio is num/den, or 0 when there is no base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// goCounters are the Go runtime's cumulative allocation and GC counts.
type goCounters struct {
	allocBytes uint64
	gcCycles   uint64
}

var goCounterNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readGoCounters() goCounters {
	s := make([]metrics.Sample, len(goCounterNames))
	for i, n := range goCounterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// heapSampler reads the live Go heap — the bytes the last garbage
// collection found reachable — without stopping the world. Unlike the
// heap including not-yet-collected garbage, it does not depend on where
// in a GC cycle the sample falls.
type heapSampler struct{ s []metrics.Sample }

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) read() uint64 {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64()
}

// readSteal returns the time the hypervisor ran something else while
// this machine's CPUs were ready to run, summed over CPUs, in clock ticks
// (the steal column of the cpu line of /proc/stat). It reports false
// where the kernel gives no such figure.
func readSteal() (int64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// host describes the machine and build a run measured, for the header.
type host struct {
	commit     string
	goVersion  string
	gomaxprocs int
	nproc      int
	cpuModel   string
	l2, l3     string
}

func describeHost() host {
	h := host{
		commit:     "unknown",
		goVersion:  runtime.Version(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		nproc:      runtime.NumCPU(),
		cpuModel:   "unknown",
		l2:         "unknown",
		l3:         "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			h.commit = rev + dirty
		}
	}
	// Read-only kernel pseudo-files; absent ones leave "unknown".
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.cpuModel = strings.TrimSpace(v)
				break
			}
		}
	}
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		level, err1 := os.ReadFile(dir + "level")
		size, err2 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil {
			continue
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			h.l2 = strings.TrimSpace(string(size))
		case "3":
			h.l3 = strings.TrimSpace(string(size))
		}
	}
	return h
}

// humanBytes renders a byte count with a binary unit.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
