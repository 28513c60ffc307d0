package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM).
func peakRSSMiB() float64 {
	kb := procStatusKB("VmHWM:")
	return float64(kb) / 1024
}

func procStatusKB(field string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, field) {
			fs := strings.Fields(line[len(field):])
			if len(fs) > 0 {
				v, _ := strconv.ParseInt(fs[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// hostTicks is the machine-wide line of /proc/stat: busy, steal and
// total jiffies across every CPU of this (virtual) machine.
type hostTicks struct {
	busy, steal, total int64
}

func readHostTicks() hostTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fs := strings.Fields(line)
	if len(fs) < 9 || fs[0] != "cpu" {
		return hostTicks{}
	}
	var v [10]int64
	for i := 1; i < len(fs) && i <= len(v); i++ {
		v[i-1], _ = strconv.ParseInt(fs[i], 10, 64)
	}
	// user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	var t hostTicks
	t.busy = v[0] + v[1] + v[2] + v[5] + v[6]
	t.steal = v[7]
	t.total = t.busy + v[3] + v[4] + t.steal
	return t
}

// hostUsage is the share of the machine's CPU time, between two
// snapshots, that was busy and that the hypervisor stole.
type hostUsage struct {
	StealTicks int64   `json:"steal_ticks"`
	StealPct   float64 `json:"steal_pct"`
	UtilPct    float64 `json:"cpu_util_pct"`
}

func usageBetween(a, b hostTicks) hostUsage {
	total := float64(b.total - a.total)
	u := hostUsage{StealTicks: b.steal - a.steal}
	if total > 0 {
		u.StealPct = 100 * float64(b.steal-a.steal) / total
		u.UtilPct = 100 * float64(b.busy-a.busy) / total
	}
	return u
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostInfo is the static part of the noise diagnostics.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func readHostInfo() hostInfo {
	return hostInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// median returns the middle of xs (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, median and Q3 with the same exclusive method as
// Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - 4*j)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// tail is the highest percentile of a ladder that still has at least ten
// samples beyond it, with the sample count it was read from. With fewer
// than twenty samples no rung qualifies and the maximum is reported as
// percentile 100.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
}

var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

func tailOf(xs []float64) tail {
	s := sorted(xs)
	n := len(s)
	t := tail{Samples: n}
	if n == 0 {
		return t
	}
	t.Percentile, t.Value = 100, s[n-1]
	for _, p := range tailLadder {
		beyond := float64(n) * (1 - p/100)
		if beyond < 10 {
			break
		}
		t.Percentile = p
		// Nearest rank.
		k := int(math.Ceil(p / 100 * float64(n)))
		t.Value = s[k-1]
	}
	return t
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
