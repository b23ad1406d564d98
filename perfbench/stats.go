package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so that spreads computed here and there agree.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			q[i-1] = s[0]
		case j >= len(s):
			q[i-1] = s[len(s)-1]
		default:
			q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
		}
	}
	return q[0], q[1], q[2]
}

// Median returns the middle value of xs (the mean of the two middle
// values for an even count).
func Median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Tail returns the highest order statistic with at least ten samples
// above it, and the percentile that rank is. With fewer than eleven
// samples it returns the largest sample.
func Tail(xs []float64) (value, percentile float64) {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0, 0
	}
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// deciles returns the 10th to 90th percentiles of xs, nearest rank.
func deciles(xs []float64) []float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return nil
	}
	out := make([]float64, 9)
	for i := range out {
		out[i] = s[(i+1)*len(s)/10]
	}
	return out
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// PeakRSS returns the process's peak resident set in bytes: VmHWM from
// /proc/self/status, or getrusage's ru_maxrss where that line is absent.
func PeakRSS() uint64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseUint(fields[0], 10, 64); err == nil {
						return kb << 10
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil || ru.Maxrss < 0 {
		return 0
	}
	return uint64(ru.Maxrss) << 10
}

// Env is the environment block printed with every result.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
}

func environment(seed int64) Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Seed:       seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
