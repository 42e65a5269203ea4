package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stat is one reported metric: the median of its samples with the
// quartiles and the sample count, so a reader sees the spread the median
// came from. Single-shot metrics (counts, peak RSS) have N = 1.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile returns the p-quantile of sorted by linear interpolation
// between closest ranks.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func summarize(unit string, samples []float64) stat {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return stat{Unit: unit, Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func single(unit string, v float64) stat { return summarize(unit, []float64{v}) }

// spread is the interquartile range as a share of the median — the noise
// measure every bound in BENCHMARK.json is compared against.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// relDelta is the relative distance between two measurements, taken
// against the smaller magnitude so the answer does not depend on which
// side is called "old" (the idiom of SNIPPETS.md's approx helper).
func relDelta(a, b float64) float64 {
	if a == b {
		return 0
	}
	lo, hi := math.Abs(a), math.Abs(b)
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return (hi - lo) / lo
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// peakRSSBytes reads the process's high-water resident set (VmHWM). Each
// workload runs in its own process, so the peak belongs to it alone.
func peakRSSBytes() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
