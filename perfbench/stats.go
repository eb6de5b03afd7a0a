package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// median returns the nearest-rank median of xs, 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least a share q of the samples at or below it (0 for none).
// Over whole rounds of a menu it always lands on the same menu item
// whatever the number of rounds, unless q times the menu size is whole.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[max(rank, 1)-1]
}

// geomean returns the geometric mean of the positive values of xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 { return procStatusMB("VmHWM:") }

// rssMB reads the process's current resident set size (VmRSS) in MB.
func rssMB() float64 { return procStatusMB("VmRSS:") }

// procStatusMB reads one kB-valued field of /proc/self/status in MB, 0
// where it is unavailable.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
