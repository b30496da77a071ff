package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// percentile returns the value at rank ceil(p·n) of the samples (1-based,
// nearest rank), so that with n ≥ 100 at least ten samples lie beyond p90. It
// sorts the slice.
func percentile(samples []float64, p float64) float64 {
	sort.Float64s(samples)
	return samples[percentileIndex(len(samples), p)]
}

// percentileIndex is the 0-based nearest-rank index of percentile p among n
// sorted samples.
func percentileIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// median returns the middle value (the mean of the middle two for an even
// count) without reordering its argument.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrShare is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(values, n=4)
// gives for three or more values (the exclusive method), which is what the
// pipeline computes.
func iqrShare(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	m := median(s)
	if n < 2 || m == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / m
}

// clockTicksPerSecond is USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicksPerSecond = 100

// parseProcStatCPU returns utime+stime in seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat []byte) (float64, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	fields := bytes.Fields(stat[end+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(string(fields[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(string(fields[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// parseProcStatusKB returns the value of a "<key>:   <n> kB" line of
// /proc/<pid>/status, such as VmHWM.
func parseProcStatusKB(status []byte, key string) (float64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(key+":"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseFloat(string(f[0]), 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}
