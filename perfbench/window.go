package main

import "time"

// subWindows is how many equal parts a measured window is cut into for
// its latency and heap metrics: each is computed per part and the median
// over the parts is reported, so a burst of host noise (such as
// hypervisor steal) that hits one or two parts does not move it.
const subWindows = 5

// quietParts is how many of the parts, those with the least steal, the
// service's latencies are taken from.
const quietParts = 3

// partOf returns the part of a span-long window that offset at (s) is in.
func partOf(at float64, span time.Duration) int {
	k := int(at / span.Seconds() * subWindows)
	return min(max(k, 0), subWindows-1)
}

// series is a set of timed samples: at[i] is when sample i was taken, as
// an offset in seconds from the start of the measured window.
type series struct {
	at, v []float64
}

func (s *series) add(at time.Duration, v float64) {
	s.at = append(s.at, at.Seconds())
	s.v = append(s.v, v)
}

// medianIn cuts [0, span) into subWindows equal parts and returns the
// median, over the listed parts that hold any samples, of each part's
// median.
func (s series) medianIn(span time.Duration, parts []int) float64 {
	vals := make([][]float64, subWindows)
	for i, at := range s.at {
		k := partOf(at, span)
		vals[k] = append(vals[k], s.v[i])
	}
	var per []float64
	for _, k := range parts {
		if len(vals[k]) > 0 {
			per = append(per, median(vals[k]))
		}
	}
	return median(per)
}
