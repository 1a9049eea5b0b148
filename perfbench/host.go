package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// userHZ is the unit of /proc/stat CPU times on Linux.
const userHZ = 100

// stealSeconds returns the machine-wide hypervisor steal time from the
// aggregate "cpu" line of /proc/stat (its eighth value), or 0 where the
// file is unreadable. It only reads.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return v / userHZ
}

// statCPUs is the number of CPUs whose steal the aggregate line of
// /proc/stat sums (its "cpuN" lines), at least 1.
var statCPUs = sync.OnceValue(func() int {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 1
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if len(line) > 3 && strings.HasPrefix(line, "cpu") && line[3] >= '0' && line[3] <= '9' {
			n++
		}
	}
	return max(n, 1)
})

// unstolen returns how much of a wall-clock interval the timed work was
// left to run, given the steal seconds summed over the machine's CPUs and
// how many CPUs the work keeps busy: wall less the busy CPUs' share of
// the steal. A CPU with nothing to run accrues no steal, so the steal a
// one-worker sweep sees is nearly all taken from its own CPU. On a host
// without steal it is wall itself; a steal reading past the whole
// interval, which only a counter glitch can give, leaves wall as it is.
func unstolen(wall, steal float64, busy int) float64 {
	if left := wall - steal/float64(min(busy, statCPUs())); left > 0 {
		return left
	}
	return wall
}

// netClock times an interval net of hypervisor steal.
type netClock struct {
	t0    time.Time
	steal float64
}

func startNetClock() netClock { return netClock{t0: time.Now(), steal: stealSeconds()} }

// seconds returns the time since the clock started, net of the steal
// taken from the busy CPUs the timed work kept busy (see unstolen).
func (c netClock) seconds(busy int) float64 {
	return unstolen(time.Since(c.t0).Seconds(), stealSeconds()-c.steal, busy)
}

// procCPUSeconds returns this process's user + system CPU time.
func procCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
