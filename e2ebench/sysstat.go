package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat
// and /proc/stat. It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// ownCPU returns user+sys CPU seconds of this process plus every child it
// has already waited for (RUSAGE_CHILDREN counts a child only once it is
// reaped, so a child still running is read from /proc instead).
func ownCPU() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// parseStatCPU extracts utime+stime, in clock ticks, from the text of
// /proc/<pid>/stat. The command name is parenthesised and may itself hold
// spaces or parentheses, so fields are counted after the last ')'.
func parseStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return ut + st, nil
}

// procCPU returns the user+sys CPU seconds a live process has used.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	t, err := parseStatCPU(string(b))
	if err != nil {
		return 0, fmt.Errorf("pid %d: %w", pid, err)
	}
	return float64(t) / clockTicks, nil
}

// parseStatusKB returns the value, in kB, of one "Key:   N kB" line of
// /proc/<pid>/status (e.g. VmHWM, the peak resident set size).
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || k != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// peakRSSMB returns a live process's peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(b), "VmHWM")
	if err != nil {
		return 0, fmt.Errorf("pid %d: %w", pid, err)
	}
	return float64(kb) / 1024, nil
}

// resetPeakRSS sets this process's VmHWM back to its current RSS, so the
// next peakRSSMB reading is the peak since the reset.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// opPeakRSS wraps an op so that each run records the process's peak RSS
// during it. The median over ops is steady where the whole-run peak is
// not: it would hinge on where one garbage collection fell.
func opPeakRSS(op func(i int) error, rss *[]float64) func(i int) error {
	return func(i int) error {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		err := op(i)
		mb, rerr := peakRSSMB(os.Getpid())
		if rerr != nil {
			return rerr
		}
		*rss = append(*rss, mb)
		return err
	}
}

// hostTicks is the aggregate "cpu" line of /proc/stat: steal ticks, busy
// ticks (user, nice, system, irq, softirq) and the total of those plus
// idle and iowait.
type hostTicks struct{ steal, busy, total int64 }

func parseHostTicks(procStat string) (hostTicks, error) {
	line, _, _ := strings.Cut(procStat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("proc stat: first line %q is not the aggregate cpu line", line)
	}
	var t hostTicks
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return hostTicks{}, fmt.Errorf("proc stat cpu field %d: %w", i, err)
		}
		t.total += v
		switch i {
		case 1, 2, 3, 6, 7:
			t.busy += v
		case 8:
			t.steal = v
		}
	}
	return t, nil
}

func readHostTicks() (hostTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	return parseHostTicks(string(b))
}

// stealRatio is the share of all CPU ticks between two readings that the
// hypervisor gave to other guests.
func stealRatio(a, b hostTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stolenShare is the share of the CPU time the host's vCPUs were runnable
// between two readings that the hypervisor gave to other guests. Unlike
// stealRatio it does not shrink when the guest is idle.
func stolenShare(a, b hostTicks) float64 {
	st := b.steal - a.steal
	return ratio(float64(st), float64(st+b.busy-a.busy))
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibrate times a fixed single-threaded integer kernel five times and
// returns the median in milliseconds: a drift in it between runs means
// the host, not the program, changed speed.
func calibrate() float64 {
	var ms []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 5_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ms)
}
