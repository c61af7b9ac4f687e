package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS starts a fresh peak-RSS measurement: garbage left by
// set-up is collected and returned to the OS, then the kernel's resident
// high-water mark (VmHWM) is reset to the current RSS (clear_refs value 5,
// Linux 4.0+), so the peak reflects the measured phases only.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the resident high-water mark in MiB since the last
// resetPeakRSS (VmHWM), or over the process's life (ru_maxrss) where
// /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// pacer sleeps a goroutine until a point in time with microsecond-scale
// precision. The Go runtime's timers round short sleeps up to about a
// millisecond on an idle process, which would add a generator artifact to
// every open-loop latency, and a blocking nanosleep would hold one of the
// few Ps while it sleeps. A non-blocking timerfd read instead parks the
// goroutine on the runtime's network poller, which wakes it when the
// kernel's high-resolution timer fires.
type pacer struct {
	fd uintptr
	f  *os.File
}

// itimerspec is struct itimerspec from timerfd_settime(2).
type itimerspec struct{ interval, value syscall.Timespec }

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil returns at t or shortly after; at once if t has passed.
func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := p.f.Read(expirations[:]); err != nil {
		return fmt.Errorf("read timerfd: %w", err)
	}
	return nil
}

func (p *pacer) close() { p.f.Close() }
