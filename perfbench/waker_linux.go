package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waker sleeps a goroutine until a deadline with microsecond precision.
// time.Sleep cannot: when every P is idle the runtime waits for timers
// in epoll_wait, whose timeout is whole milliseconds, so a sub-ms sleep
// wakes up to a millisecond late and an open-loop generator would
// measure its own lateness. A timerfd read through the netpoller wakes
// as soon as the kernel's high-resolution timer fires, and burns no CPU
// while it waits.
type waker struct {
	f  *os.File
	fd uintptr
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newWaker() (*waker, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.NewFile use the netpoller, so
	// Read parks the goroutine instead of blocking a thread.
	return &waker{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleepUntil returns at t or just after it.
func (w *waker) sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // itimerspec: interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(time.Until(t))
		return
	}
	var buf [8]byte
	if _, err := w.f.Read(buf[:]); err != nil {
		time.Sleep(time.Until(t))
	}
}

func (w *waker) close() error { return w.f.Close() }
