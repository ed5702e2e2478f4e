package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps the generator to each arrival's intended instant.
//
// Three simpler designs were measured and rejected. time.Sleep alone
// wakes about 0.4 ms late when the Ps go idle: the P blocked in epoll
// waits a whole millisecond for any sub-millisecond timer, and that
// lateness is charged as latency. Yield-spinning dispatchers keep every
// core busy and starve the netpoller the TCP fabric depends on. A
// timerfd read through the netpoller alone wakes on time when the Ps
// are idle but up to milliseconds late when they are busy, since busy
// Ps seldom poll the network.
//
// This pacer combines the two wake paths. It sleeps on a Go timer,
// which busy Ps fire at their next scheduling point, and arms a timerfd
// for the same instant. The timerfd is registered with the runtime's
// epoll set, so an idle P blocked in epoll returns at the target instant
// instead of a millisecond later, and then fires the timer. Gaps shorter
// than spinBelow are spun out, since a sleep costs more than that.
type pacer struct {
	f *os.File
	// fd is f's descriptor, kept apart because File.Fd would switch f
	// to blocking mode and take it off the netpoller.
	fd  uintptr
	buf [8]byte
}

const (
	clockMonotonic = 1
	spinBelow      = 10 * time.Microsecond
)

// newPacer creates the timerfd. os.NewFile registers a non-blocking
// descriptor with the runtime's epoll set; the pacer never reads it
// through the File.
func newPacer() (*pacer, error) {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleepUntil returns at the first instant at or after at nanoseconds
// past origin.
func (p *pacer) sleepUntil(origin time.Time, at int64) error {
	for {
		d := at - time.Since(origin).Nanoseconds()
		if d <= 0 {
			return nil
		}
		if d < spinBelow.Nanoseconds() {
			continue
		}
		// struct itimerspec{it_interval, it_value}: one-shot, relative.
		spec := [4]int64{0, 0, d / 1e9, d % 1e9}
		if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return fmt.Errorf("timerfd_settime: %w", errno)
		}
		time.Sleep(time.Duration(d))
		// Consume the expiry so the descriptor is quiet until re-armed.
		// EAGAIN means the Go timer fired first; the next arm replaces
		// the pending expiry.
		_, _ = syscall.Read(int(p.fd), p.buf[:])
	}
}

func (p *pacer) close() error { return p.f.Close() }
