//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps to sub-millisecond deadlines. time.Sleep cannot: when the
// generator's only P has nothing to run it parks in epoll_wait, whose
// timeout the Go runtime rounds up to a whole millisecond, so a 300 us
// sleep returns after about 1 ms and the schedule runs late by more than a
// loopback delivery takes. A timerfd read parks the goroutine in the same
// netpoller, but the kernel's high-resolution timer wakes the epoll_wait on
// time. Linux only, like the /proc readers.
type pacer struct {
	fd  uintptr // f.Fd() would put the descriptor back into blocking mode
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0o4000, 0o2000000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// NewFile hands a non-blocking descriptor to the runtime's poller.
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks for d; a non-positive d returns at once.
func (p *pacer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec{it_interval, it_value}: one shot after d.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
