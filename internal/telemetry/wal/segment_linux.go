package wal

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// mapWindow allocates file bytes [off, off+n) — extending the file over
// them, zero-filled — and maps them shared. Allocating first is what keeps
// a full disk an error here instead of a SIGBUS on a later store into the
// mapping: every mapped page already has its blocks. The mapping is not
// populated; pages fault in as appends reach them.
func mapWindow(f *os.File, off int64, n int) ([]byte, error) {
	fallocate := syscall.Fallocate
	if TestHookFallocate != nil {
		fallocate = TestHookFallocate
	}
	fd := int(f.Fd())
	for {
		err := fallocate(fd, 0, off, int64(n))
		if err == nil {
			break
		}
		if !errors.Is(err, syscall.EINTR) { // a tmpfs allocation gives way to the runtime's preemption signals
			return nil, fmt.Errorf("fallocate: %w", err)
		}
	}
	win, err := syscall.Mmap(fd, off, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap: %w", err)
	}
	return win, nil
}

func unmapWindow(win []byte) error { return syscall.Munmap(win) }
