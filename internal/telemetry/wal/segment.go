package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"syscall"
)

// window is how far ahead of a segment's logical end the mapped appender
// preallocates and maps; the file grows by about one window at a time.
const window = 256 << 10

// TestHookFallocate, when set, stands in for fallocate(2) under the mapped
// appender. Only tests set it (the internal/poll.TestHook idiom), to be a
// filesystem that refuses to preallocate (EOPNOTSUPP: segments opened
// meanwhile take the write(2) appender, which is how one Linux host runs
// the replay and crash tests against both) or one that has run out of
// space (ENOSPC).
var TestHookFallocate func(fd int, mode uint32, off, n int64) error

// The write(2) appender's two calls, as variables so tests can stand in a
// filesystem that writes short or fails.
var (
	writeAt  = (*os.File).WriteAt
	truncate = (*os.File).Truncate
)

// segment is one open segment file and the way records reach it. Two
// appenders share it, chosen when the segment is created:
//
//   - mapped: the file is preallocated one window ahead of its logical end
//     and that window is mapped MAP_SHARED, so an append is a copy into
//     page cache the kernel already owns — no system call, and the bytes
//     survive the process exactly as written ones do. Allocation happens
//     before mapping, so a full disk is an error from append, never a
//     fault on a store into the window.
//   - write(2): one pwrite per record, on platforms without the mapped
//     appender and on filesystems that refuse fallocate or mmap.
//
// Either way the file holds, from byte 0 to size, the header and every
// acknowledged record and nothing else that replay could mistake for one:
// a mapped segment's tail is preallocated zeros, which replay reads as the
// end, and a failed write is cut back off.
type segment struct {
	f    *os.File
	size int64 // logical end: header plus every acknowledged record

	// win maps file bytes [winOff, winOff+len(win)); nil on the write(2)
	// appender.
	win    []byte
	winOff int64

	// failed, once set, refuses every later append: the segment is
	// closed, or a failed write could not be cut back off and the file
	// may hold a torn frame that later records would land behind.
	failed error
}

// createSegment creates (or truncates) the named segment file, picks its
// appender and writes the header.
func createSegment(name string) (segment, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return segment{}, err
	}
	s := segment{f: f}
	hdr := make([]byte, 0, 8)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, version)
	// A filesystem that cannot preallocate or map gets the write(2)
	// appender for this segment; any other failure (no space, no address
	// space) is the caller's to see.
	if err := s.advance(len(hdr)); err != nil && !mapUnsupported(err) {
		f.Close()
		return segment{}, err
	}
	if err := s.append(hdr); err != nil {
		s.release()
		return segment{}, err
	}
	return s, nil
}

func mapUnsupported(err error) bool {
	return errors.Is(err, errors.ErrUnsupported) || errors.Is(err, syscall.ENODEV)
}

// mapped reports whether appends go through the mapped window.
func (s *segment) mapped() bool { return s.win != nil }

// append adds p at the segment's logical end. On error the logical end has
// not moved and the file holds nothing past it that replay could read.
func (s *segment) append(p []byte) error {
	if s.failed != nil {
		return s.failed
	}
	if s.win == nil {
		return s.write(p)
	}
	if int64(len(p)) > s.winOff+int64(len(s.win))-s.size {
		if err := s.advance(len(p)); err != nil {
			return err
		}
	}
	copy(s.win[s.size-s.winOff:], p)
	s.size += int64(len(p))
	return nil
}

// advance moves the window so the next need bytes at the logical end fit
// in it: from the page holding the logical end, one window long, or as
// long as the record when that is longer. The new range is allocated and
// mapped before the old window is let go, so a failure — ENOSPC above all
// — leaves the segment as it was.
func (s *segment) advance(need int) error {
	off := s.size &^ int64(os.Getpagesize()-1)
	n := max(window, int(s.size-off)+need)
	win, err := mapWindow(s.f, off, n)
	if err != nil {
		return err
	}
	s.unmap()
	s.win, s.winOff = win, off
	return nil
}

// write is the write(2) appender. A short or failed write may leave part
// of a frame past the logical end; replay stops at a torn frame, so
// records acknowledged after it would be lost at the next restart. The
// file is cut back to its logical end before the error is returned.
func (s *segment) write(p []byte) error {
	_, err := writeAt(s.f, p, s.size)
	if err == nil {
		s.size += int64(len(p))
		return nil
	}
	if terr := truncate(s.f, s.size); terr != nil {
		s.failed = fmt.Errorf("segment failed closed: %w (cutting back after: %v)", terr, err)
	}
	return err
}

func (s *segment) unmap() {
	if s.win != nil {
		// munmap only fails on a range that is not a mapping, which a
		// slice mapWindow returned cannot be.
		_ = unmapWindow(s.win)
		s.win = nil
	}
}

// release unmaps the window and closes the file as it is, preallocated
// tail included — for a segment about to be unlinked.
func (s *segment) release() error {
	if s.f == nil {
		return nil
	}
	s.unmap()
	err := s.f.Close()
	s.f, s.failed = nil, os.ErrClosed
	return err
}

// close cuts the preallocated tail off, so the file's length is its
// logical size, then releases the segment.
func (s *segment) close() error {
	if s.f == nil {
		return nil
	}
	s.unmap()
	err := s.f.Truncate(s.size)
	if cerr := s.release(); err == nil {
		err = cerr
	}
	return err
}
