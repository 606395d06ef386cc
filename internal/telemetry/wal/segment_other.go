//go:build !linux

package wal

import (
	"errors"
	"os"
)

// Without fallocate there is no way to promise a mapped page its blocks,
// so every segment takes the write(2) appender.
func mapWindow(*os.File, int64, int) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapWindow([]byte) error { return nil }
