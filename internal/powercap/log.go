package powercap

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// Log is a bounded ring of decisions — the controller's replay artifact.
// Its CSV rendering is byte-stable: identical decision sequences render
// to identical bytes, so CI can diff runs across seeds, shard counts,
// and worker counts.
type Log struct {
	mu      sync.Mutex
	ring    []Decision
	next    int
	wrapped bool
	dropped uint64
}

// newLog builds a log holding the last capacity decisions.
func newLog(capacity int) *Log {
	return &Log{ring: make([]Decision, 0, capacity)}
}

// Append records one decision, evicting the oldest when full.
func (l *Log) Append(d Decision) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, d)
		return
	}
	l.ring[l.next] = d
	l.next = (l.next + 1) % cap(l.ring)
	l.wrapped = true
	l.dropped++
}

// Decisions returns the retained decisions oldest-first.
func (l *Log) Decisions() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Decision, 0, len(l.ring))
	if l.wrapped {
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	} else {
		out = append(out, l.ring...)
	}
	return out
}

// Dropped reports how many decisions the ring has evicted.
func (l *Log) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// csvHeader is the decision log's fixed schema.
const csvHeader = "t_ns,mode,cap_w,measured_w,fresh,rung,reason\n"

// WriteCSV renders the retained decisions as CSV. Floats use Go's
// shortest round-trip formatting and times are integer nanoseconds, so
// the bytes are a pure function of the decision values.
func (l *Log) WriteCSV(w io.Writer) error {
	ds := l.Decisions()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(csvHeader); err != nil {
		return err
	}
	for _, d := range ds {
		bw.WriteString(strconv.FormatInt(int64(d.Now), 10))
		bw.WriteByte(',')
		bw.WriteString(d.Mode.String())
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatFloat(d.CapW, 'g', -1, 64))
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatFloat(d.MeasuredW, 'g', -1, 64))
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatBool(d.Fresh))
		bw.WriteByte(',')
		bw.WriteString(strconv.Itoa(d.Rung))
		bw.WriteByte(',')
		bw.WriteString(d.Reason)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
