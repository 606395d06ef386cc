package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// root). Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory until the run ends. The spans are recorded
// by the harness around its calls into the stack (and in the middleware it
// wraps the servers with); nothing inside the program is touched. A nil
// tracer records nothing, which is the untraced run.
//
// Causality crosses the loopback socket without a header: each request
// class has at most one request in flight (one closed-loop client per
// class), so the span that is open for a class when a server sees a
// request of that class is its parent.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// open[layer][class] is the ID of the span currently open there.
	open [numLayers][numClasses]atomic.Int64
}

// The layers whose open span a downstream span may name as its parent.
const (
	layerClient = iota // the harness's call into client.Client
	layerFed           // the federation.Server handler
	numLayers
)

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Start: now, ID: id, Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// mark is the number of spans recorded so far; since(mark) copies the
// spans recorded after it, which is how a section reads its own.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// classOf sorts a request into the class whose client issued it.
func classOf(r *http.Request) int {
	switch {
	case r.URL.Path == "/topk":
		return opTopK
	case r.URL.Query().Get("node") != "":
		return opHistory
	default:
		return opRecent
	}
}

// countingWriter records the size of a response and the frame points in
// it. The servers encode a document with one Write, so counting the point
// key per chunk misses none.
type countingWriter struct {
	http.ResponseWriter
	bytes, points int64
}

var pointKey = []byte(`"t_ns"`)

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	w.points += int64(bytes.Count(p[:n], pointKey))
	return n, err
}

// middleware wraps a server's handler in a span named name.<class>. A
// front server (the federation tier) hangs its span under the client's
// open span and publishes it for the members behind it; a member hangs
// its span under the front's open span when there is one and under the
// client's otherwise. onBody, if set, receives each response's class,
// size and point count.
func (t *tracer) middleware(name string, front bool, onBody func(class int, bytes, points int64), next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := classOf(r)
		parent := int(t.open[layerClient][class].Load())
		if !front {
			if p := int(t.open[layerFed][class].Load()); p != 0 {
				parent = p
			}
		}
		id := t.begin(name+"."+classNames[class], parent, t.reqOf(parent))
		if front {
			t.open[layerFed][class].Store(int64(id))
		}
		if onBody == nil {
			next.ServeHTTP(w, r)
			t.end(id)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		t.end(id)
		onBody(class, cw.bytes, cw.points)
	})
}

// resetOpen forgets the open spans; called between sections so that a
// finished section's last request cannot adopt the next section's spans.
func (t *tracer) resetOpen() {
	if t == nil {
		return
	}
	for l := range t.open {
		for c := range t.open[l] {
			t.open[l][c].Store(0)
		}
	}
}

func (t *tracer) reqOf(id int) int {
	if id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Req
}

// call runs fn inside a client-layer span of the given class.
func (t *tracer) call(name string, class, req int, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.begin(name+"."+classNames[class], 0, req)
	t.open[layerClient][class].Store(int64(id))
	fn()
	t.end(id)
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of it that its child spans cover (overlapping children, such as
// parallel member calls, are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

func writeSpans(path string, spans []span) error {
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
