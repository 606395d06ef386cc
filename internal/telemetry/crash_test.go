package telemetry

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"

	"envmon/internal/telemetry/wal"
	"envmon/internal/trace"
)

// crashOpts must match between the child (ingesting) and the parent
// (recovering): tiny rings and a tiny WAL budget so the kill lands in a
// stream of real compactions and rotations.
func crashOpts() Options {
	return Options{Shards: 2, RawCapacity: 64, RollupCapacity: 4, GapCapacity: 16,
		WALSegmentBytes: 64 << 10}
}

var crashKey = SeriesKey{Node: "c000-001", Backend: "MSR", Domain: "Total Power"}

// crashEvent is the deterministic workload both processes can derive:
// event i is a gap marker when i%7 == 3, a sample otherwise.
func crashEvent(i int) (t time.Duration, v float64, gap bool) {
	t = time.Duration(i) * 10 * time.Millisecond
	if i%7 == 3 {
		return t, 0, true
	}
	return t, 200 + float64(i%13)*0.25, false
}

// runCrashChild ingests the workload forever, printing each event's index
// once the store has acknowledged it. It only exits by being killed. With
// appender "write" it journals as on a filesystem that refuses fallocate;
// with path "flush" it hands the events over in cursor flushes.
func runCrashChild(dir, appender, path string) {
	if appender == "write" {
		wal.TestHookFallocate = func(int, uint32, int64, int64) error { return syscall.EOPNOTSUPP }
	}
	opts := crashOpts()
	if path == "flush" {
		opts = crashFlushOpts()
	}
	st, err := Open(dir, opts)
	if err == nil && st.StorageStats().WALMapped != (appender == "mapped") {
		err = fmt.Errorf("store is not journaling through the %s appender", appender)
	}
	if err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	if path == "flush" {
		// The same events, crashFlush at a time through a cursor; a flush is
		// acknowledged, by its last event's index, once it has returned.
		set := trace.NewSet()
		ts := set.Add(trace.NewSeries(crashKey.Backend+"/"+crashKey.Domain, "W"))
		cur := NewSetCursor(st, crashKey.Node, set)
		for i := 0; ; i++ {
			if t, v, gap := crashEvent(i); gap {
				ts.MustAppendGap(t)
			} else {
				ts.MustAppend(t, v)
			}
			if i%crashFlush == crashFlush-1 {
				if err := cur.Flush(); err != nil {
					fmt.Println("ERR", err)
					os.Exit(1)
				}
				fmt.Fprintln(w, i)
				w.Flush()
			}
		}
	}
	for i := 0; ; i++ {
		t, v, gap := crashEvent(i)
		if gap {
			err = st.IngestGap(crashKey, "W", t)
		} else {
			err = st.Ingest(crashKey, "W", t, v)
		}
		if err != nil {
			fmt.Println("ERR", err)
			os.Exit(1)
		}
		// The ack goes out only after the ingest returned: everything the
		// parent reads is covered by the durability guarantee.
		fmt.Fprintln(w, i)
		w.Flush()
	}
}

// TestCrashRecoveryAfterKill kills an ingesting process with SIGKILL mid
// stream, reopens its data directory, and checks that every acknowledged
// sample and gap marker survived and that the recovered history is exactly
// the event stream an uninterrupted run would have produced. Once per
// journal appender: the kill leaves a preallocated zero tail behind the
// mapped one and at most a torn frame behind write(2).
func TestCrashRecoveryAfterKill(t *testing.T) {
	if dir := os.Getenv("TELEMETRY_CRASH_CHILD"); dir != "" {
		runCrashChild(dir, os.Getenv("TELEMETRY_CRASH_APPENDER"), os.Getenv("TELEMETRY_CRASH_PATH")) // never returns
	}
	t.Run("mapped", func(t *testing.T) {
		if runtime.GOOS != "linux" {
			t.Skip("no mapped appender off Linux")
		}
		crashRecoveryAfterKill(t, "mapped")
	})
	t.Run("write", func(t *testing.T) { crashRecoveryAfterKill(t, "write") })
	t.Run("flush-mapped", func(t *testing.T) {
		if runtime.GOOS != "linux" {
			t.Skip("no mapped appender off Linux")
		}
		crashRecoveryAfterKilledFlush(t, "mapped")
	})
	t.Run("flush-write", func(t *testing.T) { crashRecoveryAfterKilledFlush(t, "write") })
}

// crashFlush is how many events the cursor-flush child hands over per flush:
// a run of 48 samples, then 8 gap markers.
const crashFlush, crashRun = 56, 48

// crashFlushOpts is crashOpts with a raw ring of two runs. A seal leaves
// room for exactly two more, so ring pressure always finds the cursor at the
// head of a run, as the segment budget does; the gap ring fills between one
// flush's samples and the next one's; the rollup rings never fill first. No
// run is split by a seal, then: every run is one journal record.
func crashFlushOpts() Options {
	opts := crashOpts()
	opts.RawCapacity = 2 * crashRun
	return opts
}

// crashRecoveryAfterKilledFlush is the kill test for run records: the child
// feeds the store through SetCursor.Flush, and the parent must find every
// flush that returned, and of the flush the kill landed in — nothing
// promised — either its whole run or none of it, never part of a record.
func crashRecoveryAfterKilledFlush(t *testing.T, appender string) {
	dir := t.TempDir()
	lastAck := killCrashChild(t, dir, appender, "flush")
	st, err := Open(dir, crashFlushOpts())
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st.Close()
	if lost := st.StorageStats().Recovery.Lost; lost != 0 {
		t.Fatalf("recovery lost %d journal records", lost)
	}
	frames := st.Query(Query{Node: crashKey.Node})
	if len(frames) != 1 {
		t.Fatalf("recovered %d series, want 1", len(frames))
	}
	f := frames[0]
	flushes := (lastAck + 1) / crashFlush
	if len(f.Points) < flushes*crashRun || len(f.Gaps) < flushes*(crashFlush-crashRun) {
		t.Fatalf("recovered %d samples and %d gaps, %d flushes were acknowledged", len(f.Points), len(f.Gaps), flushes)
	}
	if len(f.Points)%crashRun != 0 {
		t.Fatalf("recovered %d samples: %d of a %d-sample run replayed", len(f.Points), len(f.Points)%crashRun, crashRun)
	}

	// And the recovered store must answer exactly like an uninterrupted
	// run over the same samples and gap markers.
	ref := New(Options{Shards: 1, RawCapacity: 1 << 20, RollupCapacity: 1 << 16, GapCapacity: 1 << 16})
	for i, samples, gaps := 0, 0, 0; samples < len(f.Points) || gaps < len(f.Gaps); i++ {
		et, ev, gap := crashEvent(i)
		switch {
		case gap && gaps < len(f.Gaps):
			err = ref.IngestGap(crashKey, "W", et)
			gaps++
		case !gap && samples < len(f.Points):
			err = ref.Ingest(crashKey, "W", et, ev)
			samples++
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, res := range []Resolution{Raw, Res1s, Res10s, Res60s} {
		got := st.Query(Query{Resolution: res, Aggregate: AggMean})
		want := ref.Query(Query{Resolution: res, Aggregate: AggMean})
		if len(got) != 1 || len(want) != 1 {
			t.Fatalf("res %v: frame counts %d/%d", res, len(got), len(want))
		}
		if fmt.Sprintf("%+v", got[0]) != fmt.Sprintf("%+v", want[0]) {
			t.Fatalf("res %v: recovered frame diverges from uninterrupted run", res)
		}
	}
}

// killCrashChild starts a child ingesting into dir, reads its acknowledgements
// until it is deep into compaction territory, kills it mid-flight — no flush,
// no warning — and returns the last event index it acknowledged.
func killCrashChild(t *testing.T, dir, appender, path string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashRecoveryAfterKill")
	cmd.Env = append(os.Environ(), "TELEMETRY_CRASH_CHILD="+dir, "TELEMETRY_CRASH_APPENDER="+appender, "TELEMETRY_CRASH_PATH="+path)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lastAck := -1
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		n, err := strconv.Atoi(sc.Text())
		if err != nil {
			t.Fatalf("child: %s", sc.Text())
		}
		lastAck = n
		if lastAck >= 20000 {
			break
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	if lastAck < 20000 {
		t.Fatalf("child died early (last ack %d)", lastAck)
	}
	return lastAck
}

func crashRecoveryAfterKill(t *testing.T, appender string) {
	dir := t.TempDir()
	lastAck := killCrashChild(t, dir, appender, "ingest")

	st, err := Open(dir, crashOpts())
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st.Close()
	if lost := st.StorageStats().Recovery.Lost; lost != 0 {
		t.Fatalf("recovery lost %d journal records", lost)
	}

	frames := st.Query(Query{Node: crashKey.Node})
	if len(frames) != 1 {
		t.Fatalf("recovered %d series, want 1", len(frames))
	}
	f := frames[0]
	// Acks are in ingest order over one series, so the recovered state
	// must be a prefix of the event stream covering at least every acked
	// event — and each recovered point/gap must match the generator
	// exactly (never a zero standing in for "no data").
	recovered := len(f.Points) + len(f.Gaps)
	if recovered <= lastAck {
		t.Fatalf("recovered %d events, acknowledged %d", recovered, lastAck+1)
	}
	pi, gi := 0, 0
	for i := 0; i < recovered; i++ {
		et, ev, gap := crashEvent(i)
		if gap {
			if gi >= len(f.Gaps) || f.Gaps[gi] != et {
				t.Fatalf("event %d: gap marker missing or wrong (have %d gaps)", i, len(f.Gaps))
			}
			gi++
			continue
		}
		if pi >= len(f.Points) {
			t.Fatalf("event %d: sample missing", i)
		}
		if p := f.Points[pi]; p.T != et || p.Last != ev {
			t.Fatalf("event %d: recovered (%v, %v), want (%v, %v)", i, p.T, p.Last, et, ev)
		}
		pi++
	}

	// And the recovered store must answer exactly like an uninterrupted
	// run over the same prefix.
	ref := New(Options{Shards: 1, RawCapacity: 1 << 20, RollupCapacity: 1 << 16, GapCapacity: 1 << 16})
	for i := 0; i < recovered; i++ {
		et, ev, gap := crashEvent(i)
		if gap {
			err = ref.IngestGap(crashKey, "W", et)
		} else {
			err = ref.Ingest(crashKey, "W", et, ev)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, res := range []Resolution{Raw, Res1s, Res10s, Res60s} {
		got := st.Query(Query{Resolution: res, Aggregate: AggMean})
		want := ref.Query(Query{Resolution: res, Aggregate: AggMean})
		if len(got) != 1 || len(want) != 1 {
			t.Fatalf("res %v: frame counts %d/%d", res, len(got), len(want))
		}
		if fmt.Sprintf("%+v", got[0]) != fmt.Sprintf("%+v", want[0]) {
			t.Fatalf("res %v: recovered frame diverges from uninterrupted run", res)
		}
	}
}
