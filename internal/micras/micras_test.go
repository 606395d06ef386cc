package micras

import (
	"strings"
	"testing"
	"time"

	"envmon/internal/core"
	"envmon/internal/mic"
	"envmon/internal/workload"
)

func newFS() *FS {
	card := mic.New(mic.Config{Index: 0, Seed: 42})
	card.Run(workload.NoopKernel(5*time.Minute), 0)
	return NewFS(card)
}

func TestListContainsExpectedFiles(t *testing.T) {
	fs := newFS()
	paths := fs.List()
	want := []string{"corecount", "fan", "freq", "mem", "power", "temp", "version"}
	if len(paths) != len(want) {
		t.Fatalf("List = %v", paths)
	}
	for i, w := range want {
		if paths[i] != Root+"/"+w {
			t.Errorf("List[%d] = %q, want %q", i, paths[i], Root+"/"+w)
		}
	}
}

func TestReadMissingFile(t *testing.T) {
	fs := newFS()
	if _, err := fs.ReadFile(Root+"/nope", 0); err == nil {
		t.Fatal("read of missing file succeeded")
	}
}

func TestPowerFileFormat(t *testing.T) {
	fs := newFS()
	b, err := fs.ReadFile(Root+"/power", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := ParseKV(b)
	if err != nil {
		t.Fatalf("unparseable power file %q: %v", b, err)
	}
	// ~112 W in µW
	if kv["tot0"] < 100e6 || kv["tot0"] > 130e6 {
		t.Errorf("tot0 = %d µW, want ~112e6", kv["tot0"])
	}
	if kv["vccp"] != 1030 || kv["vddg"] != 1500 {
		t.Errorf("rail voltages = %d, %d mV", kv["vccp"], kv["vddg"])
	}
}

func TestTempAndMemFiles(t *testing.T) {
	fs := newFS()
	b, _ := fs.ReadFile(Root+"/temp", 30*time.Second)
	kv, err := ParseKV(b)
	if err != nil {
		t.Fatal(err)
	}
	if kv["die"] < 350 || kv["die"] > 950 {
		t.Errorf("die temp = %d (tenths C)", kv["die"])
	}
	if kv["fanout"] <= kv["fanin"] {
		t.Error("exhaust not hotter than intake")
	}
	b, _ = fs.ReadFile(Root+"/mem", 30*time.Second)
	if kv, err = ParseKV(b); err != nil {
		t.Fatal(err)
	}
	if kv["total"] != 8<<20 { // 8 GB in kB
		t.Errorf("mem total = %d kB", kv["total"])
	}
	if kv["used"]+kv["free"] != kv["total"] {
		t.Error("used+free != total")
	}
	if kv["speed"] != mic.MemSpeedKTps {
		t.Errorf("speed = %d kT/s", kv["speed"])
	}
}

func TestCorecountAndVersion(t *testing.T) {
	fs := newFS()
	b, _ := fs.ReadFile(Root+"/corecount", 0)
	if strings.TrimSpace(string(b)) != "61" {
		t.Errorf("corecount = %q", b)
	}
	b, _ = fs.ReadFile(Root+"/version", 0)
	if !strings.Contains(string(b), "micras") {
		t.Errorf("version = %q", b)
	}
}

func TestParseKVErrors(t *testing.T) {
	if _, err := ParseKV([]byte("no separator here\n")); err == nil {
		t.Error("missing separator accepted")
	}
	if _, err := ParseKV([]byte("key: notanumber\n")); err == nil {
		t.Error("non-numeric value accepted")
	}
	kv, err := ParseKV([]byte("a: 1\n\nb: 2\n"))
	if err != nil || kv["a"] != 1 || kv["b"] != 2 {
		t.Errorf("blank-line handling: %v, %v", kv, err)
	}
}

func TestReadsCounter(t *testing.T) {
	fs := newFS()
	fs.ReadFile(Root+"/power", 0)
	fs.ReadFile(Root+"/temp", time.Second)
	if fs.Reads() != 2 {
		t.Errorf("Reads = %d", fs.Reads())
	}
}

func TestCollectorEndToEnd(t *testing.T) {
	fs := newFS()
	col := NewCollector(fs)
	defer col.Close()
	if col.Platform() != core.XeonPhi || col.Method() != "MICRAS daemon" {
		t.Error("collector identity wrong")
	}
	if col.Cost() != mic.DaemonQueryCost {
		t.Errorf("Cost = %v", col.Cost())
	}
	rs, err := col.CollectInto(nil, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 11 {
		t.Fatalf("Collect returned %d readings, want 11", len(rs))
	}
	if rs[0].Cap != (core.Capability{Component: core.Total, Metric: core.Power}) {
		t.Error("first reading not total power")
	}
	if rs[0].Value < 100 || rs[0].Value > 130 {
		t.Errorf("daemon power = %v W", rs[0].Value)
	}
	if col.Queries() != 1 {
		t.Error("query counter")
	}
}

func TestCollectorContention(t *testing.T) {
	// Opening a daemon collector adds the on-card contention draw; closing
	// removes it. Compare identically-seeded cards.
	mk := func(open bool) float64 {
		card := mic.New(mic.Config{Index: 0, Seed: 7})
		card.Run(workload.NoopKernel(time.Minute), 0)
		fs := NewFS(card)
		if open {
			_ = NewCollector(fs)
		}
		b, err := fs.ReadFile(Root+"/power", 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		kv, _ := ParseKV(b)
		return float64(kv["tot0"]) / 1e6
	}
	withCol := mk(true)
	without := mk(false)
	if withCol <= without {
		t.Errorf("daemon contention missing: %v <= %v", withCol, without)
	}
	if withCol-without > 2 {
		t.Errorf("daemon contention too large: %v W", withCol-without)
	}
}

func TestCollectorClosedRejects(t *testing.T) {
	fs := newFS()
	col := NewCollector(fs)
	col.Close()
	if _, err := col.CollectInto(nil, 0); err == nil {
		t.Fatal("closed collector collected")
	}
	col.Close() // double close is harmless
}

func BenchmarkDaemonCollect(b *testing.B) {
	fs := newFS()
	col := NewCollector(fs)
	defer col.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := col.CollectInto(nil, time.Duration(i)*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}
