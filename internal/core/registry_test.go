package core

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// fakeCollector is a minimal Collector for registry mechanics.
type fakeCollector struct {
	platform Platform
	method   string
	readings []Reading
	err      error
}

func (f *fakeCollector) Platform() Platform         { return f.platform }
func (f *fakeCollector) Method() string             { return f.method }
func (f *fakeCollector) Cost() time.Duration        { return time.Microsecond }
func (f *fakeCollector) MinInterval() time.Duration { return 10 * time.Millisecond }

func (f *fakeCollector) CollectInto(buf []Reading, now time.Duration) ([]Reading, error) {
	buf = buf[:0]
	if f.err != nil {
		return buf, f.err
	}
	for _, r := range f.readings {
		r.Time = now
		buf = append(buf, r)
	}
	return buf, nil
}

func TestRegistryBuild(t *testing.T) {
	reg := NewRegistry()
	key := BackendKey{Platform: RAPL, Method: "fake"}
	reg.Register(key, func(target any) (Collector, error) {
		s, ok := target.(string)
		if !ok {
			return nil, fmt.Errorf("%w: want string, got %T", ErrBadTarget, target)
		}
		return &fakeCollector{platform: RAPL, method: s}, nil
	})

	c, err := reg.Build(key, "fake")
	if err != nil {
		t.Fatal(err)
	}
	if c.Method() != "fake" || c.Platform() != RAPL {
		t.Errorf("built %s/%s", c.Platform(), c.Method())
	}

	if _, err := reg.Build(key, 42); !errors.Is(err, ErrBadTarget) {
		t.Errorf("bad target error = %v", err)
	}
	if _, err := reg.Build(BackendKey{Platform: NVML, Method: "nope"}, nil); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("unknown backend error = %v", err)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	key := BackendKey{Platform: NVML, Method: "dup"}
	f := func(any) (Collector, error) { return nil, nil }
	reg.Register(key, f)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	reg.Register(key, f)
}

func TestRegistryNilFactoryPanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("nil factory Register did not panic")
		}
	}()
	reg.Register(BackendKey{Platform: RAPL, Method: "nil"}, nil)
}

func TestRegistryKeysSorted(t *testing.T) {
	reg := NewRegistry()
	f := func(any) (Collector, error) { return nil, nil }
	reg.Register(BackendKey{Platform: RAPL, Method: "perf"}, f)
	reg.Register(BackendKey{Platform: XeonPhi, Method: "SysMgmt API"}, f)
	reg.Register(BackendKey{Platform: RAPL, Method: "MSR"}, f)
	reg.Register(BackendKey{Platform: BlueGeneQ, Method: "EMON"}, f)

	keys := reg.Keys()
	want := []BackendKey{
		{Platform: XeonPhi, Method: "SysMgmt API"},
		{Platform: BlueGeneQ, Method: "EMON"},
		{Platform: RAPL, Method: "MSR"},
		{Platform: RAPL, Method: "perf"},
	}
	if len(keys) != len(want) {
		t.Fatalf("Keys() = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("Keys()[%d] = %v, want %v", i, keys[i], want[i])
		}
	}
	if ms := reg.Methods(RAPL); len(ms) != 2 || ms[0] != "MSR" || ms[1] != "perf" {
		t.Errorf("Methods(RAPL) = %v", ms)
	}
	if ms := reg.Methods(NVML); len(ms) != 0 {
		t.Errorf("Methods(NVML) = %v", ms)
	}
}

func TestDeviceSetCollectors(t *testing.T) {
	reg := NewRegistry()
	for _, m := range []string{"a", "b"} {
		method := m
		reg.Register(BackendKey{Platform: RAPL, Method: method}, func(target any) (Collector, error) {
			return &fakeCollector{platform: RAPL, method: method}, nil
		})
	}

	var set DeviceSet
	set.Attach(BackendKey{Platform: RAPL, Method: "b"}, nil)
	set.Attach(BackendKey{Platform: RAPL, Method: "a"}, nil)
	if set.Len() != 2 {
		t.Fatalf("Len = %d", set.Len())
	}
	cols, err := set.Collectors(reg)
	if err != nil {
		t.Fatal(err)
	}
	// attach order, not sorted order
	if cols[0].Method() != "b" || cols[1].Method() != "a" {
		t.Errorf("Collectors order = %s, %s", cols[0].Method(), cols[1].Method())
	}
	if got := set.ByPlatform(RAPL); len(got) != 2 {
		t.Errorf("ByPlatform(RAPL) = %d attachments", len(got))
	}
	if got := set.ByPlatform(NVML); len(got) != 0 {
		t.Errorf("ByPlatform(NVML) = %d attachments", len(got))
	}

	set.Attach(BackendKey{Platform: NVML, Method: "missing"}, nil)
	if _, err := set.Collectors(reg); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("Collectors with unknown backend = %v", err)
	}
}
