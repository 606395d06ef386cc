package core_test

import (
	"errors"
	"testing"
	"time"

	"envmon/internal/core"
	"envmon/internal/envdb"
	"envmon/internal/faults"
	"envmon/internal/mic"
	"envmon/internal/micras"
	"envmon/internal/msr"
	"envmon/internal/nvml"
	"envmon/internal/rapl"
)

// faultingMSR is a register whose reads fault like rdmsr on a dying part.
type faultingMSR struct{}

func (faultingMSR) Read(time.Duration) (uint64, error) {
	return 0, errors.New("conformance: injected #GP")
}
func (faultingMSR) Write(time.Duration, uint64) error {
	return errors.New("conformance: injected #GP")
}

// conformanceCase drives one vendor backend through the shared error-path
// contract. build constructs the collector through the registry and returns
// hooks that break and (when the mechanism can come back) repair it.
type conformanceCase struct {
	key core.BackendKey
	// build returns the collector plus the fault/heal hooks.
	build func(t *testing.T) (col core.Collector, fault, heal func())
	// okPolls are pre-fault poll instants; the last must yield readings
	// (energy-counter paths need a priming poll before the first delta).
	okPolls []time.Duration
	// failT is the poll instant tried with the fault active.
	failT time.Duration
	// healPolls are post-heal poll instants (empty when heal is nil: a
	// closed daemon session does not come back).
	healPolls []time.Duration
}

func conformanceCases() []conformanceCase {
	return []conformanceCase{
		{
			// RAPL via the MSR driver: a status MSR starts faulting (#GP),
			// then a working register comes back.
			key: core.BackendKey{Platform: core.RAPL, Method: "MSR"},
			build: func(t *testing.T) (core.Collector, func(), func()) {
				sock := rapl.NewSocket(rapl.Config{Name: "conf0", Seed: 7})
				col, err := core.Build(core.BackendKey{Platform: core.RAPL, Method: "MSR"}, rapl.MSRTarget{Socket: sock})
				if err != nil {
					t.Fatal(err)
				}
				regs := sock.Registers()
				fault := func() { regs.Install(msr.PP0EnergyStatus, faultingMSR{}) }
				heal := func() {
					regs.Install(msr.PP0EnergyStatus, msr.Func(func(now time.Duration) uint64 {
						return uint64(sock.Counter(rapl.PP0, now))
					}))
				}
				return col, fault, heal
			},
			okPolls:   []time.Duration{100 * time.Millisecond, 200 * time.Millisecond},
			failT:     300 * time.Millisecond,
			healPolls: []time.Duration{400 * time.Millisecond},
		},
		{
			// NVML: the GPU enters NVML_ERROR_GPU_IS_LOST, then recovers.
			key: core.BackendKey{Platform: core.NVML, Method: "NVML"},
			build: func(t *testing.T) (core.Collector, func(), func()) {
				dev := nvml.NewDevice(nvml.K20Spec(), 0, 7)
				lib := nvml.NewLibrary(dev)
				lib.Init()
				col, err := core.Build(core.BackendKey{Platform: core.NVML, Method: "NVML"}, nvml.Target{Lib: lib, Index: 0})
				if err != nil {
					t.Fatal(err)
				}
				return col, func() { dev.SetLost(true) }, func() { dev.SetLost(false) }
			},
			okPolls:   []time.Duration{100 * time.Millisecond, 200 * time.Millisecond},
			failT:     300 * time.Millisecond,
			healPolls: []time.Duration{400 * time.Millisecond},
		},
		{
			// Xeon Phi via the MICRAS daemon: the polling session closes.
			// A closed session never comes back — no heal.
			key: core.BackendKey{Platform: core.XeonPhi, Method: "MICRAS daemon"},
			build: func(t *testing.T) (core.Collector, func(), func()) {
				card := mic.New(mic.Config{Index: 0, Seed: 7})
				col, err := core.Build(core.BackendKey{Platform: core.XeonPhi, Method: "MICRAS daemon"}, card)
				if err != nil {
					t.Fatal(err)
				}
				return col, func() { col.(*micras.Collector).Close() }, nil
			},
			okPolls: []time.Duration{100 * time.Millisecond, 200 * time.Millisecond},
			failT:   300 * time.Millisecond,
		},
		{
			// BG/Q through the central database: the paper's EMON endpoint
			// itself cannot fail, but its delivery path can — the backfill
			// collector errors when the database has nothing in its window
			// and answers again once records flow.
			key: core.BackendKey{Platform: core.BlueGeneQ, Method: "envdb backfill"},
			build: func(t *testing.T) (core.Collector, func(), func()) {
				db := envdb.New()
				loc := envdb.Location("R00-M0-N00")
				insert := func(at time.Duration, w float64) {
					db.Insert(envdb.Record{Time: at, Location: loc, Sensor: "output_power", Value: w, Unit: "W"})
				}
				insert(30*time.Second, 1800)
				col, err := core.Build(core.BackendKey{Platform: core.BlueGeneQ, Method: "envdb backfill"}, envdb.BackfillTarget{DB: db, Location: loc})
				if err != nil {
					t.Fatal(err)
				}
				col.(*envdb.Backfill).SetWindow(time.Minute)
				// The fault is the passage of time: by failT the only record
				// has aged out of the one-minute window. Heal ships a fresh one.
				return col, func() {}, func() { insert(590*time.Second, 1900) }
			},
			okPolls:   []time.Duration{60 * time.Second},
			failT:     600 * time.Second,
			healPolls: []time.Duration{601 * time.Second},
		},
	}
}

// TestCollectIntoErrorPathConformance drives all four vendor platforms
// through one contract: a failed poll surfaces a non-nil error with zero
// readings (no partial results leak), the caller's buffer survives for the
// next poll, identity metadata stays valid throughout, and — where the
// mechanism can recover — polling resumes without rebuilding the collector.
func TestCollectIntoErrorPathConformance(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.key.String(), func(t *testing.T) {
			col, fault, heal := tc.build(t)

			if col.Platform() != tc.key.Platform || col.Method() != tc.key.Method {
				t.Fatalf("identity = %s/%s, want %s", col.Platform(), col.Method(), tc.key)
			}
			if col.MinInterval() <= 0 || col.Cost() <= 0 {
				t.Fatalf("MinInterval %v / Cost %v must be positive", col.MinInterval(), col.Cost())
			}

			buf := make([]core.Reading, 0, 64)
			var err error
			for _, at := range tc.okPolls {
				if buf, err = col.CollectInto(buf, at); err != nil {
					t.Fatalf("healthy poll at %v: %v", at, err)
				}
			}
			if len(buf) == 0 {
				t.Fatal("healthy collector produced no readings")
			}
			for _, r := range buf {
				if r.Unit == "" {
					t.Errorf("reading %s has no unit", r.Cap)
				}
				if r.Time < 0 {
					t.Errorf("reading %s has negative timestamp %v", r.Cap, r.Time)
				}
			}
			baseline := len(buf)

			fault()
			got, err := col.CollectInto(buf, tc.failT)
			if err == nil {
				t.Fatal("poll with the fault active did not error")
			}
			if len(got) != 0 {
				t.Fatalf("failed poll leaked %d partial readings", len(got))
			}
			if cap(got) != cap(buf) {
				t.Fatalf("failed poll lost the caller's buffer: cap %d, want %d", cap(got), cap(buf))
			}

			if heal == nil {
				return
			}
			heal()
			for _, at := range tc.healPolls {
				if got, err = col.CollectInto(got, at); err != nil {
					t.Fatalf("post-heal poll at %v: %v", at, err)
				}
			}
			if len(got) == 0 {
				t.Fatal("healed collector produced no readings")
			}
			if len(got) != baseline {
				t.Errorf("healed poll yields %d readings, baseline was %d", len(got), baseline)
			}
		})
	}
}

// TestInjectedTransientIsUniformAcrossBackends wraps each vendor backend in
// the fault injector at transient probability 1 and checks the same
// contract holds for injected failures: the sentinel classifies, no
// readings leak, and the buffer survives.
func TestInjectedTransientIsUniformAcrossBackends(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.key.String(), func(t *testing.T) {
			col, _, _ := tc.build(t)
			inj := faults.Wrap(col, faults.Plan{Seed: 1, Transient: 1}, tc.key.String()+"#conf", 0)
			buf := make([]core.Reading, 0, 64)
			got, err := inj.CollectInto(buf, tc.okPolls[0])
			if !errors.Is(err, faults.ErrTransient) {
				t.Fatalf("err = %v, want ErrTransient", err)
			}
			if len(got) != 0 || cap(got) != cap(buf) {
				t.Fatalf("transient poll returned len %d cap %d, want 0/%d", len(got), cap(got), cap(buf))
			}
			if inj.Platform() != tc.key.Platform || inj.Method() != tc.key.Method {
				t.Errorf("injector identity = %s/%s, want %s", inj.Platform(), inj.Method(), tc.key)
			}
		})
	}
}

// TestBadTargetIsUniformAcrossBackends checks every conformance backend
// rejects a target of the wrong type with the shared sentinel, so callers
// can always distinguish miswiring from device failure.
func TestBadTargetIsUniformAcrossBackends(t *testing.T) {
	for _, tc := range conformanceCases() {
		if _, err := core.Build(tc.key, struct{}{}); !errors.Is(err, core.ErrBadTarget) {
			t.Errorf("%s: bad-target err = %v, want ErrBadTarget", tc.key, err)
		}
	}
}
