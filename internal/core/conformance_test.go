package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"envmon/internal/bgq"
	"envmon/internal/core"
	"envmon/internal/envdb"
	"envmon/internal/faults"
	"envmon/internal/ipmb"
	"envmon/internal/mic"
	"envmon/internal/micras"
	"envmon/internal/msr"
	"envmon/internal/nvml"
	"envmon/internal/rapl"
	"envmon/internal/scif"
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
			key: rapl.MSR.Key,
			build: func(t *testing.T) (core.Collector, func(), func()) {
				sock := rapl.NewSocket(rapl.Config{Name: "conf0", Seed: 7})
				col, err := core.Build(rapl.MSR.Key, sock)
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
			key: nvml.API.Key,
			build: func(t *testing.T) (core.Collector, func(), func()) {
				dev := nvml.NewDevice(nvml.K20Spec(), 0, 7)
				lib := nvml.NewLibrary(dev)
				lib.Init()
				col, err := core.Build(nvml.API.Key, nvml.Target{Lib: lib})
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
			key: micras.Daemon.Key,
			build: func(t *testing.T) (core.Collector, func(), func()) {
				card := mic.New(mic.Config{Index: 0, Seed: 7})
				col, err := core.Build(micras.Daemon.Key, micras.NewFS(card))
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
			key: envdb.BackfillQuery.Key,
			build: func(t *testing.T) (core.Collector, func(), func()) {
				db := envdb.New()
				loc := envdb.Location("R00-M0-N00")
				insert := func(at time.Duration, w float64) {
					db.Insert(envdb.Record{Time: at, Location: loc, Sensor: "output_power", Value: w, Unit: "W"})
				}
				insert(30*time.Second, 1800)
				col, err := core.Build(envdb.BackfillQuery.Key, envdb.BackfillTarget{DB: db, Location: loc})
				if err != nil {
					t.Fatal(err)
				}
				// The fault is the passage of time: by failT the only record
				// has aged out of the lookback window. Heal ships a fresh one.
				return col, func() {}, func() { insert(envdb.BackfillWindow+time.Minute, 1900) }
			},
			okPolls:   []time.Duration{60 * time.Second},
			failT:     envdb.BackfillWindow + time.Minute,
			healPolls: []time.Duration{envdb.BackfillWindow + time.Minute + time.Second},
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

// backend pairs an exported Mechanism with a builder of the one target
// type its factory accepts.
type backend struct {
	mech   core.Mechanism
	target func(t *testing.T) any
}

func backends() []backend {
	socket := func(*testing.T) any { return rapl.NewSocket(rapl.Config{Name: "bt", Seed: 7}) }
	card := func() *mic.Card { return mic.New(mic.Config{Index: 0, Seed: 7}) }
	return []backend{
		{rapl.MSR, socket},
		{rapl.Perf, socket},
		{nvml.API, func(*testing.T) any {
			lib := nvml.NewLibrary(nvml.NewDevice(nvml.K20Spec(), 0, 7))
			lib.Init()
			return nvml.Target{Lib: lib}
		}},
		{bgq.EMONAPI, func(*testing.T) any { return bgq.New(bgq.Config{Racks: 1, Seed: 7}).NodeCards()[0] }},
		{envdb.BackfillQuery, func(*testing.T) any { return envdb.BackfillTarget{DB: envdb.New(), Location: "R00-M0-N00"} }},
		{micras.Daemon, func(*testing.T) any { return micras.NewFS(card()) }},
		{mic.InBand, func(t *testing.T) any {
			net := scif.NewNetwork(1)
			svc, err := mic.StartSysMgmt(net, 1, card())
			if err != nil {
				t.Fatal(err)
			}
			return mic.InBandTarget{Net: net, Svc: svc}
		}},
		{mic.OOB, func(*testing.T) any {
			bus := ipmb.NewBus()
			smc := card().SMC(0)
			bus.Attach(smc)
			return mic.OOBTarget{BMC: ipmb.NewBMC(bus), SMCAddr: smc.SlaveAddr()}
		}},
	}
}

// TestBadTargetIsUniformAcrossBackends checks every registered backend
// against its exported Mechanism: any other backend's target type, and the
// device handles a caller might pass by mistake, are rejected with the
// shared sentinel, so callers can always distinguish miswiring from device
// failure; the one accepted type builds a collector reporting the
// Mechanism's key, cost and interval.
func TestBadTargetIsUniformAcrossBackends(t *testing.T) {
	all := backends()
	byKey := map[core.BackendKey]backend{}
	wrongs := []any{nil, struct{}{}, mic.New(mic.Config{}), nvml.NewLibrary()}
	for _, b := range all {
		byKey[b.mech.Key] = b
		wrongs = append(wrongs, b.target(t))
	}
	keys := core.DefaultRegistry.Keys()
	if len(keys) != len(all) {
		t.Errorf("%d registered backends, %d exported mechanisms", len(keys), len(all))
	}
	for _, key := range keys {
		t.Run(key.String(), func(t *testing.T) {
			b, ok := byKey[key]
			if !ok {
				t.Fatalf("no Mechanism for registered backend %s", key)
			}
			want := b.target(t)
			for _, wrong := range wrongs {
				if fmt.Sprintf("%T", wrong) == fmt.Sprintf("%T", want) {
					continue
				}
				if _, err := core.Build(key, wrong); !errors.Is(err, core.ErrBadTarget) {
					t.Errorf("target %T: err = %v, want ErrBadTarget", wrong, err)
				}
			}
			col, err := core.Build(key, want)
			if err != nil {
				t.Fatalf("target %T: %v", want, err)
			}
			if col.Platform() != key.Platform || col.Method() != key.Method {
				t.Errorf("identity = %s/%s, want %s", col.Platform(), col.Method(), key)
			}
			if col.Cost() != b.mech.Cost() || col.MinInterval() != b.mech.MinInterval() {
				t.Errorf("Cost %v / MinInterval %v, Mechanism says %v / %v",
					col.Cost(), col.MinInterval(), b.mech.Cost(), b.mech.MinInterval())
			}
		})
	}
}
