package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrUnknownBackend is returned by Build when no factory is registered for
// the requested platform/method pair.
var ErrUnknownBackend = errors.New("core: unknown backend")

// ErrBadTarget is returned by a factory handed a target of the wrong type
// for its construction path.
var ErrBadTarget = errors.New("core: wrong target type for backend")

// BackendKey names one vendor access path: a platform plus the method
// string its collector reports (e.g. {RAPL, "MSR"}, {BlueGeneQ, "EMON"}).
// Keys are the registry's coordinates and mirror the mechanism rows of the
// paper's Table II.
type BackendKey struct {
	Platform Platform
	Method   string
}

func (k BackendKey) String() string {
	return fmt.Sprintf("%s/%s", k.Platform, k.Method)
}

// Mechanism is one vendor access path as the paper compares them: the key
// it registers under, the simulated cost of one query, and the lowest
// interval at which polling still yields fresh data (so cost ÷ interval is
// its overhead share). Each vendor package exports one Mechanism per
// backend; its collector embeds it, which supplies the identity half of
// Collector, and every other package names the backend through it.
type Mechanism struct {
	Key      BackendKey
	PerQuery time.Duration
	Interval time.Duration
}

// Platform implements Collector.
func (m Mechanism) Platform() Platform { return m.Key.Platform }

// Method implements Collector.
func (m Mechanism) Method() string { return m.Key.Method }

// Cost implements Collector.
func (m Mechanism) Cost() time.Duration { return m.PerQuery }

// MinInterval implements Collector.
func (m Mechanism) MinInterval() time.Duration { return m.Interval }

// Factory constructs a collector for one backend. target carries the
// vendor-specific handle the mechanism attaches to, one type per backend —
// a *rapl.Socket, an nvml.Target, a *bgq.NodeCard, a mic target struct. A
// factory must return ErrBadTarget (wrapped or bare) when handed any other
// type, so callers can distinguish miswiring from device errors.
type Factory func(target any) (Collector, error)

// Registry maps backend keys to collector factories. Vendor packages
// register themselves in init(); binaries and experiments then construct
// collectors by key instead of importing construction details. The
// zero-value Registry is not usable; call NewRegistry.
type Registry struct {
	mu        sync.RWMutex
	factories map[BackendKey]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[BackendKey]Factory)}
}

// Register installs a factory for key. Registering a nil factory or the
// same key twice panics: both are wiring bugs, caught at init time.
func (r *Registry) Register(key BackendKey, f Factory) {
	if f == nil {
		panic(fmt.Sprintf("core: nil factory for %s", key))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[key]; dup {
		panic(fmt.Sprintf("core: duplicate backend %s", key))
	}
	r.factories[key] = f
}

// Build constructs a collector for key using its registered factory.
func (r *Registry) Build(key BackendKey, target any) (Collector, error) {
	r.mu.RLock()
	f, ok := r.factories[key]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBackend, key)
	}
	return f(target)
}

// Keys lists the registered backends sorted by platform then method — a
// stable inventory for -backends style listings.
func (r *Registry) Keys() []BackendKey {
	r.mu.RLock()
	keys := make([]BackendKey, 0, len(r.factories))
	for k := range r.factories {
		keys = append(keys, k)
	}
	r.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Platform != keys[j].Platform {
			return keys[i].Platform < keys[j].Platform
		}
		return keys[i].Method < keys[j].Method
	})
	return keys
}

// Methods lists the registered method names for one platform, sorted.
func (r *Registry) Methods(p Platform) []string {
	var methods []string
	for _, k := range r.Keys() {
		if k.Platform == p {
			methods = append(methods, k.Method)
		}
	}
	return methods
}

// DefaultRegistry is the process-wide registry vendor packages install
// their factories into at init time.
var DefaultRegistry = NewRegistry()

// Register installs a factory into DefaultRegistry.
func Register(key BackendKey, f Factory) { DefaultRegistry.Register(key, f) }

// Build constructs a collector from DefaultRegistry.
func Build(key BackendKey, target any) (Collector, error) {
	return DefaultRegistry.Build(key, target)
}
