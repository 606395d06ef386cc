package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"envmon/internal/telemetry"
)

// The generated inputs. Everything the stack sees in the write, query and
// federation sections comes from these functions of the -seed argument, so
// two runs at one seed feed the program identical bytes and two seeds feed
// it statistically identical ones.

const (
	cadence     = 50 * time.Millisecond // sample spacing of the write stream
	gapEvery    = 997                   // one failed poll per 997 slots
	powerDomain = "Total Power"
	window      = 5 * time.Second // lookback of topk and recent, envcapd's default
)

// mix is splitmix64's finalizer: a stateless hash from (seed, position) to
// noise, so any sample can be regenerated for the correctness checks.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream is the write workload: nodes × sensors series sampled in lock
// step, sensor 0 of every node being its Total Power. Values are a slow
// triangle wave plus two bits of noise in quarter-watt steps — slowly
// moving environmental data, the case the block codec is built for.
type stream struct {
	seed  uint64
	keys  []telemetry.SeriesKey
	units []string
	base  []float64
	phase []int
}

func newStream(seed uint64, nodes, sensors int) *stream {
	s := &stream{seed: seed}
	for n := 0; n < nodes; n++ {
		for k := 0; k < sensors; k++ {
			domain, unit := powerDomain, "W"
			if k > 0 {
				domain, unit = fmt.Sprintf("sensor-%02d", k), "C"
			}
			h := mix(seed ^ uint64(len(s.keys))<<32)
			s.keys = append(s.keys, telemetry.SeriesKey{Node: nodeName(n), Backend: "bench", Domain: domain})
			s.units = append(s.units, unit)
			s.base = append(s.base, 200+float64(h%1600)*0.25)
			s.phase = append(s.phase, int(h>>32%400))
		}
	}
	return s
}

func nodeName(n int) string { return fmt.Sprintf("n%04d", n) }

// at is the timestamp of epoch j.
func (s *stream) at(j int) time.Duration { return time.Duration(j+1) * cadence }

// gap reports whether series ki's poll failed in epoch j.
func (s *stream) gap(j, ki int) bool { return (j*len(s.keys)+ki)%gapEvery == 0 }

func (s *stream) value(j, ki int) float64 {
	p := (j + s.phase[ki]) % 400
	if p >= 200 {
		p = 400 - p
	}
	noise := mix(s.seed^uint64(j*len(s.keys)+ki)) & 3
	return s.base[ki] + float64(p)*0.25 + float64(noise)*0.25
}

// fill generates epoch j's values into vals, one per series, so that a
// timed section does not pay for the generator.
func (s *stream) fill(vals []float64, j int) {
	for ki := range vals {
		vals[ki] = s.value(j, ki)
	}
}

// ingestEpoch sends epoch j to st the way a cursor flush does: one Ingest,
// or IngestGap where the poll failed, per series, in series order. It
// reports how many of the records were gaps.
func (s *stream) ingestEpoch(st *telemetry.Store, j int, vals []float64) (gaps int, err error) {
	t := s.at(j)
	for ki, key := range s.keys {
		if s.gap(j, ki) {
			err = st.IngestGap(key, s.units[ki], t)
			gaps++
		} else {
			err = st.Ingest(key, s.units[ki], t, vals[ki])
		}
		if err != nil {
			return gaps, fmt.Errorf("epoch %d: %w", j, err)
		}
	}
	return gaps, nil
}

// samplesIn counts series ki's samples (gaps excluded) in epochs [lo, hi).
func (s *stream) samplesIn(ki, lo, hi int) int {
	n := 0
	for j := max(lo, 0); j < hi; j++ {
		if !s.gap(j, ki) {
			n++
		}
	}
	return n
}

// The three request classes of the read workloads.
const (
	opTopK    = iota // /topk k=10 over the last 5 s
	opRecent         // /query domain=Total Power agg=last from=now-5s: a controller's poll
	opHistory        // /query node=X domain=Total Power, whole range, raw
	numClasses
)

var classNames = [numClasses]string{"topk", "recent", "history"}

type op struct {
	class int
	node  int // history only
}

// genOps is the seeded request mix: the stated number of each class in one
// shuffled closed-loop sequence, history targets drawn uniformly.
func genOps(seed uint64, counts [numClasses]int, nodes int) []op {
	rng := rand.New(rand.NewPCG(seed, 0x6f7073))
	var ops []op
	for class, n := range counts {
		for i := 0; i < n; i++ {
			o := op{class: class}
			if class == opHistory {
				o.node = rng.IntN(nodes)
			}
			ops = append(ops, o)
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
