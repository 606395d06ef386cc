package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"envmon/internal/telemetry"
	"envmon/internal/telemetry/client"
)

// querySizes parameterizes the query-direct section.
type querySizes struct {
	HeadEpochs int // epochs ingested after reopening the snapshot: the un-compacted head
	Counts     [numClasses]int
	Warmup     int // unmeasured requests per class
}

// directStack is one envmond serving the write section's data: the
// mid-ingest snapshot reopened (sealed blocks, WAL tail replayed and
// sealed) plus a head of newer epochs no compaction has touched, so every
// query stitches the block tier and the in-memory tier.
type directStack struct {
	*member
	target readTarget
	stream *stream
	epochs int // epochs the store holds
}

func setupDirect(dir string, w *writeOut, sz querySizes, tr *tracer) (*directStack, error) {
	d := &directStack{stream: w.stream, epochs: w.sizes.SnapshotEpoch + sz.HeadEpochs}
	if err := copyTree(w.snapshotDir, dir); err != nil {
		return nil, err
	}
	st, err := telemetry.Open(dir, telemetry.Options{Shards: storeShards})
	if err != nil {
		return nil, err
	}
	reg := instrument(st)
	s := d.stream
	vals := make([]float64, len(s.keys))
	for j := w.sizes.SnapshotEpoch; j < d.epochs; j++ {
		s.fill(vals, j)
		if _, err := s.ingestEpoch(st, j, vals); err != nil {
			st.Close()
			return nil, err
		}
	}
	// One cadence past the newest sample: the 5 s window then holds
	// exactly the last 100 epochs.
	now := s.at(d.epochs)
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = func(h http.Handler) http.Handler { return tr.middleware("httpapi.serve", false, nil, h) }
	}
	d.member, err = serveStore(st, reg, func() time.Duration { return now }, wrap)
	if err != nil {
		st.Close()
		return nil, err
	}
	sensors := w.sizes.Sensors
	d.target = readTarget{workload: "query-direct", cl: client.New(d.url), now: now, nodes: w.sizes.Nodes,
		want: func(o op) (int, int) {
			switch o.class {
			case opTopK:
				return min(10, w.sizes.Nodes), 0
			case opHistory:
				return 1, s.samplesIn(o.node*sensors, 0, d.epochs)
			default:
				n := 0
				for node := 0; node < w.sizes.Nodes; node++ {
					n += s.samplesIn(node*sensors, d.epochs-int(window/cadence), d.epochs)
				}
				return w.sizes.Nodes, n
			}
		}}
	if err := d.checkTopK(sensors); err != nil {
		d.close()
		return nil, err
	}
	if err := d.target.warmup(sz.Warmup); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// checkTopK compares one /topk reply with the ranking computed from the
// generator: same nodes, same order, same watts.
func (d *directStack) checkTopK(sensors int) error {
	type nodeW struct {
		node  string
		watts float64
	}
	s := d.stream
	var want []nodeW
	for ki := 0; ki < len(s.keys); ki += sensors {
		var sum float64
		n := 0
		for j := max(d.epochs-int(window/cadence), 0); j < d.epochs; j++ {
			if !s.gap(j, ki) {
				sum += s.value(j, ki)
				n++
			}
		}
		want = append(want, nodeW{s.keys[ki].Node, sum / float64(n)})
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].watts != want[j].watts {
			return want[i].watts > want[j].watts
		}
		return want[i].node < want[j].node
	})
	got, err := d.target.cl.TopK(context.Background(), client.TopKParams{K: 10, From: d.target.now - window})
	if err != nil {
		return err
	}
	if len(got.Nodes) != min(10, len(want)) {
		return fmt.Errorf("query-direct: topk ranked %d nodes", len(got.Nodes))
	}
	for i, np := range got.Nodes {
		if np.Node != want[i].node || np.Watts != want[i].watts {
			return fmt.Errorf("query-direct: topk rank %d is %s at %v W, the generator says %s at %v W",
				i, np.Node, np.Watts, want[i].node, want[i].watts)
		}
	}
	return nil
}

// bodyCounts adds the wire size of a history reply per point it carries:
// an exact count, read from one raw GET outside the timed section.
func (d *directStack) bodyCounts(out *readOut) error {
	o := op{class: opHistory}
	resp, err := http.Get(d.url + d.target.path(o))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	_, points := d.target.want(o)
	out.layer("httpapi.resp_bytes_per_point", float64(len(body))/float64(points), "B", 0)
	return nil
}
