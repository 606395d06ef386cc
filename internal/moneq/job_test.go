package moneq

import (
	"bytes"
	"testing"
	"time"

	"envmon/internal/bgq"
	"envmon/internal/core"
	"envmon/internal/simclock"
	"envmon/internal/workload"
)

func TestJobAcrossNodeCards(t *testing.T) {
	clock := simclock.New()
	machine := bgq.New(bgq.Config{Racks: 1, Seed: 42})
	machine.Run(workload.MMPS(time.Minute), 0)

	var specs []NodeSpec
	var outputs []*bytes.Buffer
	for i, card := range machine.NodeCards()[:4] {
		buf := &bytes.Buffer{}
		outputs = append(outputs, buf)
		specs = append(specs, NodeSpec{
			Node: card.Name(), Rank: i * bgq.NodesPerBoard,
			Collectors: []core.Collector{card.EMON()},
			Output:     buf,
		})
	}
	job, err := StartJob(clock, 0, 4*bgq.NodesPerBoard, specs)
	if err != nil {
		t.Fatal(err)
	}
	job.StartTagAll("main-loop")
	clock.Advance(time.Minute)
	if err := job.EndTagAll("main-loop"); err != nil {
		t.Fatal(err)
	}
	rep, err := job.FinalizeAll()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 4 {
		t.Errorf("Nodes = %d", rep.Nodes)
	}
	perNodePolls := int(time.Minute / bgq.EMONGeneration)
	if rep.Polls != 4*perNodePolls {
		t.Errorf("Polls = %d, want %d", rep.Polls, 4*perNodePolls)
	}
	if rep.AppRuntime != time.Minute {
		t.Errorf("AppRuntime = %v", rep.AppRuntime)
	}
	if f := rep.OverheadFraction(); f <= 0 || f > 0.02 {
		t.Errorf("OverheadFraction = %v", f)
	}
	for i, buf := range outputs {
		if buf.Len() == 0 {
			t.Errorf("node %d wrote no output", i)
		}
	}
	// every monitor has the job-wide tag
	for _, m := range job.Monitors() {
		if _, ok := m.Set().TagWindow("main-loop"); !ok {
			t.Error("job-wide tag missing on a node")
		}
	}
}

func TestJobValidation(t *testing.T) {
	clock := simclock.New()
	if _, err := StartJob(clock, 0, 1, nil); err == nil {
		t.Fatal("empty job accepted")
	}
	// a bad node spec rolls back previously started monitors
	first := newFake()
	specs := []NodeSpec{
		{Node: "n0", Collectors: []core.Collector{first}},
		{Node: "broken"}, // no collectors: Initialize fails
	}
	if _, err := StartJob(clock, 0, 64, specs); err == nil {
		t.Fatal("job with collector-less node accepted")
	}
	// the rolled-back monitor must have stopped polling
	clock.Advance(10 * time.Second)
	if first.calls != 0 {
		t.Errorf("rolled-back monitor polled %d times", first.calls)
	}
}

func TestJobReportZeroRuntime(t *testing.T) {
	if (JobReport{}).OverheadFraction() != 0 {
		t.Error("zero runtime fraction")
	}
}
