package scif

import (
	"errors"
	"testing"
	"time"
)

// echo answers with the request after handling for the given time.
func echo(handling time.Duration) Handler {
	return func(_ time.Duration, req []byte) ([]byte, time.Duration) {
		return append([]byte(nil), req...), handling
	}
}

func TestNodes(t *testing.T) {
	// Two cards: the host and mic0..mic1 are nodes 0, 1, 2; there is no 3.
	n := NewNetwork(2)
	for _, node := range []NodeID{HostNode, 1, 2} {
		if _, err := n.RegisterService(node, 500, echo(0)); err != nil {
			t.Errorf("node %d: %v", node, err)
		}
	}
	if _, err := n.RegisterService(3, 500, echo(0)); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("node 3: err = %v, want ErrNoSuchNode", err)
	}
}

func TestLargeMessagesTakeLonger(t *testing.T) {
	n := NewNetwork(1)
	svc, err := n.RegisterService(1, 5000, echo(0))
	if err != nil {
		t.Fatal(err)
	}
	_, big, _ := n.Call(HostNode, svc, 0, make([]byte, 1<<20)) // 1 MiB
	_, small, _ := n.Call(HostNode, svc, 0, []byte{1})
	if big <= small {
		t.Errorf("1 MiB request done at %v <= 1 B request at %v", big, small)
	}
}

func TestSymmetry(t *testing.T) {
	// The same call works device->host: "software written for SCIF can be
	// executed wherever it is most appropriate", and it costs the same.
	n := NewNetwork(1)
	onHost, err := n.RegisterService(HostNode, 7000, echo(time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	onDevice, err := n.RegisterService(1, 7000, echo(time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	up, upDone, err := n.Call(1, onHost, 0, []byte("from-device"))
	if err != nil || string(up) != "from-device" {
		t.Fatalf("device->host call = %q, %v", up, err)
	}
	_, downDone, err := n.Call(HostNode, onDevice, 0, []byte("from-device"))
	if err != nil {
		t.Fatal(err)
	}
	if upDone != downDone {
		t.Errorf("device->host done at %v, host->device at %v", upDone, downDone)
	}
}

func TestRPCService(t *testing.T) {
	n := NewNetwork(1)
	var handledAt time.Duration
	svc, err := n.RegisterService(1, 500, func(start time.Duration, req []byte) ([]byte, time.Duration) {
		handledAt = start
		return append([]byte("echo:"), req...), 14200 * time.Microsecond
	})
	if err != nil {
		t.Fatal(err)
	}
	now := 10 * time.Millisecond
	resp, done, err := n.Call(HostNode, svc, now, []byte("power?"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:power?" {
		t.Fatalf("resp = %q", resp)
	}
	if handledAt <= now {
		t.Error("handler ran before request arrived")
	}
	total := done - now
	if total < 14200*time.Microsecond || total > 14300*time.Microsecond {
		t.Errorf("RPC round trip = %v, want ~14.2ms + transit", total)
	}
}

func TestRPCServicePortConflict(t *testing.T) {
	n := NewNetwork(1)
	if _, err := n.RegisterService(1, 500, echo(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RegisterService(1, 500, echo(0)); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("duplicate service registration err = %v, want ErrPortInUse", err)
	}
	// the same port on another node is its own
	if _, err := n.RegisterService(HostNode, 500, echo(0)); err != nil {
		t.Fatal(err)
	}
}

func TestRPCUnknownClient(t *testing.T) {
	n := NewNetwork(1)
	svc, _ := n.RegisterService(1, 500, echo(0))
	if _, _, err := n.Call(42, svc, 0, nil); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := n.Call(HostNode, nil, 0, nil); err == nil {
		t.Fatal("call to nil service succeeded")
	}
}

func TestLoopbackIsFast(t *testing.T) {
	if lb, remote := transitTime(1, 1, 64), transitTime(0, 1, 64); lb >= remote {
		t.Errorf("loopback %v >= cross-bus %v", lb, remote)
	}
}
