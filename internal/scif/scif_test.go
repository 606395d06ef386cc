package scif

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestNodes(t *testing.T) {
	// Two cards: the host and mic0..mic1 are nodes 0, 1, 2; there is no 3.
	n := NewNetwork(2)
	for _, node := range []NodeID{HostNode, 1, 2} {
		if _, err := n.NewEndpoint(node, false); err != nil {
			t.Errorf("node %d: %v", node, err)
		}
	}
	if _, err := n.NewEndpoint(3, false); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("node 3: err = %v, want ErrNoSuchNode", err)
	}
}

func TestEndpointOnUnknownNode(t *testing.T) {
	n := NewNetwork(1)
	if _, err := n.NewEndpoint(9, false); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestBindRules(t *testing.T) {
	n := NewNetwork(1)
	ep, _ := n.NewEndpoint(HostNode, false)
	// unprivileged endpoint cannot take a reserved port
	if err := ep.Bind(100); !errors.Is(err, ErrNotPrivileged) {
		t.Fatalf("privileged bind err = %v", err)
	}
	if err := ep.Bind(2000); err != nil {
		t.Fatal(err)
	}
	if err := ep.Bind(2001); err == nil {
		t.Fatal("double bind succeeded")
	}
	// port conflict
	ep2, _ := n.NewEndpoint(HostNode, false)
	if err := ep2.Bind(2000); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("conflict err = %v", err)
	}
	// same port on another node is fine
	ep3, _ := n.NewEndpoint(1, false)
	if err := ep3.Bind(2000); err != nil {
		t.Fatal(err)
	}
	// privileged endpoint can take reserved ports
	ep4, _ := n.NewEndpoint(HostNode, true)
	if err := ep4.Bind(100); err != nil {
		t.Fatal(err)
	}
}

func TestListenRequiresBind(t *testing.T) {
	n := NewNetwork(1)
	ep, _ := n.NewEndpoint(HostNode, false)
	if err := ep.Listen(); !errors.Is(err, ErrNotBound) {
		t.Fatalf("err = %v", err)
	}
}

func TestConnectAcceptLifecycle(t *testing.T) {
	n := NewNetwork(1)
	srv, _ := n.NewEndpoint(1, false)
	if err := srv.Bind(5000); err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	// accept with empty backlog: would block
	if _, err := srv.Accept(); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("empty Accept err = %v", err)
	}
	cli, _ := n.NewEndpoint(HostNode, false)
	conn, err := cli.Connect(1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	srvConn, err := srv.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if conn.RemoteNode() != 1 || srvConn.RemoteNode() != HostNode {
		t.Error("connection node identities wrong")
	}
	if conn.LocalNode() != HostNode {
		t.Error("local node wrong")
	}
}

func TestConnectRefusedWithoutListener(t *testing.T) {
	n := NewNetwork(1)
	cli, _ := n.NewEndpoint(HostNode, false)
	if _, err := cli.Connect(1, 5000); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v", err)
	}
	// bound but not listening: still refused
	srv, _ := n.NewEndpoint(1, false)
	srv.Bind(5000)
	if _, err := cli.Connect(1, 5000); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v", err)
	}
	// unknown node
	if _, err := cli.Connect(7, 5000); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("err = %v", err)
	}
}

func connectedPair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	n := NewNetwork(1)
	srv, _ := n.NewEndpoint(1, false)
	if err := srv.Bind(5000); err != nil {
		t.Fatal(err)
	}
	srv.Listen()
	cli, _ := n.NewEndpoint(HostNode, false)
	c, err := cli.Connect(1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := srv.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return c, s
}

func TestSendRecvWithLatency(t *testing.T) {
	c, s := connectedPair(t)
	now := time.Millisecond
	if err := c.Send(now, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// not yet delivered at send time
	if _, err := s.Recv(now); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("instant Recv err = %v", err)
	}
	arrival, ok := s.NextArrival()
	if !ok || arrival <= now {
		t.Fatalf("NextArrival = %v, %v", arrival, ok)
	}
	got, err := s.Recv(arrival)
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Recv = %q, %v", got, err)
	}
	// queue drained
	if _, err := s.Recv(arrival); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("drained Recv err = %v", err)
	}
}

func TestMessagesArriveInOrder(t *testing.T) {
	c, s := connectedPair(t)
	for i := byte(0); i < 10; i++ {
		if err := c.Send(time.Duration(i)*time.Microsecond, []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	for {
		b, err := s.Recv(time.Second)
		if errors.Is(err, ErrWouldBlock) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b[0])
	}
	if len(got) != 10 {
		t.Fatalf("received %d messages", len(got))
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestPayloadIsCopied(t *testing.T) {
	c, s := connectedPair(t)
	buf := []byte("abc")
	c.Send(0, buf)
	buf[0] = 'z'
	got, err := s.Recv(time.Second)
	if err != nil || string(got) != "abc" {
		t.Fatalf("Recv = %q, %v (payload aliased?)", got, err)
	}
}

func TestLargeMessagesTakeLonger(t *testing.T) {
	c, s := connectedPair(t)
	c.Send(0, make([]byte, 1<<20)) // 1 MiB
	small, s2 := connectedPair(t)
	small.Send(0, []byte{1})
	bigArrival, _ := s.NextArrival()
	smallArrival, _ := s2.NextArrival()
	if bigArrival <= smallArrival {
		t.Errorf("1 MiB arrival %v <= 1 B arrival %v", bigArrival, smallArrival)
	}
}

func TestCloseSemantics(t *testing.T) {
	c, s := connectedPair(t)
	c.Send(0, []byte("last"))
	c.Close()
	if err := c.Send(time.Second, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed conn err = %v", err)
	}
	// peer can drain in-flight data, then sees ErrClosed
	if got, err := s.Recv(time.Second); err != nil || string(got) != "last" {
		t.Fatalf("drain = %q, %v", got, err)
	}
	if _, err := s.Recv(time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain Recv err = %v", err)
	}
	if err := s.Send(time.Second, []byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send to closed peer err = %v", err)
	}
}

func TestSymmetry(t *testing.T) {
	// The same API works device->host: "software written for SCIF can be
	// executed wherever it is most appropriate".
	n := NewNetwork(1)
	srv, _ := n.NewEndpoint(HostNode, false) // server on the HOST
	srv.Bind(7000)
	srv.Listen()
	devCli, _ := n.NewEndpoint(1, false) // client on the DEVICE
	c, err := devCli.Connect(HostNode, 7000)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := srv.Accept()
	c.Send(0, []byte("from-device"))
	got, err := sc.Recv(time.Second)
	if err != nil || string(got) != "from-device" {
		t.Fatalf("device->host message = %q, %v", got, err)
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
	if _, err := n.RegisterService(1, 500, func(time.Duration, []byte) ([]byte, time.Duration) {
		return nil, 0
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RegisterService(1, 500, func(time.Duration, []byte) ([]byte, time.Duration) {
		return nil, 0
	}); err == nil {
		t.Fatal("duplicate service registration succeeded")
	}
}

func TestRPCUnknownClient(t *testing.T) {
	n := NewNetwork(1)
	svc, _ := n.RegisterService(1, 500, func(time.Duration, []byte) ([]byte, time.Duration) {
		return nil, 0
	})
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
