package scif_test

import (
	"fmt"
	"time"

	"envmon/internal/scif"
)

// Example shows the SCIF path the Xeon Phi stack is built on: a
// device-side service claims a privileged port, and the host calls it
// across the simulated PCIe bus, each hop with an explicit transit time.
func Example() {
	net := scif.NewNetwork(1) // host (node 0) + mic0 (node 1)

	// device side: a service that answers in 10 µs
	svc, _ := net.RegisterService(1, 500, func(start time.Duration, req []byte) ([]byte, time.Duration) {
		return []byte("power=115W"), 10 * time.Microsecond
	})

	// host side: 2 µs there, 10 µs handling, 2 µs back
	resp, done, _ := net.Call(scif.HostNode, svc, 0, []byte("power?"))
	fmt.Printf("%q done at %v\n", resp, done)
	// Output:
	// "power=115W" done at 14µs
}

// Example_rma shows the one-sided bulk path: the device registers a
// window, the host DMA-writes into it.
func Example_rma() {
	net := scif.NewNetwork(1)
	server, _ := net.NewEndpoint(1, false)
	_ = server.Bind(5000)
	_ = server.Listen()
	client, _ := net.NewEndpoint(scif.HostNode, false)
	conn, _ := client.Connect(1, 5000)
	srvConn, _ := server.Accept()

	deviceBuf := make([]byte, 1<<20)
	_ = srvConn.Register(0x10000, deviceBuf)

	done, _ := conn.WriteTo(0, 0x10000, make([]byte, 1<<20))
	fmt.Printf("1 MiB DMA completes after %v\n", done.Round(time.Microsecond))
	// Output:
	// 1 MiB DMA completes after 179µs
}
