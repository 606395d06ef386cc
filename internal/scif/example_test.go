package scif_test

import (
	"fmt"
	"time"

	"envmon/internal/scif"
)

// Example shows the SCIF path the Xeon Phi stack is built on: a
// device-side service claims a port, and the host calls it
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
