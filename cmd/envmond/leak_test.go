package main

import (
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"envmon/internal/telemetry"
)

// openUnder lists this process's open descriptors that point below dir.
func openUnder(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	var open []string
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+"/") {
			open = append(open, target)
		}
	}
	return open
}

// sealBlocks leaves dir as an earlier run leaves it: block files sealed,
// the journal empty.
func sealBlocks(t *testing.T, dir string) {
	t.Helper()
	st, err := telemetry.Open(dir, telemetry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := telemetry.SeriesKey{Node: "c000-001", Backend: "MSR", Domain: "Total Power"}
	for i := 0; i < 100; i++ {
		if err := st.Ingest(key, "W", time.Duration(i)*time.Second, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if blocks, _ := filepath.Glob(filepath.Join(dir, "blocks", "*.blk")); len(blocks) == 0 {
		t.Fatal("no block file sealed")
	}
}

// TestNewDaemonErrorLeavesNothingOpen: a newDaemon that fails after the
// persistent store opened (here: -listen or -debug-addr already taken)
// must close the store's WAL segments and block files on its way out —
// including blocks an earlier run sealed, which the store opens at once —
// and a bad -faults must be rejected before the store opens at all.
func TestNewDaemonErrorLeavesNothingOpen(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs /proc/self/fd")
	}
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	occupied := taken.Addr().String()

	for name, breakIt := range map[string]func(*config){
		"occupied -listen":     func(c *config) { c.listen = occupied },
		"occupied -debug-addr": func(c *config) { c.debugAddr = occupied },
		"bad -faults":          func(c *config) { c.faultSpec = "no-such-fault=1" },
	} {
		t.Run(name, func(t *testing.T) {
			for _, prior := range []struct {
				name   string
				sealed bool
			}{{"fresh", false}, {"sealed blocks", true}} {
				t.Run(prior.name, func(t *testing.T) {
					dir, err := filepath.EvalSymlinks(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					if prior.sealed {
						sealBlocks(t, dir)
					}
					cfg := testConfig()
					cfg.dataDir = dir
					breakIt(&cfg)
					if _, err := newDaemon(cfg); err == nil {
						t.Fatal("newDaemon succeeded")
					}
					if open := openUnder(t, dir); len(open) > 0 {
						t.Errorf("descriptors left open under the data dir: %v", open)
					}
				})
			}
		})
	}
}
