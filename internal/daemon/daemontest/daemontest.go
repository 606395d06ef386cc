// Package daemontest runs a daemon as its binary from the daemon's own
// tests. The package's test binary re-executes itself, and TestMain hands
// the copy over to main, so flag parsing, main, signals and exit codes run
// as they do in production, with no go build:
//
//	func TestMain(m *testing.M) { daemontest.Main(m, main) }
//
// A daemon always listens on 127.0.0.1:0; Start reads the address it bound
// from the startup line main logs ("… at http://ADDR (…").
package daemontest

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"envmon/internal/telemetry/client"
)

// asDaemon in a process's environment makes Main run main instead of the
// tests.
const asDaemon = "DAEMONTEST_MAIN"

// bound is how long a daemon may take to log its address, to exit on a
// refusal, or to drain and exit after SIGTERM (the chassis' drain is 3 s).
const bound = 10 * time.Second

var listening = regexp.MustCompile(` at http://(\S+) \(`)

// Main runs the package's tests, or, in a process Start or Refuses
// started, main with the command line it was given.
func Main(m *testing.M, main func()) {
	if os.Getenv(asDaemon) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func command(ctx context.Context, args []string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), asDaemon+"=1")
	return cmd
}

// Refuses runs the daemon with args and requires what a bad command line
// must get: exit 2 with a line starting with want, and no Go panic, which
// exits 2 as well.
func Refuses(t *testing.T, want string, args ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), bound)
	defer cancel()
	cmd := command(ctx, args)
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 2 || bytes.Contains(out, []byte("panic:")) || !strings.Contains("\n"+string(out), "\n"+want) {
		t.Errorf("%s: exit %d, want 2 with a line %q and no panic:\n%s", strings.Join(args, " "), code, want, out)
	}
}

// Daemon is a daemon process Start started.
type Daemon struct {
	Client *client.Client // on the address it logged
	cmd    *exec.Cmd
	out    *output
	exited chan struct{} // closed once cmd.Wait has returned
}

// Start starts the daemon with args and returns once it has logged the
// address it listens on. The test's cleanup kills it if it still runs.
func Start(t *testing.T, args ...string) *Daemon {
	t.Helper()
	d := &Daemon{cmd: command(context.Background(), args), out: &output{addr: make(chan string, 1)}, exited: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = d.out, d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is read from ProcessState
		close(d.exited)
	}()
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill() // fails once it has exited
		<-d.exited
	})
	select {
	case addr := <-d.out.addr:
		d.Client = client.New("http://" + addr)
	case <-d.exited:
		t.Fatalf("%s: %v before it listened:\n%s", strings.Join(args, " "), d.cmd.ProcessState, d.out)
	case <-time.After(bound):
		t.Fatalf("%s: no address logged within %v:\n%s", strings.Join(args, " "), bound, d.out)
	}
	return d
}

// Stop sends SIGTERM and requires the daemon to drain and exit 0. Call it
// once the daemon has answered a request: main installs its signal
// handler before it serves, not before it logs its address.
func (d *Daemon) Stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
	case <-time.After(bound):
		t.Fatalf("still running %v after SIGTERM:\n%s", bound, d.out)
	}
	if d.cmd.ProcessState.ExitCode() != 0 {
		t.Fatalf("SIGTERM: %v, want exit 0:\n%s", d.cmd.ProcessState, d.out)
	}
}

// output collects what the daemon writes and hands on the address its
// startup line names, once.
type output struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.buf.Write(p)
	if m := listening.FindSubmatch(o.buf.Bytes()); m != nil && !o.sent {
		o.addr <- string(m[1]) // never blocks: addr holds one, and this is the one
		o.sent = true
	}
	return len(p), nil
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}
