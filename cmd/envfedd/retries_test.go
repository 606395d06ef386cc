package main

import (
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestRetriesFlagIsAPlainCount: -retries counts extra attempts, so a
// member that always answers 500 is called once per federated /query with
// -retries 0 and twice with the flag's default of 1.
func TestRetriesFlagIsAPlainCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int64
	}{
		{"-retries 0", []string{"-retries", "0"}, 1},
		{"default", nil, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				http.Error(w, "broken", http.StatusInternalServerError)
			}))
			defer broken.Close()

			fs := flag.NewFlagSet("envfedd", flag.ContinueOnError)
			cfg := registerFlags(fs)
			if err := fs.Parse(append([]string{"-listen", "127.0.0.1:0", "-members", "rack0=" + broken.URL}, tc.args...)); err != nil {
				t.Fatal(err)
			}
			cfg.logf = t.Logf
			d, err := newFedDaemon(*cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- d.run(ctx) }()
			defer func() {
				cancel()
				if err := <-done; err != nil {
					t.Errorf("run: %v", err)
				}
			}()

			resp, err := http.Get("http://" + d.Addr() + "/query")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			// the only member is dark: a 200 partial answer that says so
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /query = %d: %s", resp.StatusCode, body)
			}
			if got := calls.Load(); got != tc.want {
				t.Errorf("member saw %d requests for one /query, want %d", got, tc.want)
			}
		})
	}
}
