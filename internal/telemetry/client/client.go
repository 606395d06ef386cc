// Package client is a small HTTP client for the envmond daemon's query
// API — what a remote tool (envtop -remote) links against instead of the
// collection stack. Document types are shared with the server package
// (internal/telemetry/httpapi), so the two sides cannot drift.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
)

// Client talks to one envmond daemon (or one envfedd federation
// front-end — the wire types are the same).
type Client struct {
	base string
	http *http.Client
	// maxBody is the largest response body accepted, in bytes. A field
	// only so that a test can reach the limit without 64 MiB of traffic.
	maxBody int64
}

// New returns a client for the daemon at base (e.g.
// "http://127.0.0.1:9120"). A trailing slash is tolerated.
func New(base string) *Client {
	return &Client{
		base:    strings.TrimRight(base, "/"),
		http:    &http.Client{Timeout: 10 * time.Second},
		maxBody: 64 << 20,
	}
}

// WithTimeout sets the transport-level request timeout (default 10 s) and
// returns the client for chaining. A context deadline shorter than the
// timeout still wins — the federation tier passes per-member deadlines via
// context and uses this only to bound a member that never answers at all.
func (c *Client) WithTimeout(d time.Duration) *Client {
	if d > 0 {
		c.http.Timeout = d
	}
	return c
}

// StatusError is the typed error for a non-200 response, so callers can
// branch on the code (the federation tier treats a member's 404 on a
// filtered query as "no matching series there", not a member failure).
// Retrieve it with errors.As; the rendered message keeps the server's
// error body.
type StatusError struct {
	Code    int
	Message string // server's ErrorBody.Error, "" if the body was not JSON
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("%s (HTTP %d)", e.Message, e.Code)
	}
	return fmt.Sprintf("HTTP %d", e.Code)
}

// get fetches path?query and decodes its document with encoding/json.
func (c *Client) get(ctx context.Context, path, query string, doc any) error {
	body, err := c.fetch(ctx, path, query, new(bytes.Buffer))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, doc); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// bodies recycles the buffers Query and QueryWire read answers into: a
// chunked /query body has no length up front, and reading it into a cold
// buffer regrows it a dozen times. Nothing either returns aliases the
// buffer. One that grew past maxPooledBody is dropped, not pooled, as the
// daemons' encode buffers are: an unwindowed answer from a persistent
// store can be hundreds of MB.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 4 << 20

// putBody returns a buffer from bodies.
func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodies.Put(buf)
	}
}

// fetch returns the body of a 200 answer to GET path?query, read into buf,
// and a *StatusError for any other status.
func (c *Client) fetch(ctx context.Context, path, query string, buf *bytes.Buffer) ([]byte, error) {
	u := c.base + path
	if query != "" {
		u += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	// Refuse an over-long body by name — from the header when the server
	// sent one, otherwise on reaching the limit — instead of cutting it
	// and reporting a JSON syntax error at the cut.
	tooLong := func() error {
		return fmt.Errorf("client: %s response exceeds %d MiB", path, c.maxBody>>20)
	}
	if resp.ContentLength > c.maxBody {
		return nil, tooLong()
	}
	if resp.ContentLength > 0 {
		// The whole body in one allocation: ReadFrom wants MinRead spare
		// bytes for the read that finds EOF.
		buf.Grow(int(resp.ContentLength) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, c.maxBody+1)); err != nil {
		return nil, fmt.Errorf("client: reading %s response: %w", path, err)
	}
	if int64(buf.Len()) > c.maxBody {
		return nil, tooLong()
	}
	body := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Code: resp.StatusCode}
		var eb httpapi.ErrorBody
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			se.Message = eb.Error
		}
		return nil, fmt.Errorf("client: %s: %w", path, se)
	}
	return body, nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (httpapi.Health, error) {
	var h httpapi.Health
	err := c.get(ctx, "/healthz", "", &h)
	return h, err
}

// Series fetches /series.
func (c *Client) Series(ctx context.Context) ([]httpapi.SeriesInfo, error) {
	var out httpapi.SeriesResult
	if err := c.get(ctx, "/series", "", &out); err != nil {
		return nil, err
	}
	return out.Series, nil
}

// Query fetches /query and returns the whole document, including the
// degraded/missing-members section a federated endpoint attaches to
// partial results. A raw frame comes back as its t_ns and v columns.
func (c *Client) Query(ctx context.Context, r httpapi.Request) (httpapi.QueryResult, error) {
	buf := bodies.Get().(*bytes.Buffer)
	defer putBody(buf)
	body, err := c.fetch(ctx, "/query", string(httpapi.AppendQuery(nil, r)), buf)
	if err != nil {
		return httpapi.QueryResult{}, err
	}
	out, err := httpapi.DecodeQueryResult(body)
	if err != nil {
		err = fmt.Errorf("client: decoding /query response: %w", err)
	}
	return out, err
}

// QueryWire is Query for a caller that passes the frames on instead of
// reading them (the federation tier): the same request, the same verdict
// on the body, and the frames checked but left as the bytes they arrived
// in. reencoded reports a body that was not in the codec's own spelling.
// The frames alias what they are split from, so the body is read into a
// pooled buffer and split from one copy of exactly its length: one
// allocation the size of the body, where a buffer grown from empty
// allocates about twice that.
func (c *Client) QueryWire(ctx context.Context, r httpapi.Request) (out httpapi.WireResult, reencoded bool, err error) {
	buf := bodies.Get().(*bytes.Buffer)
	defer putBody(buf)
	body, err := c.fetch(ctx, "/query", string(httpapi.AppendQuery(nil, r)), buf)
	if err != nil {
		return httpapi.WireResult{}, false, err
	}
	if out, reencoded, err = httpapi.SplitQueryResult(bytes.Clone(body)); err != nil {
		err = fmt.Errorf("client: decoding /query response: %w", err)
	}
	return out, reencoded, err
}

// Rank fetches /topk: the r.K nodes drawing the most power, every node
// when r.K is 0.
func (c *Client) Rank(ctx context.Context, r httpapi.Request) (httpapi.TopKResult, error) {
	var out httpapi.TopKResult
	err := c.get(ctx, "/topk", string(httpapi.AppendTopK(nil, r)), &out)
	return out, err
}

// Members fetches a federation front-end's /members document: every
// downstream daemon with its breaker position. Plain envmond daemons do
// not serve this endpoint (404).
func (c *Client) Members(ctx context.Context) ([]httpapi.MemberInfo, error) {
	var out httpapi.MembersResult
	if err := c.get(ctx, "/members", "", &out); err != nil {
		return nil, err
	}
	return out.Members, nil
}

// ---- bench/ shim: from here to the end of the file. ----
//
// What bench/ calls and nothing else may (TestArchitecture/one-request):
// the request as strings, and a raw frame counted as len(Points). ROADMAP
// item 6 moves bench/ to Request, Query and Rank and deletes it.

// QueryParams is a /query request with the resolution and aggregate
// spelled as strings ("" for raw and none).
type QueryParams struct {
	Node       string
	Backend    string
	Domain     string
	From       time.Duration
	To         time.Duration
	Resolution string
	Aggregate  string
	Deadline   time.Duration
}

func (p QueryParams) request() (httpapi.Request, error) {
	res, err := telemetry.ParseResolution(p.Resolution)
	if err != nil {
		return httpapi.Request{}, err
	}
	agg, err := telemetry.ParseAggregate(p.Aggregate)
	return httpapi.Request{Query: telemetry.Query{
		Node: p.Node, Backend: p.Backend, Domain: p.Domain, From: p.From, To: p.To, Resolution: res, Aggregate: agg,
	}, Deadline: p.Deadline}, err
}

// QueryFull is Query on QueryParams, with each raw frame's columns widened
// into Points as well.
func (c *Client) QueryFull(ctx context.Context, p QueryParams) (httpapi.QueryResult, error) {
	r, err := p.request()
	if err != nil {
		return httpapi.QueryResult{}, err
	}
	out, err := c.Query(ctx, r)
	for i := range out.Frames {
		f := &out.Frames[i]
		if n := min(len(f.TNS), len(f.V)); n > 0 && f.Buckets == nil {
			f.Points = make([]telemetry.FramePoint, n)
			for j, v := range f.V[:n] {
				f.Points[j] = telemetry.FramePoint{T: f.TNS[j], Min: v, Max: v, Mean: v, Last: v, Count: 1}
			}
		}
	}
	return out, err
}

// TopKParams is a /topk request: K < 0 ranks every node (k=0), K == 0
// asks for the server's default of 10.
type TopKParams struct {
	K          int
	Domain     string
	From       time.Duration
	To         time.Duration
	Resolution string
	Deadline   time.Duration
}

func (p TopKParams) request() (httpapi.Request, error) {
	res, err := telemetry.ParseResolution(p.Resolution)
	r := httpapi.Request{Query: telemetry.Query{Domain: p.Domain, From: p.From, To: p.To, Resolution: res}, K: p.K, Deadline: p.Deadline}
	switch {
	case p.K < 0:
		r.K = 0
	case p.K == 0:
		r.K = 10
	}
	return r, err
}

// TopK is Rank on TopKParams.
func (c *Client) TopK(ctx context.Context, p TopKParams) (httpapi.TopKResult, error) {
	r, err := p.request()
	if err != nil {
		return httpapi.TopKResult{}, err
	}
	return c.Rank(ctx, r)
}
