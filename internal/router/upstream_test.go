package router

// The upstream pool: connections a backend closed are never written
// to, connections are reused, and the request and response framing
// are pinned against net/http's own parsers.

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"tsppr/internal/httpserve/httpservetest"
)

// TestUpstreamPoolSurvivesBackendIdleTimeout: the backend closes idle
// connections after 20ms. A write after 60ms of quiet must not go out on
// one of them: 200, in one attempt.
func TestUpstreamPoolSurvivesBackendIdleTimeout(t *testing.T) {
	n := &fakeNode{caughtUp: true}
	n.ts = httptest.NewUnstartedServer(n.handler())
	n.ts.Config.IdleTimeout = 20 * time.Millisecond
	n.ts.Start()
	h := served(t, startFakes(t, []*fakeNode{n}, func(c *Config) { c.ProbeInterval = time.Hour }))
	for i := 1; i <= 3; i++ {
		if rr := post(h, "/consume", `{"user":0,"item":1}`, nil); rr.Code != http.StatusOK {
			t.Fatalf("write %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
		if got := n.consumes.Load(); got != int64(i) {
			t.Fatalf("write %d took %d attempts in all", i, got)
		}
		time.Sleep(60 * time.Millisecond)
	}
}

// TestUpstreamPoolSurvivesBackendRestart: the backend restarts on the
// same address. Every pooled connection is to the old process; the
// first write afterwards must reach the new one, not fail as ambiguous.
func TestUpstreamPoolSurvivesBackendRestart(t *testing.T) {
	old := &fakeNode{caughtUp: true}
	rt := startFakes(t, []*fakeNode{old}, func(c *Config) { c.ProbeInterval = time.Hour })
	h := served(t, rt)
	if rr := post(h, "/consume", `{"user":0,"item":1}`, nil); rr.Code != http.StatusOK {
		t.Fatalf("write before the restart: status %d", rr.Code)
	}
	addr := old.ts.Listener.Addr().String()
	old.ts.Close()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	neu := &fakeNode{caughtUp: true}
	neu.ts = &httptest.Server{Listener: l, Config: &http.Server{Handler: neu.handler()}}
	neu.ts.Start()
	t.Cleanup(neu.ts.Close)
	if rr := post(h, "/consume", `{"user":0,"item":1}`, nil); rr.Code != http.StatusOK || neu.consumes.Load() != 1 {
		t.Fatalf("first write after the restart: status %d, %d attempts on the new process: %s",
			rr.Code, neu.consumes.Load(), rr.Body.String())
	}
}

// TestUpstreamPoolReusesConns: 200 sequential reads from one client,
// with the prober running alongside, open at most two connections.
func TestUpstreamPoolReusesConns(t *testing.T) {
	n := &fakeNode{caughtUp: true}
	rt := startFakes(t, []*fakeNode{n}, func(c *Config) { c.ProbeTimeout = time.Second })
	h := served(t, rt)
	for i := 0; i < 200; i++ {
		if rr := post(h, "/recommend/user", `{"user":0,"n":3}`, nil); rr.Code != http.StatusOK {
			t.Fatalf("read %d: status %d", i, rr.Code)
		}
	}
	if d := rt.dials.Value(); d > 2 {
		t.Fatalf("rrc_router_upstream_dials_total = %v after 200 reads, want <= 2", d)
	}
}

// TestUpstreamResponseOverCapIsNotPooled: a body past maxProxyBody is
// cut at the cap, and the connection, left mid-body, is not reused.
func TestUpstreamResponseOverCapIsNotPooled(t *testing.T) {
	size := maxProxyBody + 10
	raw := "HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(size) + "\r\n\r\n" + strings.Repeat("x", size)
	res, reuse, err := readResult(bufio.NewReader(strings.NewReader(raw)))
	if err != nil || reuse || len(res.body) != maxProxyBody {
		t.Fatalf("over-cap body: err %v, reuse %v, kept %d bytes", err, reuse, len(res.body))
	}
}

// FuzzUpstreamHead: whatever the path, epoch, deadline and body, the
// bytes writeRequest emits parse with http.ReadRequest into the same
// method, target, headers and body, and nothing else.
func FuzzUpstreamHead(f *testing.F) {
	f.Add("/consume", uint64(3), int64(250), []byte(`{"user":1,"item":2}`), true)
	f.Add("/recommend/user", uint64(0), int64(1), []byte{}, true)
	f.Add("/readyz", uint64(0), int64(0), []byte(nil), false)
	f.Add("/replica/epoch", uint64(1<<63), int64(-5), []byte("x"), false)
	f.Add("/base/admin/promote?x=1", uint64(9), int64(0), []byte(nil), true)
	f.Fuzz(func(t *testing.T, path string, epoch uint64, deadlineMs int64, body []byte, isPost bool) {
		if _, err := url.ParseRequestURI(path); err != nil || !strings.HasPrefix(path, "/") ||
			strings.ContainsFunc(path, func(r rune) bool { return r <= ' ' || r >= 0x7f }) {
			t.Skip("not a request target")
		}
		q := upstreamReq{method: http.MethodGet, path: path, epoch: epoch, deadlineMs: deadlineMs}
		want := http.Header{}
		if isPost {
			q.method, q.body = http.MethodPost, body
			want.Set("Content-Type", "application/json")
			want.Set("Content-Length", strconv.Itoa(len(body)))
		}
		if epoch > 0 {
			want.Set("X-RRC-Epoch", strconv.FormatUint(epoch, 10))
		}
		if deadlineMs > 0 {
			want.Set(DeadlineHeader, strconv.FormatInt(deadlineMs, 10))
		}
		var wire bytes.Buffer
		if err := writeRequest(bufio.NewWriter(&wire), "node:8395", q); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(&wire)
		req, err := http.ReadRequest(br)
		if err != nil {
			t.Fatalf("written head does not parse: %v\n%q", err, wire.String())
		}
		got, err := io.ReadAll(req.Body)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case req.Method != q.method || req.RequestURI != path || req.Host != "node:8395" || req.ProtoMinor != 1:
			t.Fatalf("request line/host: %s %s %s host %s", req.Method, req.RequestURI, req.Proto, req.Host)
		case len(req.Header) != len(want):
			t.Fatalf("headers %v, want %v", req.Header, want)
		case !bytes.Equal(got, q.body):
			t.Fatalf("body %q, want %q", got, q.body)
		case br.Buffered() != 0:
			t.Fatalf("%d bytes past the request", br.Buffered())
		}
		for k := range want {
			if req.Header.Get(k) != want.Get(k) {
				t.Fatalf("%s: %q, want %q", k, req.Header.Get(k), want.Get(k))
			}
		}
	})
}

// FuzzUpstreamResponse: arbitrary response bytes either fail or yield
// a result of at most maxProxyBody bytes, without panicking. A result
// marked reusable is one net/http also reads as a complete keep-alive
// response with the same status and body.
func FuzzUpstreamResponse(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\nread until EOF",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 200 OK\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}",
		"HTTP/1.1 2000 OK\r\n\r\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		res, reuse, err := readResult(br)
		if err != nil {
			if res != nil || reuse {
				t.Fatalf("error %v with a result (%v) or reuse (%v)", err, res != nil, reuse)
			}
			return
		}
		if len(res.body) > maxProxyBody {
			t.Fatalf("kept %d body bytes", len(res.body))
		}
		if !reuse {
			return
		}
		want, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil || want.Close {
			t.Fatalf("pooled after a response net/http reads as err %v / close", err)
		}
		body, err := io.ReadAll(want.Body)
		if err != nil || !bytes.Equal(body, res.body) || want.StatusCode != res.status || br.Buffered() != 0 {
			t.Fatalf("pooled after a response net/http frames differently: %v %d %q vs %d %q, %d left",
				err, want.StatusCode, body, res.status, res.body, br.Buffered())
		}
	})
}

// BenchmarkRouterProxy is one proxied /recommend/user from parallel
// keep-alive clients through the router to one backend, with the router
// and the backend both served by net/http's server or both by httpserve.
func BenchmarkRouterProxy(b *testing.B) {
	const body = `{"user":0,"n":3}`
	req := []byte("POST /recommend/user HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + body)
	for _, tc := range []struct {
		name  string
		serve func(http.Handler) string // returns the base URL
	}{
		{"net-http", func(h http.Handler) string {
			ts := httptest.NewServer(h)
			b.Cleanup(ts.Close)
			return ts.URL
		}},
		{"httpserve", func(h http.Handler) string { return httpservetest.Start(b, h).URL }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			n := &fakeNode{caughtUp: true}
			rt, err := New(Config{Partitions: [][]string{{tc.serve(n.handler())}}, ProbeInterval: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			rt.Start()
			b.Cleanup(rt.Stop)
			front := strings.TrimPrefix(tc.serve(rt.Routes()), "http://")
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				nc, err := net.Dial("tcp", front)
				if err != nil {
					b.Error(err)
					return
				}
				defer nc.Close()
				br := bufio.NewReader(nc)
				for pb.Next() {
					if _, err := nc.Write(req); err != nil {
						b.Error(err)
						return
					}
					resp, err := http.ReadResponse(br, nil)
					if err != nil || resp.StatusCode != http.StatusOK {
						b.Errorf("response: %v", err)
						return
					}
					io.Copy(io.Discard, resp.Body)
				}
			})
		})
	}
}
