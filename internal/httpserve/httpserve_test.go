package httpserve

// Conformance against net/http's server, timeouts, drain, fuzzing and
// a benchmark against httptest.Server for the same handler.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testHandler is the handler both servers run in the conformance table.
func testHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /hello", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"hello":"`+r.Host+`"}`)
	})
	mux.HandleFunc("POST /echo", func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<10))
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "too big", http.StatusRequestEntityTooLarge)
			return
		}
		w.Write(b)
	})
	mux.HandleFunc("POST /ignore", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ignored") })
	mux.HandleFunc("GET /busy", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "busy", http.StatusServiceUnavailable)
	})
	mux.HandleFunc("GET /panic", func(w http.ResponseWriter, r *http.Request) { panic("boom") })
	return mux
}

// serve runs h on httpserve on a loopback port until the test ends.
func serve(tb testing.TB, h http.Handler, cfg Config) (*Server, string) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	s := New(h, cfg)
	go s.Serve(ln)
	tb.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

// exchange is what a client saw for some raw request bytes.
type exchange struct {
	statuses    []int
	body        string // of the last response
	contentType string
	retryAfter  string
	open        bool // the connection was still open afterwards
}

// roundTrip writes raw to addr and reads up to want final responses.
func roundTrip(t *testing.T, addr, raw string, want int) exchange {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	go io.WriteString(nc, raw) // a huge head may block until the server closes
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	var ex exchange
	for finals := 0; finals < want; {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return ex // closed without (another) answer
		}
		b, _ := io.ReadAll(resp.Body)
		ex.statuses = append(ex.statuses, resp.StatusCode)
		if resp.StatusCode >= 200 {
			finals++
			ex.body, ex.contentType, ex.retryAfter = string(b), resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After")
		}
	}
	nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	_, err = br.ReadByte()
	var ne net.Error
	ex.open = errors.As(err, &ne) && ne.Timeout()
	return ex
}

// TestConformsToNetHTTP sends the same bytes to one handler behind
// net/http and behind httpserve and compares what a client sees.
func TestConformsToNetHTTP(t *testing.T) {
	std := httptest.NewServer(testHandler())
	defer std.Close()
	_, ours := serve(t, testHandler(), Config{ReadHeaderTimeout: time.Second, IdleTimeout: time.Minute})
	stdAddr := strings.TrimPrefix(std.URL, "http://")

	const host = "Host: x\r\n"
	cases := []struct {
		name, raw string
		responses int
		// oursStatuses, when set, is the one deliberate difference:
		// net/http closes without an answer after a panic, httpserve
		// answers 500 first.
		oursStatuses []int
	}{
		{name: "get", raw: "GET /hello HTTP/1.1\r\n" + host + "\r\n", responses: 1},
		{name: "post", raw: "POST /echo HTTP/1.1\r\n" + host + "Content-Length: 5\r\n\r\nhello", responses: 1},
		{name: "retry-after", raw: "GET /busy HTTP/1.1\r\n" + host + "\r\n", responses: 1},
		{name: "chunked body", raw: "POST /echo HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", responses: 1},
		{name: "100-continue", raw: "POST /echo HTTP/1.1\r\n" + host + "Expect: 100-continue\r\nContent-Length: 5\r\n\r\nhello", responses: 1},
		{name: "http/1.0", raw: "GET /hello HTTP/1.0\r\n\r\n", responses: 1},
		{name: "http/1.0 keep-alive", raw: "GET /hello HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", responses: 1},
		{name: "connection close", raw: "GET /hello HTTP/1.1\r\n" + host + "Connection: close\r\n\r\n", responses: 1},
		{name: "pipelined", raw: "GET /hello HTTP/1.1\r\n" + host + "\r\nPOST /echo HTTP/1.1\r\n" + host + "Content-Length: 2\r\n\r\nhi", responses: 2},
		{name: "unread body", raw: "POST /ignore HTTP/1.1\r\n" + host + "Content-Length: 5\r\n\r\nhello", responses: 1},
		{name: "missing host", raw: "GET /hello HTTP/1.1\r\n\r\n", responses: 1},
		{name: "two hosts", raw: "GET /hello HTTP/1.1\r\n" + host + host + "\r\n", responses: 1},
		{name: "bad header value", raw: "GET /hello HTTP/1.1\r\n" + host + "X-A: a\x01b\r\n\r\n", responses: 1},
		{name: "head over 1 MiB", raw: "GET /hello HTTP/1.1\r\n" + host + "X-Big: " + strings.Repeat("a", 2<<20) + "\r\n\r\n", responses: 1},
		{name: "body over MaxBytesReader", raw: "POST /echo HTTP/1.1\r\n" + host + "Content-Length: 2048\r\n\r\n" + strings.Repeat("b", 2048), responses: 1},
		{name: "malformed request line", raw: "GARBAGE\r\n\r\n", responses: 1},
		{name: "not found", raw: "GET /nope HTTP/1.1\r\n" + host + "\r\n", responses: 1},
		{name: "handler panic", raw: "GET /panic HTTP/1.1\r\n" + host + "\r\n", responses: 1, oursStatuses: []int{500}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := roundTrip(t, stdAddr, tc.raw, tc.responses)
			got := roundTrip(t, ours, tc.raw, tc.responses)
			if tc.oursStatuses != nil {
				if want.statuses != nil || want.open || got.open || fmt.Sprint(got.statuses) != fmt.Sprint(tc.oursStatuses) {
					t.Fatalf("net/http %+v, httpserve %+v", want, got)
				}
				return
			}
			if len(want.statuses) == 0 {
				t.Fatalf("net/http answered nothing: %+v", want)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("\nnet/http  %+v\nhttpserve %+v", want, got)
			}
		})
	}
}

// TestHeadTimeout: a client that never finishes its head is closed
// after ReadHeaderTimeout.
func TestHeadTimeout(t *testing.T) {
	_, addr := serve(t, testHandler(), Config{ReadHeaderTimeout: 100 * time.Millisecond, IdleTimeout: time.Minute})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	start := time.Now()
	io.WriteString(nc, "GET /hello HTTP/1.1\r\nHost: x\r\n")
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := nc.Read(make([]byte, 1))
	if took := time.Since(start); n != 0 || err != io.EOF || took < 100*time.Millisecond || took > 2*time.Second {
		t.Fatalf("read %d bytes, err %v after %s; want EOF after ~100ms", n, err, took)
	}
}

// TestIdleTimeout: an idle keep-alive connection is closed after
// between 7/8 of IdleTimeout and IdleTimeout.
func TestIdleTimeout(t *testing.T) {
	const idle = 400 * time.Millisecond
	_, addr := serve(t, testHandler(), Config{ReadHeaderTimeout: time.Second, IdleTimeout: idle})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	for i := 0; i < 3; i++ { // kept open between requests
		io.WriteString(nc, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n")
		resp, err := http.ReadResponse(br, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		time.Sleep(idle / 4)
	}
	start := time.Now()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection: %v, want EOF", err)
	}
	// The deadline in force may date from the first request.
	if took := time.Since(start); took < idle*7/8-3*idle/4 || took > idle+time.Second {
		t.Fatalf("idle connection closed after %s, IdleTimeout %s", took, idle)
	}
}

// TestShutdown: Shutdown closes idle connections and refuses new ones
// at once, lets the request in flight finish on a closing connection,
// and returns when it has.
func TestShutdown(t *testing.T) {
	release, entered := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			select {
			case <-release:
			case <-r.Context().Done(): // the test failed and closed the server
			}
		}
		io.WriteString(w, "done")
	})
	s, addr := serve(t, h, Config{ReadHeaderTimeout: time.Second, IdleTimeout: time.Minute})
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idleBr := bufio.NewReader(idle)
	io.WriteString(idle, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	if resp, err := http.ReadResponse(idleBr, nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("idle conn's first request: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	busy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	io.WriteString(busy, "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shut <- s.Shutdown(ctx)
	}()
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := idleBr.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection during Shutdown: %v, want EOF", err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("new connection accepted during Shutdown")
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	busy.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(busy), nil)
	if err != nil || resp.StatusCode != http.StatusOK || !resp.Close {
		t.Fatalf("in-flight request: %v, want 200 with Connection: close", err)
	}
	select {
	case err := <-shut:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown did not return after the last request")
	}
}

// TestShutdownDeadlineCancelsRequests: a handler that waits on its
// request's context is released when Shutdown's context ends, and
// Shutdown returns that context's error in time.
func TestShutdownDeadlineCancelsRequests(t *testing.T) {
	entered := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-r.Context().Done()
	})
	s, addr := serve(t, h, Config{ReadHeaderTimeout: time.Second, IdleTimeout: time.Minute})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	io.WriteString(nc, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) || time.Since(start) > time.Second {
		t.Fatalf("Shutdown = %v after %s, want the deadline after ~100ms", err, time.Since(start))
	}
	s.Close() // returns only once the handler has
}

// countingConn counts the bytes the server has read.
type countingConn struct {
	net.Conn
	read atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// FuzzServeConn: whatever bytes a client sends, the server does not
// panic, reads at most the header cap before a handler runs, and writes
// only bytes that parse as HTTP responses.
func FuzzServeConn(f *testing.F) {
	for _, seed := range []string{
		"GET /hello HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
		"POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"POST /echo HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nhi",
		"GET /hello HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /busy HTTP/1.1\r\nHost: y\r\n\r\n",
		"HEAD /hello HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /panic HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /hello HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", 300) + "\r\n\r\n",
		"GET /hello HTTP/2.0\r\nHost: x\r\n\r\n",
		"GARBAGE\r\n\r\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	const limit = 256
	f.Fuzz(func(t *testing.T, data []byte) {
		const d = 50 * time.Millisecond
		s := New(nil, Config{ReadHeaderTimeout: d, ReadTimeout: d, WriteTimeout: time.Second, IdleTimeout: d})
		s.headerLimit = limit
		server, client := net.Pipe()
		cc := &countingConn{Conn: server}
		var first atomic.Bool
		var methods []string // of the requests handled, in order
		inner := testHandler()
		s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if got := cc.read.Load(); first.CompareAndSwap(false, true) && got > limit {
				t.Errorf("read %d bytes before the first handler ran, cap %d", got, limit)
			}
			methods = append(methods, r.Method)
			inner.ServeHTTP(w, r)
		})
		c := &conn{s: s, nc: cc, remote: "pipe"}
		c.lr.R = cc
		c.br = bufio.NewReader(&c.lr)
		s.conns[c] = struct{}{}
		s.running.Add(1)
		go c.serve()

		go client.Write(data) // fails once the server closes
		out, _ := io.ReadAll(client)
		client.Close()
		s.Close()
		br := bufio.NewReader(bytes.NewReader(out))
		for i := 0; ; {
			if _, err := br.Peek(1); err == io.EOF {
				break
			}
			var req *http.Request // a reply to a request no handler saw has none
			if i < len(methods) {
				req = &http.Request{Method: methods[i]}
			}
			resp, err := http.ReadResponse(br, req)
			if err != nil {
				t.Fatalf("unparseable output %q: %v", out, err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatalf("bad response body in %q: %v", out, err)
			}
			if resp.StatusCode >= 200 {
				i++
			}
		}
	})
}

// BenchmarkServe is one small JSON GET over a keep-alive connection,
// served by httpserve and by net/http's server for comparison.
func BenchmarkServe(b *testing.B) {
	h := testHandler()
	std := httptest.NewServer(h)
	b.Cleanup(std.Close)
	_, ours := serve(b, h, Config{ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 15 * time.Second,
		WriteTimeout: 20 * time.Second, IdleTimeout: 2 * time.Minute})
	for _, tc := range []struct{ name, addr string }{
		{"net-http", strings.TrimPrefix(std.URL, "http://")},
		{"httpserve", ours},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				nc, err := net.Dial("tcp", tc.addr)
				if err != nil {
					b.Error(err)
					return
				}
				defer nc.Close()
				br := bufio.NewReader(nc)
				req := []byte("GET /hello HTTP/1.1\r\nHost: bench\r\n\r\n")
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
