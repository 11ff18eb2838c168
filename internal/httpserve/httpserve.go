// Package httpserve is the HTTP/1.1 server rrc-server and rrc-router
// serve on. Each connection is one goroutine that parses a request with
// http.ReadRequest, runs the handler on itself into a buffered
// ResponseWriter and sends the answer in one Content-Length-framed
// write: no goroutine, context or timer per request, and no chunked or
// streamed response, HTTP/2 or 1xx from a handler. Every request's
// context is the server's, cancelled by Close, and by Shutdown once its
// own context ends; a client that disconnects cancels nothing.
package httpserve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	maxHeaderBytes = 1<<20 + 4096 // net/http's head cap plus its bufio slop
	maxDrain       = 256 << 10    // unread body discarded to keep a connection
	maxKeptBody    = 64 << 10     // a larger response buffer is dropped after use
	lingerTime     = 500 * time.Millisecond
)

// Config holds the timeouts, zero meaning none: for a request's first
// byte, then its head (under 1 MiB, else 431) and its body, and from the
// head on, its answer. An idle or write deadline within an eighth of its
// timeout of the new one is left in place.
type Config struct {
	IdleTimeout, ReadHeaderTimeout, ReadTimeout, WriteTimeout time.Duration
}

// Server serves one handler.
type Server struct {
	cfg         Config
	handler     http.Handler
	ctx         context.Context
	cancel      context.CancelFunc
	headerLimit int64 // maxHeaderBytes; tests lower it
	closing     atomic.Bool
	mu          sync.Mutex
	ln          net.Listener
	conns       map[*conn]struct{}
	running     sync.WaitGroup // one per connection goroutine
}

// New returns a server for h.
func New(h http.Handler, cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{cfg: cfg, handler: h, ctx: ctx, cancel: cancel, headerLimit: maxHeaderBytes, conns: map[*conn]struct{}{}}
}

// ListenAndServe serves the TCP address addr.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown or Close, then returns
// http.ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for !s.closing.Load() {
		nc, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) && !s.closing.Load() {
			return err
		} else if err != nil {
			time.Sleep(10 * time.Millisecond) // e.g. out of file descriptors
			continue
		}
		c := &conn{s: s, nc: nc, remote: nc.RemoteAddr().String(), lr: io.LimitedReader{R: nc}}
		c.br = bufio.NewReader(&c.lr)
		s.mu.Lock()
		if s.closing.Load() {
			nc.Close()
		} else {
			s.conns[c] = struct{}{}
			s.running.Add(1)
			go c.serve()
		}
		s.mu.Unlock()
	}
	ln.Close()
	return http.ErrServerClosed
}

// stop refuses new connections and closes the idle ones, or all.
func (s *Server) stop(all bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closing.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		if c.idle.CompareAndSwap(true, false) || all {
			c.nc.Close()
		}
	}
}

// Shutdown stops accepting, closes idle connections and waits for the
// requests in flight, whose connections close once they are answered.
// If ctx ends first it cancels their context and returns ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stop(false)
	defer s.cancel()
	done := make(chan struct{})
	go func() { // ends with the last connection
		s.running.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting, cancels the requests' context, closes every
// connection and returns once every handler has.
func (s *Server) Close() error {
	s.cancel()
	s.stop(true)
	s.running.Wait()
	return nil
}

// conn is one client connection and the buffers its requests reuse.
type conn struct {
	s        *Server
	nc       net.Conn
	remote   string
	idle     atomic.Bool      // waiting for a request: Shutdown may close it
	lr       io.LimitedReader // counts down the head's bytes
	br       *bufio.Reader
	rdl, wdl time.Time // deadlines in force
	w        response
	body     body
	out      []byte      // response head
	iov      [2][]byte   // head and body
	vec      net.Buffers // over iov, for one writev
}

func (c *conn) serve() {
	for c.next() {
	}
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
	c.nc.Close()
	c.s.running.Done()
}

// next serves one request and reports whether the connection stays open:
// not after Connection: close, HTTP/1.0 without keep-alive, a 413, more
// than 256 KiB of unread body, or a handler panic (logged; a 500 if the
// handler had written nothing, else no answer).
func (c *conn) next() bool {
	s, now := c.s, time.Now()
	c.lr.N = s.headerLimit
	if c.br.Buffered() == 0 { // else a pipelined request is waiting
		c.idle.Store(true)
		if s.closing.Load() {
			return false
		}
		c.setDeadline(&c.rdl, c.nc.SetReadDeadline, now, s.cfg.IdleTimeout, s.cfg.IdleTimeout/8)
		if _, err := c.br.Peek(1); !c.idle.CompareAndSwap(true, false) || err != nil {
			return false
		}
		now = time.Now()
	}
	if b, _ := c.br.Peek(c.br.Buffered()); !bytes.Contains(b, []byte("\r\n\r\n")) {
		c.setDeadline(&c.rdl, c.nc.SetReadDeadline, now, s.cfg.ReadHeaderTimeout, 0)
	}
	req, err := http.ReadRequest(c.br)
	var ne net.Error
	switch code, msg := check(req, err); {
	case err != nil && c.lr.N <= 0:
		c.fail(http.StatusRequestHeaderFieldsTooLarge, "")
		c.linger()
		return false
	case err == io.EOF || errors.As(err, &ne):
		return false // gone or timed out: nothing to answer, as in net/http
	case code != 0:
		c.fail(code, msg)
		return false
	}
	c.lr.N = math.MaxInt64
	if req.ContentLength < 0 || int64(c.br.Buffered()) < req.ContentLength {
		c.setDeadline(&c.rdl, c.nc.SetReadDeadline, now, s.cfg.ReadTimeout, 0)
	}
	c.setDeadline(&c.wdl, c.nc.SetWriteDeadline, now, s.cfg.WriteTimeout, s.cfg.WriteTimeout/8)

	req = req.WithContext(s.ctx)
	req.RemoteAddr = c.remote
	hasBody := req.Body != http.NoBody
	if hasBody {
		c.body = body{c: c, r: req.Body, expect: req.ProtoAtLeast(1, 1) && req.Header.Get("Expect") != ""}
		req.Body = &c.body
	}
	w := &c.w
	w.reset(req)
	ok := c.run(w, req)
	keep := ok && !req.Close && w.status != http.StatusRequestEntityTooLarge && !s.closing.Load()
	if keep && hasBody {
		keep = c.body.drain()
	}
	if !ok && w.status != 0 {
		return false // a partial answer would look whole
	} else if !ok {
		clear(w.header)
		w.status = http.StatusInternalServerError
	}
	err = c.send(w, keep)
	if !keep && err == nil && hasBody && !c.body.eof {
		c.linger()
	}
	if cap(w.buf) > maxKeptBody {
		w.buf = nil
	}
	return keep && err == nil
}

// run calls the handler and reports whether it returned without a panic.
func (c *conn) run(w *response, req *http.Request) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("httpserve: panic serving %s %s: %v\n%s", c.remote, req.URL.Path, p, debug.Stack())
		}
	}()
	c.s.handler.ServeHTTP(w, req)
	return true
}

// check returns the status net/http's server answers a request with
// before its handler runs, or 0.
func check(req *http.Request, err error) (code int, msg string) {
	switch {
	case err != nil && strings.Contains(err.Error(), "unsupported transfer encoding"):
		return http.StatusNotImplemented, ""
	case err != nil:
		return http.StatusBadRequest, ""
	case req.ProtoMajor != 1:
		return http.StatusHTTPVersionNotSupported, "unsupported protocol version"
	case req.ProtoAtLeast(1, 1) && req.Host == "":
		return http.StatusBadRequest, "missing required Host header"
	case strings.ContainsFunc(req.Host, func(r rune) bool { return !validHost(r) }):
		return http.StatusBadRequest, "malformed Host header"
	case req.Header.Get("Expect") != "" && !strings.EqualFold(req.Header.Get("Expect"), "100-continue"):
		return http.StatusExpectationFailed, ""
	}
	for k := range req.Header {
		if !validName(k) {
			return http.StatusBadRequest, "invalid header name"
		}
	}
	return 0, ""
}

func validName(k string) bool {
	return k != "" && !strings.ContainsFunc(k, func(r rune) bool {
		return r <= ' ' || r >= 0x7f || strings.ContainsRune(`"(),/:;<=>?@[\]{}`, r)
	})
}

func validHost(r rune) bool {
	return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || strings.ContainsRune("!$%&'()*+,-.:;=[]_~", r)
}

// fail sends a plain-text error as net/http's server does; the
// connection closes after it.
func (c *conn) fail(code int, msg string) {
	text := strconv.Itoa(code) + " " + http.StatusText(code)
	if msg != "" {
		text += ": " + msg
	}
	c.setDeadline(&c.wdl, c.nc.SetWriteDeadline, time.Now(), lingerTime, 0)
	io.WriteString(c.nc, "HTTP/1.1 "+strconv.Itoa(code)+" "+http.StatusText(code)+"\r\nContent-Type: text/plain; charset=utf-8"+
		"\r\nConnection: close\r\nContent-Length: "+strconv.Itoa(len(text))+"\r\n\r\n"+text)
}

// linger half-closes the connection and discards what the client still
// sends for a moment, so that closing with input unread does not reset
// the connection before the client has read the answer.
func (c *conn) linger() {
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	c.setDeadline(&c.rdl, c.nc.SetReadDeadline, time.Now(), lingerTime, 0)
	io.Copy(io.Discard, c.nc)
}

// setDeadline moves a deadline, *cur, to now+d (none if d is 0) through
// set, unless *cur is at most slack earlier.
func (c *conn) setDeadline(cur *time.Time, set func(time.Time) error, now time.Time, d, slack time.Duration) {
	var t time.Time
	if d > 0 {
		t = now.Add(d)
	}
	if cur.IsZero() != t.IsZero() || cur.After(t) || t.Sub(*cur) > slack {
		*cur = t
		set(t) // fails only on a closed conn, and then so does the I/O
	}
}

// body is a request body as the handler sees it: it answers Expect:
// 100-continue at the first read, and Close does not drain it.
type body struct {
	c                   *conn
	r                   io.Reader
	expect, eof, closed bool
}

func (b *body) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	if b.expect {
		b.expect = false
		if _, err := io.WriteString(b.c.nc, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			return 0, err
		}
	}
	n, err := b.r.Read(p)
	b.eof = b.eof || err == io.EOF
	return n, err
}

func (b *body) Close() error {
	b.closed = true
	return nil
}

// drain discards what the handler left of the body and reports whether
// the next request can be read after it.
func (b *body) drain() bool {
	if b.eof || b.expect { // a 100-continue body never asked for may never come
		return b.eof
	}
	_, err := io.CopyN(io.Discard, b.r, maxDrain+1)
	return err == io.EOF
}

// response is the buffered ResponseWriter a connection reuses.
type response struct {
	req    *http.Request
	header http.Header
	status int
	buf    []byte
}

func (w *response) reset(req *http.Request) {
	if w.header == nil {
		w.header = http.Header{}
	}
	clear(w.header)
	w.req, w.status, w.buf = req, 0, w.buf[:0]
}

func (w *response) Header() http.Header { return w.header }

// WriteHeader records the first final status; 1xx codes are dropped.
func (w *response) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic("httpserve: invalid WriteHeader code " + strconv.Itoa(code))
	}
	if w.status == 0 && code >= 200 {
		w.status = code
	}
}

func (w *response) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func bodyAllowed(code int) bool {
	return code != http.StatusNoContent && code != http.StatusNotModified
}

var newlines = strings.NewReplacer("\r", " ", "\n", " ")

// send writes w's head and body in one write; HEAD gets the head only.
// The handler's Connection, Content-Length and Transfer-Encoding headers
// are replaced by the server's.
func (c *conn) send(w *response, keep bool) error {
	w.WriteHeader(http.StatusOK)
	http11 := w.req.ProtoAtLeast(1, 1)
	b := append(c.out[:0], "HTTP/1.1 "...)
	if !http11 {
		b = append(b[:0], "HTTP/1.0 "...)
	}
	b = append(append(strconv.AppendInt(b, int64(w.status), 10), ' '), http.StatusText(w.status)...)
	for k, vv := range w.header {
		if validName(k) && k != "Content-Length" && k != "Transfer-Encoding" && k != "Connection" {
			for _, v := range vv {
				b = append(append(append(append(b, "\r\n"...), k...), ": "...), strings.TrimSpace(newlines.Replace(v))...)
			}
		}
	}
	if _, ok := w.header["Content-Type"]; !ok && len(w.buf) > 0 {
		b = append(append(b, "\r\nContent-Type: "...), http.DetectContentType(w.buf)...)
	}
	if _, ok := w.header["Date"]; !ok {
		b = time.Now().UTC().AppendFormat(append(b, "\r\nDate: "...), http.TimeFormat)
	}
	if bodyAllowed(w.status) && (len(w.buf) > 0 || w.req.Method != http.MethodHead) {
		b = strconv.AppendInt(append(b, "\r\nContent-Length: "...), int64(len(w.buf)), 10)
	}
	if !keep && http11 {
		b = append(b, "\r\nConnection: close"...)
	} else if keep && !http11 {
		b = append(b, "\r\nConnection: keep-alive"...)
	}
	c.out = append(b, "\r\n\r\n"...)
	if len(w.buf) == 0 || w.req.Method == http.MethodHead {
		_, err := c.nc.Write(c.out)
		return err
	}
	c.iov = [2][]byte{c.out, w.buf}
	c.vec = c.iov[:]
	_, err := c.vec.WriteTo(c.nc)
	return err
}
