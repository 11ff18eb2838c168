// The router's one upstream path: proxy attempts, probes and POST
// /admin/promote are each one plain HTTP/1.1 roundTrip on the calling
// goroutine, over a LIFO pool of keep-alive connections per node, under
// one absolute deadline set with SetDeadline. A pooled connection the
// backend closed is caught before reuse (alive); a dial failure stays a
// *net.OpError{Op: "dial"}, the one provably-unsent error.
package router

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// maxIdleConns caps each node's idle upstream connections.
const maxIdleConns = 64

// upstreamReq is one request to a node. A POST carries a JSON body
// (possibly empty); epoch and deadlineMs are sent only when positive.
type upstreamReq struct {
	method, path string
	epoch        uint64
	deadlineMs   int64
	body         []byte
}

// upstreamConn is one keep-alive connection to a node.
type upstreamConn struct {
	net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// connPool is a node's idle connections, most recently used last.
type connPool struct {
	mu     sync.Mutex
	idle   []*upstreamConn
	closed bool // the topology dropped the node
}

func (p *connPool) get() (c *upstreamConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k := len(p.idle) - 1; k >= 0 {
		c, p.idle[k], p.idle = p.idle[k], nil, p.idle[:k]
	}
	return c
}

// put pools c if reuse allows and there is room, else closes it.
func (p *connPool) put(c *upstreamConn, reuse bool) {
	p.mu.Lock()
	if reuse && !p.closed && len(p.idle) < maxIdleConns {
		p.idle, c = append(p.idle, c), nil
	}
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// close shuts the idle connections; any put back later are closed too.
func (p *connPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.idle {
		c.Close()
	}
	p.idle, p.closed = nil, true
}

// alive reports whether an idle connection can carry a request: a
// non-blocking MSG_PEEK finds neither EOF nor bytes nobody asked for.
// It fails on a connection whose deadline has passed.
func (c *upstreamConn) alive() bool {
	raw, err := c.Conn.(syscall.Conn).SyscallConn()
	idle := false
	if err == nil {
		err = raw.Read(func(fd uintptr) bool {
			var b [1]byte
			_, _, perr := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			idle = perr == syscall.EAGAIN
			return true
		})
	}
	return err == nil && idle
}

// conn takes n's newest live idle connection, or dials a new one.
func (rt *Router) conn(n *node, deadline time.Time) (*upstreamConn, error) {
	for c := n.pool.get(); c != nil; c = n.pool.get() {
		if c.SetDeadline(deadline) == nil && c.alive() {
			return c, nil
		}
		c.Close()
	}
	rt.dials.Inc()
	nc, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", n.host)
	if err != nil {
		return nil, err
	}
	_ = nc.SetDeadline(deadline) // fails only on a closed conn, and then so does the write
	return &upstreamConn{Conn: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}

// roundTrip sends q to n and reads the whole answer before deadline.
func (rt *Router) roundTrip(n *node, q upstreamReq, deadline time.Time) (*upstreamResult, error) {
	c, err := rt.conn(n, deadline)
	if err != nil {
		return nil, err
	}
	if err := writeRequest(c.bw, n.host, q); err != nil {
		c.Close()
		return nil, err
	}
	res, reuse, err := readResult(c.br)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("reading %s response: %w", n.url, err)
	}
	n.pool.put(c, reuse)
	return res, nil
}

// writeRequest writes q's head and body to w and flushes once.
func writeRequest(w *bufio.Writer, host string, q upstreamReq) error {
	w.WriteString(q.method + " " + q.path + " HTTP/1.1\r\nHost: " + host)
	if q.method == http.MethodPost {
		w.WriteString("\r\nContent-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(q.body)))
	}
	if q.epoch > 0 {
		w.WriteString("\r\nX-RRC-Epoch: " + strconv.FormatUint(q.epoch, 10))
	}
	if q.deadlineMs > 0 {
		w.WriteString("\r\n" + DeadlineHeader + ": " + strconv.FormatInt(q.deadlineMs, 10))
	}
	w.WriteString("\r\n\r\n")
	w.Write(q.body)
	return w.Flush()
}

// readResult reads one response from br, keeping at most maxProxyBody
// bytes of body. reuse is true only when the response was complete,
// allows keep-alive, and nothing follows it in br.
func readResult(br *bufio.Reader) (res *upstreamResult, reuse bool, err error) {
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode < http.StatusOK {
		return nil, false, fmt.Errorf("unexpected interim response %q", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody+1))
	if err != nil {
		return nil, false, err
	}
	reuse = !resp.Close && len(body) <= maxProxyBody && br.Buffered() == 0
	return &upstreamResult{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        body[:min(len(body), maxProxyBody)],
	}, reuse, nil
}
