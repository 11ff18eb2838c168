package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// checkEvery is the oracle's sampling period: every checkEvery-th read
// of a client is decoded and compared, items and scores exactly.
const checkEvery = 64

// auditUsers bounds the post-window read-back of written users.
const auditUsers = 1000

// tally is what a stretch of driving produced: the latency of every
// successful op and, by type, of every successful request in it.
type tally struct {
	ops, reads, writes []time.Duration
	attempted, failed  int64 // HTTP requests; failed = non-200, transport error or oracle mismatch
	mismatches         int64 // the oracle-mismatch share of failed
}

func (t *tally) merge(o tally) {
	t.ops = append(t.ops, o.ops...)
	t.reads = append(t.reads, o.reads...)
	t.writes = append(t.writes, o.writes...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatches += o.mismatches
}

// client is one closed-loop load generator: one keep-alive connection,
// one request stream, one oracle. It sends its next request only when
// the previous one has been answered.
type client struct {
	http   *http.Client
	stream *stream
	oracle *oracle
	reads  int // reads issued so far, for the oracle's sampling
	buf    bytes.Buffer
	tally  tally
}

func newClient(fx *fixture, o *oracle, w workload, seed int64, id, clients int) *client {
	return &client{
		http: &http.Client{
			Timeout:   5 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		},
		stream: newStream(fx, w, seed, id, clients),
		oracle: o,
	}
}

// do sends one request to base and judges the reply. It reports the
// latency and whether the request counts as successful. checkAll
// overrides the sampling (the audit compares every read).
func (c *client) do(base string, req request, checkAll bool) (time.Duration, bool) {
	c.tally.attempted++
	start := time.Now()
	resp, err := c.http.Post(base+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		c.fail("%s: %v", req.path, err)
		return time.Since(start), false
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil || resp.StatusCode != http.StatusOK {
		c.fail("%s: status %d, read error %v, body %.200s", req.path, resp.StatusCode, err, c.buf.Bytes())
		return lat, false
	}
	if req.kind == kindWrite {
		c.oracle.ack(req.user, req.item)
		return lat, true
	}
	c.reads++
	if checkAll || c.reads%checkEvery == 0 {
		if err := c.oracle.check(req, c.buf.Bytes()); err != nil {
			c.tally.mismatches++
			c.fail("oracle mismatch on %s: %v", req.path, err)
			return lat, false
		}
	}
	return lat, true
}

// fail counts a failed request and reports the first few on stderr.
func (c *client) fail(format string, args ...any) {
	c.tally.failed++
	if c.tally.failed <= 3 {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
}

// runOp issues one op's requests against base. An op's latency is the
// sum of its requests'; ok is false when any of them failed.
func (c *client) runOp(base string, reqs []request) (total time.Duration, ok bool) {
	ok = true
	for _, req := range reqs {
		lat, good := c.do(base, req, false)
		total += lat
		if !good {
			ok = false
			continue
		}
		if req.kind == kindWrite {
			c.tally.writes = append(c.tally.writes, lat)
		} else {
			c.tally.reads = append(c.tally.reads, lat)
		}
	}
	if ok {
		c.tally.ops = append(c.tally.ops, total)
	}
	return total, ok
}

// drive runs every client concurrently against base: until each has
// issued ops ops when ops > 0, else until d has passed; an op in flight
// when d runs out is finished. It returns the clients' merged tallies
// for that stretch.
func drive(ctx context.Context, clients []*client, base string, ops int, d time.Duration) tally {
	var wg sync.WaitGroup
	origin := time.Now()
	for _, c := range clients {
		c.tally = tally{}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				if ops > 0 && i >= ops {
					return
				}
				if ops <= 0 && time.Since(origin) >= d {
					return
				}
				c.runOp(base, c.stream.next())
			}
		}(c)
	}
	wg.Wait()
	var total tally
	for _, c := range clients {
		total.merge(c.tally)
	}
	return total
}

// audit re-reads up to auditUsers users the clients wrote, through the
// router, and compares every answer: after the window, what the fleet
// holds for them must be exactly what was acknowledged.
func audit(clients []*client, base string) tally {
	var total tally
	perClient := auditUsers / len(clients)
	for _, c := range clients {
		c.tally = tally{}
		users := make([]int, 0, len(c.oracle.acked))
		for u := range c.oracle.acked {
			users = append(users, u)
		}
		sort.Ints(users)
		if len(users) > perClient {
			users = users[:perClient]
		}
		for _, u := range users {
			c.do(base, c.stream.recommend(u), true)
		}
		total.merge(c.tally)
	}
	return total
}
