// The proxy path. One incoming request becomes a bounded sequence of
// upstream attempts:
//
//   - The body is buffered once (capped), so an attempt can be replayed
//     without trusting the client to resend — and so user-keyed
//     endpoints can parse the routing key before picking a backend.
//   - User-keyed requests (/consume, /recommend/user) route to the
//     partition owning shard.UserShard(user, P). A flat P=1 fleet
//     skips the key parse entirely — the pre-partitioning fast path.
//   - The request runs under min(router default, X-RRC-Deadline-Ms);
//     every attempt is additionally bounded by TryTimeout and carries
//     the remaining budget downstream in the same header.
//   - A user-keyed read goes to its partition's write target first and
//     falls back to that partition's other nodes; a stateless read
//     spreads over the whole fleet. Either retries across distinct
//     nodes on 429/503/412/421/5xx or any transport error. Writes
//     re-pick the partition's write target after a short backoff, and
//     retry ONLY outcomes that provably never applied: dial-level
//     transport errors (the request never left) and 429/503/412/421
//     (the contract says "not durable"). Anything ambiguous — an error
//     after the request was sent — is answered 502 without a retry,
//     because replaying it could double-apply.
//   - Every retry spends the client's retry budget; when the
//     budget or MaxAttempts runs out the router forwards the last
//     definitive backend response, else sheds 503 + Retry-After.
package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"tsppr/internal/shard"
)

// maxProxyBody caps buffered request and response bodies (16 MiB —
// far above any real /recommend/batch, small enough to bound memory
// per in-flight request).
const maxProxyBody = 1 << 24

// upstreamResult is one fully buffered backend response, decoupled
// from the backend connection so it can be held as "last definitive
// answer" or be forwarded after the upstream round trip finished.
type upstreamResult struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

// routePlan is one request's placement decision, taken once before the
// attempt loop: whether the endpoint is user-keyed, and which partition
// owns the key.
type routePlan struct {
	keyed   bool // user-keyed endpoint, at every P
	partIdx int  // owning partition (0 at P=1 and when !keyed)
}

// routePlan places one request. Flat fleets (P=1) never parse the body
// — the one partition owns every key. The error return is a client
// error: a partitioned fleet cannot place a request whose user key it
// cannot read.
func (rt *Router) routePlan(keyed bool, body []byte) (routePlan, error) {
	p := rt.P()
	if !keyed || p <= 1 {
		return routePlan{keyed: keyed}, nil
	}
	user, err := userKey(body)
	if err != nil {
		return routePlan{}, err
	}
	return routePlan{keyed: true, partIdx: shard.UserShard(user, p)}, nil
}

// proxy builds the handler for one proxied endpoint. keyed endpoints
// route by the request's user field when the fleet is partitioned.
func (rt *Router) proxy(endpoint string, isWrite, keyed bool) http.Handler {
	em := rt.endpointMetrics(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := rt.serveProxy(w, r, endpoint, isWrite, keyed)
		em.observe(code, start)
	})
}

// serveProxy runs the attempt loop and returns the status it wrote.
func (rt *Router) serveProxy(w http.ResponseWriter, r *http.Request, endpoint string, isWrite, keyed bool) int {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("reading request body: %w", err))
		return code
	}

	plan, err := rt.routePlan(keyed, body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest
	}

	deadline := rt.cfg.Deadline
	if hd, ok := parseDeadlineMs(r.Header.Get(DeadlineHeader)); ok && hd < deadline {
		deadline = hd
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	client := clientKey(r)
	rt.budget.arrive(client)

	if isWrite {
		return rt.proxyWrite(ctx, w, endpoint, body, client, plan)
	}
	return rt.proxyRead(ctx, w, endpoint, body, client, plan)
}

// proxyWrite is the /consume attempt loop, scoped to the owning
// partition: only its nodes are ever write targets, and only its
// epoch is stamped.
func (rt *Router) proxyWrite(ctx context.Context, w http.ResponseWriter, endpoint string, body []byte, client string, plan routePlan) int {
	var last *upstreamResult
	attempts := 0
	for ctx.Err() == nil {
		n := writeTargetIn(rt.partNodes(plan.partIdx))
		if n == nil {
			break // shed below; the prober (or a promotion) must restore a target
		}
		res, err := rt.attempt(ctx, n, endpoint, body)
		attempts++
		if err != nil {
			if !dialError(err) {
				// The request may have reached the backend: the write's
				// outcome is unknown and a replay could double-apply.
				// Surface the ambiguity; idempotency belongs to the caller.
				werr := fmt.Errorf("write outcome unknown (%s): %v", n.url, err)
				writeError(w, http.StatusBadGateway, werr)
				return http.StatusBadGateway
			}
			// Dial-level failure: the request never left this process, so
			// a retry cannot double-apply.
		} else {
			last = res
			if !retryableStatus(res.status, false) {
				return rt.forward(w, res)
			}
			switch res.status {
			case http.StatusPreconditionFailed:
				// The fence body carries the node's true epoch. Fold it in
				// now: re-attempting with the same stale view would just
				// re-fail every retry until the next probe round.
				rt.foldFence(n, res.body)
			case http.StatusMisdirectedRequest:
				// The node refused ownership of this key — the write
				// provably did not apply. Fold the misconfiguration in so
				// the re-pick skips the node (and the operator hears about
				// it), rather than hammering the same wrong door.
				rt.foldMisdirect(n, res.body)
			}
		}
		if attempts >= rt.cfg.MaxAttempts || !rt.budget.spend(client) {
			break
		}
		rt.retries.Inc()
		select {
		case <-ctx.Done():
		case <-time.After(rt.cfg.RetryBackoff):
		}
	}
	if last != nil {
		return rt.forward(w, last)
	}
	return rt.shedRequest(w, fmt.Sprintf("no write target for partition %d", plan.partIdx))
}

// proxyRead is the read attempt loop: distinct nodes per attempt (the
// tried set).
func (rt *Router) proxyRead(ctx context.Context, w http.ResponseWriter, endpoint string, body []byte, client string, plan routePlan) int {
	tried := map[*node]bool{}
	var last *upstreamResult
	attempts := 0
	for ctx.Err() == nil {
		n := rt.readTarget(plan, tried)
		if n == nil {
			break
		}
		tried[n] = true
		res, err := rt.attempt(ctx, n, endpoint, body)
		attempts++
		if err == nil {
			last = res
			if !retryableStatus(res.status, true) {
				return rt.forward(w, res)
			}
			if res.status == http.StatusMisdirectedRequest {
				// The node owns a different slice than the topology says:
				// fold it out and fall through to the other candidates.
				rt.foldMisdirect(n, res.body)
			}
		}
		if attempts >= rt.cfg.MaxAttempts || !rt.budget.spend(client) {
			break
		}
		rt.retries.Inc()
	}
	if last != nil {
		return rt.forward(w, last)
	}
	return rt.shedRequest(w, "no backend answered")
}

// attempt makes one upstream round trip, bounded by TryTimeout within
// the request deadline, and buffers the whole response. The outbound
// request carries the epoch of the node's own partition (fencing any
// deposed node before it can ack a write — and never cross-fencing
// another partition's timeline) and the attempt's remaining deadline.
func (rt *Router) attempt(ctx context.Context, n *node, endpoint string, body []byte) (*upstreamResult, error) {
	tctx, cancel := context.WithTimeout(ctx, rt.cfg.TryTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodPost, n.url+endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if e := rt.epochForNode(n); e > 0 {
		req.Header.Set("X-RRC-Epoch", strconv.FormatUint(e, 10))
	}
	if dl, ok := tctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return nil, fmt.Errorf("reading %s response: %w", n.url, err)
	}
	return &upstreamResult{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        buf,
	}, nil
}

// retryableStatus classifies a backend status. 429/503 mean "not done,
// come back" by contract (shed, breaker, draining, recovering); 412 is
// an epoch fence and 421 an ownership refusal (both prove the request
// did not apply — re-pick and retry). Reads may additionally retry any
// 5xx: they are idempotent, so a different node is always worth one
// more try.
func retryableStatus(status int, isRead bool) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusPreconditionFailed, http.StatusMisdirectedRequest:
		return true
	}
	return isRead && status >= http.StatusInternalServerError
}

// dialError reports whether err happened at connection establishment —
// the one transport failure mode that proves the request was never
// sent, making a write retry safe.
func dialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// forward replays a buffered backend response to the client,
// preserving its Retry-After (or deriving one for backoff statuses
// that lack it, so every 429/503 through the router is schedulable).
func (rt *Router) forward(w http.ResponseWriter, res *upstreamResult) int {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	ra := res.retryAfter
	if ra == "" && (res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable) {
		ra = rt.retryAfterHint()
	}
	if ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
	return res.status
}

// shedRequest answers 503 locally: no backend produced even a
// definitive error within the deadline, attempts, and budget.
func (rt *Router) shedRequest(w http.ResponseWriter, why string) int {
	rt.shed.Inc()
	w.Header().Set("Retry-After", rt.retryAfterHint())
	writeError(w, http.StatusServiceUnavailable, errors.New(why))
	return http.StatusServiceUnavailable
}
