// Per-client retry budget: the gRPC-style token bucket that makes
// retry storms structurally impossible. Every incoming request earns
// its client `ratio` tokens (banked up to `burst`); every retry spends
// one whole token. Under a fully down backend a client issuing R
// requests therefore drives at most R×(1+ratio)+burst upstream
// attempts — amplification is bounded by configuration, not by luck. Clients are keyed by X-RRC-Client (or remote IP), so one
// misbehaving caller exhausting its budget cannot spend anyone else's.
//
// The ledger itself is bounded: the key is client-controlled, so a
// caller minting a fresh identity per request would otherwise grow the
// map without limit. Entries live in an LRU capped at maxClients; the
// least-recently-seen client is evicted at the cap. Eviction only ever
// discards banked tokens (an evicted client that returns restarts from
// an empty balance), so the amplification bound above still holds — a
// recycled identity earns strictly no more than a persistent one.
package router

import (
	"container/list"
	"sync"

	"tsppr/internal/obs"
)

// defaultMaxBudgetClients bounds distinct clients tracked at once. At
// two floats plus a key per entry this is a few hundred KiB worst case,
// while staying far above any realistic concurrent-caller count — an
// honest client is effectively never evicted.
const defaultMaxBudgetClients = 4096

type retryBudget struct {
	ratio      float64
	burst      float64
	maxClients int
	// evictions, when non-nil, counts LRU evictions at the client cap
	// (rrc_router_budget_evictions_total) — sustained growth here means
	// a caller is minting fresh identities per request.
	evictions *obs.Counter

	mu      sync.Mutex
	clients map[string]*list.Element // value: *budgetEntry
	lru     *list.List               // front = most recently seen
}

type budgetEntry struct {
	key    string
	tokens float64
}

func newRetryBudget(ratio, burst float64) *retryBudget {
	return &retryBudget{
		ratio:      ratio,
		burst:      burst,
		maxClients: defaultMaxBudgetClients,
		clients:    map[string]*list.Element{},
		lru:        list.New(),
	}
}

// touch finds or creates the client's entry, marking it most recently
// seen and evicting the coldest client past the cap. Caller holds b.mu.
func (b *retryBudget) touch(client string) *budgetEntry {
	if el, ok := b.clients[client]; ok {
		b.lru.MoveToFront(el)
		return el.Value.(*budgetEntry)
	}
	e := &budgetEntry{key: client}
	b.clients[client] = b.lru.PushFront(e)
	for len(b.clients) > b.maxClients {
		cold := b.lru.Back()
		b.lru.Remove(cold)
		delete(b.clients, cold.Value.(*budgetEntry).key)
		if b.evictions != nil {
			b.evictions.Inc()
		}
	}
	return e
}

// arrive credits a client for one incoming request.
func (b *retryBudget) arrive(client string) {
	b.mu.Lock()
	e := b.touch(client)
	e.tokens += b.ratio
	if e.tokens > b.burst {
		e.tokens = b.burst
	}
	b.mu.Unlock()
}

// spend tries to consume one retry token; false means the budget is
// exhausted and the caller must give up rather than re-attempt.
func (b *retryBudget) spend(client string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	el, ok := b.clients[client]
	if !ok {
		return false
	}
	b.lru.MoveToFront(el)
	e := el.Value.(*budgetEntry)
	if e.tokens < 1 {
		return false
	}
	e.tokens--
	return true
}

// tokens reports a client's current balance (tests).
func (b *retryBudget) tokens(client string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.clients[client]; ok {
		return el.Value.(*budgetEntry).tokens
	}
	return 0
}

// size reports the tracked-client count (tests).
func (b *retryBudget) size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.clients)
}
