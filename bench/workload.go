package main

import (
	"fmt"
	"strconv"

	"tsppr/internal/rngutil"
	"tsppr/internal/seq"
)

// opKind classifies one HTTP request for the per-type latency figures.
type opKind uint8

const (
	kindRead  opKind = iota // POST /recommend/user or /recommend/batch
	kindWrite               // POST /consume
)

// request is one generated HTTP request plus what the oracle needs to
// judge its answer.
type request struct {
	kind  opKind
	path  string
	body  []byte
	user  int      // the keyed user; unused by batch
	item  seq.Item // the consumed item of a write
	users []int    // batch only: the user of every entry, in order
}

// workload is one named traffic mix. An op is the workload's unit of
// work — one request, or for session the consume→recommend pair — and
// is what op_p95_ms and client.op_p50_ms time.
type workload struct {
	name       string
	why        string  // one line, repeated in BENCHMARK.json
	zipfS      float64 // user-popularity skew
	replicated bool    // boot a -follow standby behind the router
	warmupOps  int     // ops issued (over all clients) before the window opens
	gen        func(s *stream) []request
}

// batchEntries × windowCap item ids is the ≈30 KB body of one
// /recommend/batch request.
const batchEntries = 64

// workloads are fixed: the names are the benchmark's contract.
var workloads = []workload{
	{
		name:      "read_hot",
		why:       "100% cached-able reads, Zipf 1.2: router, server HTTP/JSON and rescache do the work; engine, WAL, replica almost none",
		zipfS:     1.2,
		warmupOps: 4000,
		gen: func(s *stream) []request {
			return []request{s.recommend(s.drawUser())}
		},
	},
	{
		name:      "session",
		why:       "consume then recommend for the same user, fsync always: every read misses, so WAL, shard ingest+clone and engine work while each cache fill is wasted",
		zipfS:     1.0,
		warmupOps: 600,
		gen: func(s *stream) []request {
			u := s.drawUser()
			return []request{s.consume(u), s.recommend(u)}
		},
	},
	{
		name:       "ingest_replicated",
		why:        "100% consumes with one -follow standby behind the router: WAL fsync and replica streaming do the work, no reads",
		zipfS:      1.0,
		replicated: true,
		warmupOps:  800,
		gen: func(s *stream) []request {
			return []request{s.consume(s.drawUser())}
		},
	},
	{
		name:      "batch_stateless",
		why:       "64-entry x 100-item /recommend/batch, no server state: JSON codec, window replay and engine fan-out work; shard, rescache, WAL, replica are bypassed",
		zipfS:     1.0,
		warmupOps: 200,
		gen: func(s *stream) []request {
			return []request{s.batch()}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scatter is the fixed multiplier that spreads Zipf ranks over user ids
// (rank·scatter mod users), so the hot users are not ids 0,1,2… and do
// not share a shard. It is prime, hence a bijection for any user count
// it does not divide.
const scatter = 7919

// stream is one client's deterministic request sequence: a pure
// function of (fixture, workload, seed, client, clients). Client c only
// ever draws users with id % clients == c, so it is the sole writer of
// their windows and its oracle mirror of them is exact.
type stream struct {
	fx      *fixture
	w       workload
	rng     *rngutil.RNG
	zipf    *rngutil.Zipf
	client  int
	clients int
}

func newStream(fx *fixture, w workload, seed int64, client, clients int) *stream {
	rng := rngutil.New(uint64(seed)*0xbf58476d1ce4e5b9 + uint64(client) + 1)
	return &stream{
		fx: fx, w: w, rng: rng,
		zipf:   rngutil.NewZipf(rng.Split(), fx.users, w.zipfS),
		client: client, clients: clients,
	}
}

// next returns the requests of the next op.
func (s *stream) next() []request { return s.w.gen(s) }

// drawUser samples the global Zipf until it lands on one of this
// client's users.
func (s *stream) drawUser() int {
	for {
		u := s.zipf.Draw() * scatter % s.fx.users
		if u%s.clients == s.client {
			return u
		}
	}
}

func (s *stream) recommend(u int) request {
	body := append([]byte(`{"user":`), strconv.Itoa(u)...)
	body = append(body, `,"n":`+strconv.Itoa(topN)+`}`...)
	return request{kind: kindRead, path: "/recommend/user", body: body, user: u}
}

// consume re-consumes an item of the user's own fixture window, so the
// window keeps its shape (≈30 candidates beyond Ω) however long the
// stream runs.
func (s *stream) consume(u int) request {
	item := s.fx.window(u)[s.rng.Intn(windowCap)]
	return request{
		kind: kindWrite, path: "/consume", user: u, item: item,
		body: []byte(fmt.Sprintf(`{"user":%d,"item":%d}`, u, item)),
	}
}

// batch ships batchEntries users' whole fixture windows as histories.
func (s *stream) batch() request {
	req := request{kind: kindRead, path: "/recommend/batch", users: make([]int, batchEntries)}
	body := make([]byte, 0, 40<<10)
	body = append(body, `{"requests":[`...)
	for i := range req.users {
		u := s.drawUser()
		req.users[i] = u
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"user":`...)
		body = strconv.AppendInt(body, int64(u), 10)
		body = append(body, `,"history":[`...)
		for j, it := range s.fx.window(u) {
			if j > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendInt(body, int64(it), 10)
		}
		body = append(body, `],"n":`+strconv.Itoa(topN)+`}`...)
	}
	req.body = append(body, `]}`...)
	return req
}
