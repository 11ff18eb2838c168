package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tsppr/internal/core"
	"tsppr/internal/features"
	"tsppr/internal/linalg"
	"tsppr/internal/rec"
	"tsppr/internal/seq"
)

// parentGolden holds a model written by commit 6c4bf43's Model.SaveFile,
// request bodies for the two stateless endpoints, and the exact replies
// that commit's server wrote for them ("<status>\n<body>") at |W| = 20,
// Ω = 3. The bodies cover history lengths 1, Ω, |W|−1, |W|, |W|+1 and
// beyond, Ω and n overrides, every validation error, and the inputs the
// request scanner declines (upper-case, escaped and duplicate keys, null,
// 1.0, 1e2, 01, -0, overflow, trailing bytes, a BOM).
const parentGolden = "testdata/parent-6c4bf43"

// goldenModel is the model under parentGolden, loaded for serving.
func goldenModel(t testing.TB) *core.Model {
	t.Helper()
	m, err := core.LoadServingFile(filepath.Join(parentGolden, "model.tsppr"))
	if err == nil {
		err = m.Validate()
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenBodies returns the request bodies under parentGolden/dir, keyed
// by file name.
func goldenBodies(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(parentGolden, dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden bodies under %s: %v", dir, err)
	}
	bodies := make(map[string][]byte, len(files))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		bodies[f] = b
	}
	return bodies
}

// statelessEndpoints maps each golden directory to the endpoint its
// bodies are posted to.
var statelessEndpoints = map[string]string{"recommend": "/recommend", "batch": "/recommend/batch"}

// TestStatelessRepliesMatchParent: every golden body gets the reply the
// parent wrote, byte for byte — status, fan-out order, float formatting
// and error text.
func TestStatelessRepliesMatchParent(t *testing.T) {
	h := newNode(t, goldenModel(t), "")
	for dir, path := range statelessEndpoints {
		for f, body := range goldenBodies(t, dir) {
			want, err := os.ReadFile(strings.TrimSuffix(f, ".json") + ".reply")
			if err != nil {
				t.Fatal(err)
			}
			rr := send(h, "POST "+path, body)
			if got := fmt.Sprintf("%d\n%s", rr.Code, rr.Body.Bytes()); got != string(want) {
				t.Errorf("%s: reply\n%s\nwant\n%s", f, got, want)
			}
		}
	}
}

// jsonDecode is the reference decoder: what every stateless body went
// through before the scanner, and what a declined body still goes
// through. cmd/rrc-server's FuzzDecodeRecommend holds DecodeBody to it.
func jsonDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// TestStatelessBodyCap: a body over its endpoint's cap is 413 wherever
// its JSON ends; a body of exactly the cap is decoded.
func TestStatelessBodyCap(t *testing.T) {
	h := newNode(t, goldenModel(t), "")
	for path, c := range map[string]struct {
		limit int
		body  string
	}{
		"/recommend":       {1 << 22, `{"user":0,"history":[1,2,3]}`},
		"/recommend/batch": {1 << 24, `{"requests":[{"user":0,"history":[1,2,3]}]}`},
	} {
		body := append([]byte(c.body), bytes.Repeat([]byte{' '}, c.limit-len(c.body))...)
		expect(t, http.StatusOK, h, "POST "+path, body)
		rr := send(h, "POST "+path, append(body, ' '))
		if want := fmt.Sprintf(`{"error":"request body over %d bytes"}`+"\n", c.limit); rr.Code != http.StatusRequestEntityTooLarge || rr.Body.String() != want {
			t.Fatalf("%s one byte over the cap: %d %s", path, rr.Code, rr.Body.String())
		}
	}
}

// TestRestoredWindowMatchesPushReplay: the window recommend restores from
// a history's last |W| events ranks exactly like the parent's, which
// pushed every history item into a fresh window — same items,
// Float64bits-identical scores — over 500 random histories of 1..4·|W|
// items and Ω ∈ {0, 3, |W|−1}.
func TestRestoredWindowMatchesPushReplay(t *testing.T) {
	srv := newNode(t, goldenModel(t), "")
	eng := srv.eng.Load()
	m := eng.Model()
	capW := m.Extractor.WindowCap()
	rng := rand.New(rand.NewSource(30))
	const pool = 30 // items per history: enough repeats for candidates
	for trial := 0; trial < 500; trial++ {
		omega := []int{0, 3, capW - 1}[trial%3]
		base := rng.Intn(m.NumItems() - pool)
		req := recommendRequest{User: rng.Intn(m.NumUsers()), History: make([]int, 1+rng.Intn(4*capW)), N: 1 + rng.Intn(capW), Omega: &omega}
		win := seq.NewWindow(capW)
		for i := range req.History {
			req.History[i] = base + rng.Intn(pool)
			win.Push(seq.Item(req.History[i]))
		}
		got, err := srv.recommend(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want := eng.Recommend(&rec.Context{User: req.User, Window: win, Omega: omega}, req.N, nil)
		if len(got.Items) != len(want) {
			t.Fatalf("trial %d: got %+v, want %v", trial, got, want)
		}
		for i, sc := range want {
			if got.Items[i] != int(sc.Item) || math.Float64bits(got.Scores[i]) != math.Float64bits(sc.Score) {
				t.Fatalf("trial %d, rank %d: got (%d, %v), want (%d, %v)", trial, i, got.Items[i], got.Scores[i], sc.Item, sc.Score)
			}
		}
	}
}

// The batch_stateless workload's shape: |W| = 100, Ω = 10, K = 40, F = 4,
// 64 entries of 100-item histories.
const (
	shapeUsers, shapeItems = 1000, 2000
	shapeWindow, shapeK    = 100, 40
	shapeEntries           = 64
)

// shapeModel is a seeded random model at the batch_stateless shape.
func shapeModel(tb testing.TB) *core.Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	gauss := func(rows, cols int) *linalg.Matrix {
		m := linalg.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = 0.1 * rng.NormFloat64()
		}
		return m
	}
	quality, reratio := make([]float64, shapeItems), make([]float64, shapeItems)
	for i := range quality {
		quality[i], reratio[i] = rng.Float64(), rng.Float64()
	}
	ex, err := features.FromTables(features.AllFeatures, features.Hyperbolic, shapeWindow, 10, quality, reratio)
	if err != nil {
		tb.Fatal(err)
	}
	m := &core.Model{K: shapeK, F: ex.Dim(), MapType: core.PerUserMap, U: gauss(shapeUsers, shapeK), V: gauss(shapeItems, shapeK), Extractor: ex}
	for u := 0; u < shapeUsers; u++ {
		m.A = append(m.A, gauss(shapeK, ex.Dim()))
	}
	if err := m.Validate(); err != nil {
		tb.Fatal(err)
	}
	return m
}

// shapeBody is a batch_stateless request body: each history draws from a
// 40-item personal pool, so about 30 candidates survive Ω.
func shapeBody() []byte {
	rng := rand.New(rand.NewSource(2))
	body := []byte(`{"requests":[`)
	for e := 0; e < shapeEntries; e++ {
		if e > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"user":`...)
		body = strconv.AppendInt(body, int64(rng.Intn(shapeUsers)), 10)
		body = append(body, `,"history":[`...)
		base := rng.Intn(shapeItems - 40)
		for j := 0; j < shapeWindow; j++ {
			if j > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendInt(body, int64(base+rng.Intn(40)), 10)
		}
		body = append(body, `],"n":10}`...)
	}
	return append(body, `]}`...)
}

// TestDecodeBatchAllocs pins the decode of a batch_stateless body — read,
// then scan — at ≤ 80 allocations (encoding/json takes 555): one per
// history, the requests slice's growth, and the body buffer.
func TestDecodeBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented builds allocate differently; the pin is for the plain binary")
	}
	body := shapeBody()
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/recommend/batch", rd)
	w := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		r.Body = io.NopCloser(rd)
		var req batchRequest
		if code, err := decodeStateless(w, r, 1<<24, &req); err != nil || len(req.Requests) != shapeEntries {
			t.Fatalf("decode: %d %v, %d entries", code, err, len(req.Requests))
		}
	})
	if allocs > 80 {
		t.Fatalf("decoding a %d-entry batch took %.0f allocations, want ≤ 80", shapeEntries, allocs)
	}
}

var decodeSink batchRequest

// BenchmarkDecodeBatch: a batch_stateless body through encoding/json
// (the fallback) and through the scanner.
func BenchmarkDecodeBatch(b *testing.B) {
	body := shapeBody()
	for _, c := range []struct {
		name   string
		decode func([]byte, any) error
	}{{"encoding_json", jsonDecode}, {"scanner", DecodeBody}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				decodeSink = batchRequest{}
				if err := c.decode(body, &decodeSink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHandleBatch: one batch_stateless request through the hardened,
// instrumented handler — decode, 64 windows, fan-out scoring, encode.
func BenchmarkHandleBatch(b *testing.B) {
	h := newNode(b, shapeModel(b), "")
	body := shapeBody()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rr := send(h, "POST /recommend/batch", body); rr.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
	}
}
