package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tsppr/internal/core"
	"tsppr/internal/serve"
)

// parentGolden is the golden set internal/serve's
// TestStatelessRepliesMatchParent replays: a model written by commit
// 6c4bf43's Model.SaveFile and request bodies for the two stateless
// endpoints, here the fuzz target's seeds.
const parentGolden = "../../internal/serve/testdata/parent-6c4bf43"

// statelessEndpoints maps each golden directory to the endpoint its
// bodies are posted to.
var statelessEndpoints = map[string]string{"recommend": "/recommend", "batch": "/recommend/batch"}

// goldenServer is a node serving the golden model, closed at cleanup.
func goldenServer(t testing.TB) *serve.Server {
	t.Helper()
	m, err := core.LoadServingFile(filepath.Join(parentGolden, "model.tsppr"))
	if err == nil {
		err = m.Validate()
	}
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(m, serve.Options{EventsDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(0) })
	return srv
}

// goldenBodies returns the request bodies under parentGolden/dir.
func goldenBodies(t testing.TB, dir string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(parentGolden, dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden bodies under %s: %v", dir, err)
	}
	var bodies [][]byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	return bodies
}

// jsonDecode is the reference decoder: what every stateless body went
// through before the scanner, and what a declined body still goes
// through.
func jsonDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// FuzzDecodeRecommend is a differential fuzz target against
// encoding/json: serve.DecodeBody never panics and, on every input,
// succeeds exactly when encoding/json does, with a DeepEqual value — so
// whatever the scanner accepts, encoding/json accepts into the same
// value, and a scanner that declines part-way leaves nothing behind. Both
// endpoints answer any body under their cap 200 or 400: never 413, never
// a 500.
func FuzzDecodeRecommend(f *testing.F) {
	for dir := range statelessEndpoints {
		for _, body := range goldenBodies(f, dir) {
			// The 260 KB over-cap history stays out: the mutator would
			// spend its time minimising it. The golden test covers it.
			if len(body) <= 64<<10 {
				f.Add(body)
			}
		}
	}
	for _, body := range []string{
		`{"User":1,"history":[1,2]}`,
		`{"\` + `u0075ser":1,"history":[1,2]}`,
		`{"requests":[{"user":1,"history":[1,2],"omega":null}]}`,
		`{"user":null,"history":[1]}`,
		`{"requests":null}`,
		`{"user":1,"history":[1],"user":2}`,
		`{"user":1,"history":[1],"n":1.0}`,
		`{"user":1,"history":[1],"n":1e2}`,
		`{"user":01,"history":[1]}`,
		`{"user":-0,"history":[1]}`,
		`{"user":1,"history":[12345678901234567890]}`,
		`{"requests":[{"user":1,"history":[999999999999999999,-999999999999999999]}]}`,
		`{"user":1,"history":[1]} trailing`,
		`{"user" 1,"history":[1]}`,
		`{"user":1,"history":[1] "n":2}`,
		"\xef\xbb\xbf{\"user\":1,\"history\":[1]}",
		`{"requests":[]}`,
		`{"requests":[{}]}`,
		`{}`,
		` { "user" : 1 , "history" : [ 1 , 2 ] } ` + "\n",
	} {
		f.Add([]byte(body))
	}
	h := goldenServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, pair := range [][2]any{{&serve.RecommendRequest{}, &serve.RecommendRequest{}}, {&serve.BatchRequest{}, &serve.BatchRequest{}}} {
			got, want := serve.DecodeBody(body, pair[0]), jsonDecode(body, pair[1])
			if (got == nil) != (want == nil) || !reflect.DeepEqual(pair[0], pair[1]) {
				t.Fatalf("%q: DecodeBody %v %#v, encoding/json %v %#v", body, got, pair[0], want, pair[1])
			}
		}
		for _, path := range statelessEndpoints {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rr.Code != http.StatusOK && rr.Code != http.StatusBadRequest {
				t.Fatalf("%s %q: status %d: %s", path, body, rr.Code, rr.Body.String())
			}
		}
	})
}
