package replica_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tsppr/internal/replica"
)

// FuzzLoadMeta: the epoch marker is read at every boot, and the same
// Meta arrives over the network in a 412 ErrorBody.Meta, where it feeds
// Adopt and DivergenceLSN. Whatever the bytes, LoadMeta must not panic;
// a meta it accepts survives Store then LoadMeta, adopts itself, and
// answers DivergenceLSN for every shard of a small pool without panic.
func FuzzLoadMeta(f *testing.F) {
	for _, s := range []string{
		`{"epoch":0}`,
		`{"epoch":4,"history":[{"epoch":1,"bases":[31,12]},{"epoch":4,"bases":[40,19]}]}`,
		`{"epoch":2,"history":[{"epoch":2,"bases":[]}]}`, `{"epoch":2,"history":[]}`,
		`{"epoch":1,"history":[{"epoch":2,"bases":[1]}]}`,
		`{"epoch":3,"history":[{"epoch":2},{"epoch":2}]}`,
		`{"epoch":18446744073709551615,"history":[{"epoch":18446744073709551615,"bases":[18446744073709551615]}]}`,
		`{"epoch":-1}`, `{"epoch":1e3}`, `{"history":{}}`, `null`, ``, `{`, `[]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, replica.MetaFile), b, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := replica.LoadMeta(dir)
		if err != nil {
			return
		}
		for i := 0; i < 8; i++ {
			for _, since := range []uint64{0, 1, m.Epoch} {
				m.DivergenceLSN(i, since)
			}
		}
		if _, err := m.Adopt(m); err != nil {
			t.Fatalf("meta %q does not adopt itself: %v", b, err)
		}
		back := t.TempDir()
		if err := m.Store(back); err != nil {
			t.Fatal(err)
		}
		again, err := replica.LoadMeta(back)
		if err != nil {
			t.Fatalf("meta %q stored as something LoadMeta refuses: %v", b, err)
		}
		// Compared encoded: an empty history and none are the same meta.
		want, _ := json.Marshal(m)
		got, _ := json.Marshal(again)
		if string(got) != string(want) {
			t.Fatalf("meta %q: %s stored and reloaded as %s", b, want, got)
		}
	})
}
