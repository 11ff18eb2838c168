package sessions

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"testing"
)

// reseal rewrites file's header so its CRC and session count match the
// body it carries, letting mutated bodies reach the decoder's verdict
// instead of dying at the CRC. nil when file has no parseable header.
func reseal(file []byte) []byte {
	hdrLine, body, ok := bytes.Cut(file, []byte("\n"))
	if !ok {
		return nil
	}
	var hdr snapHeader
	if json.Unmarshal(hdrLine, &hdr) != nil {
		return nil
	}
	hdr.BodyCRC = crc32.Checksum(body, snapCRC)
	hdr.Users = bytes.Count(body, []byte("\n"))
	b, err := json.Marshal(hdr)
	if err != nil {
		return nil
	}
	return append(append(b, '\n'), body...)
}

// FuzzLoadSnapshot: a snapshot is read back at every boot and after every
// reseed download, so its loader faces whatever a crash, bit rot or a
// network left behind. Whatever the bytes, loading must not panic, must
// not allocate past a fixed budget per line at the configured window
// capacity (a line claiming a million items is refused, not decoded), and
// a file it accepts must survive Capture().Write and a reload unchanged.
func FuzzLoadSnapshot(f *testing.F) {
	golden, err := os.ReadFile(parentSnapshot)
	if err != nil {
		f.Fatal(err)
	}
	hdr, _, _ := bytes.Cut(golden, []byte("\n"))
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(reseal(append(bytes.Clone(golden), `{"u":17,"t":1,"w":[1]}`+"\n"...))) // user twice
	f.Add(reseal([]byte(string(hdr) + "\n" + `{"u":1,"t":9,"w":[1,2,3,4,5]}` + "\n")))
	var many strings.Builder
	for u := 0; u < 200; u++ {
		fmt.Fprintf(&many, `{"u":%d,"t":7,"w":[1,2,3,4,%d]}`+"\n", u, u)
	}
	f.Add(reseal([]byte(string(hdr) + "\n" + many.String())))
	f.Add(reseal([]byte(string(hdr) + "\n" + `{"u":1,"t":200000,"w":[` +
		strings.Repeat("1,", 4_000) + "1]}\n"))) // one huge line

	cfg := Config{WindowCap: 5}
	const (
		loadSlack = 16 << 10 // store, reader, error text
		lineAlloc = 2 << 10  // one decoded session at WindowCap 5
	)
	load := func(t *testing.T, data []byte) *Store {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, _, err := readSnapshot(bytes.NewReader(data), "fuzz", cfg)
		runtime.ReadMemStats(&after)
		lines := bytes.Count(data, []byte("\n")) + 1
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(loadSlack+lines*lineAlloc) {
			t.Fatalf("loading %d B in %d line(s) allocated %d B", len(data), lines, alloc)
		}
		if err != nil {
			return nil
		}
		return s
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		for _, data := range [][]byte{file, reseal(file)} {
			if data == nil {
				continue
			}
			s := load(t, data)
			if s == nil {
				continue
			}
			path, _, err := s.Capture().Write(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			again, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s2 := load(t, again)
			if s2 == nil {
				t.Fatalf("re-written snapshot of an accepted file is refused:\n%s", again)
			}
			if got, want := fingerprint(t, s2), fingerprint(t, s); got != want {
				t.Fatalf("round trip changed the sessions\n got %s\nwant %s", got, want)
			}
		}
	})
}
