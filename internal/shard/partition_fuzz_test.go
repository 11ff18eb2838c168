package shard

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParsePartitionID: the parser guards the X-RRC-Partition handshake
// and rrc-server -partition, so it must never panic, and whatever it
// accepts is a valid identity written exactly as String renders it.
func FuzzParsePartitionID(f *testing.F) {
	for _, s := range []string{
		"0/1", "2/3", "0/0", "1/1", "", "3", "3/2", "-1/2", "a/b", "1/-2",
		"1/3\n", "1/3xyz", "1/3/", " 1/3", "+1/3", "01/3", "1/03",
		"9223372036854775808/1", "1//3", "0x1/2", "/",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePartitionID(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted %q as invalid %+v: %v", s, p, err)
		}
		if rt, err := ParsePartitionID(p.String()); err != nil || rt != p {
			t.Fatalf("%q parsed to %+v, which round-trips to %+v (%v)", s, p, rt, err)
		}
		if s != p.String() {
			t.Fatalf("accepted %q, which is not %q", s, p)
		}
	})
}

// FuzzLoadPartition: the partition marker is read at every Open, and an
// operator may edit it by hand. Whatever its bytes, LoadPartition must
// not panic, a marker it accepts is a valid identity, and Store then
// LoadPartition gives that identity back unchanged. Markers from builds
// that recorded a resize "generation" load; the field is ignored.
func FuzzLoadPartition(f *testing.F) {
	for _, s := range []string{
		`{"partition":0,"partitions":1,"generation":0}`,
		"{\n  \"partition\": 1,\n  \"partitions\": 3,\n  \"generation\": 2\n}\n",
		`{"PARTITION":0,"Partitions":1}`, `{"partition":3,"partitions":2}`,
		`{"partition":-1,"partitions":2}`, `{"partitions":0}`, `{"partition":1.5,"partitions":2}`,
		`{"partition":0,"partitions":1,"generation":-1}`, `{"partitions":9223372036854775808}`,
		`null`, ``, `{`, `[]`, `"0/1"`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, PartitionMarker), b, 0o644); err != nil {
			t.Fatal(err)
		}
		p, ok, err := LoadPartition(dir)
		if err != nil {
			return
		}
		if !ok {
			t.Fatalf("marker %q read as absent", b)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted marker %q as invalid %+v: %v", b, p, err)
		}
		back := t.TempDir()
		if err := p.Store(back); err != nil {
			t.Fatal(err)
		}
		if again, ok, err := LoadPartition(back); err != nil || !ok || again != p {
			t.Fatalf("marker %q: %+v stored and reloaded as %+v (ok=%v, %v)", b, p, again, ok, err)
		}
	})
}
