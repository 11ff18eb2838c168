package shard

import (
	"fmt"
	"testing"
)

// FuzzParsePartitionID: the parser guards the X-RRC-Partition handshake
// and rrc-server -partition, so it must never panic, and whatever it
// accepts is a valid identity written exactly as String renders it (or
// as the i/c short form of generation 0).
func FuzzParsePartitionID(f *testing.F) {
	for _, s := range []string{
		"0/1", "2/3", "1/4@7", "1/3@0", "", "3", "3/2", "-1/2", "a/b", "1/2@-1",
		"1/3@2garbage", "1/3xyz", "1/3@", " 1/3", "+1/3", "01/3", "1/3@2@4",
		"9223372036854775808/1", "1//3", "@", "/",
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
		short := p.Generation == 0 && s == fmt.Sprintf("%d/%d", p.Index, p.Count)
		if s != p.String() && !short {
			t.Fatalf("accepted %q, which is neither %q nor its i/c short form", s, p)
		}
	})
}
