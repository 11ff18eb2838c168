package router

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseTopology: the topology file is outside input, re-read on
// every stamp change of a file an operator edits by hand. Whatever the
// bytes, the parser must not panic, and a document it accepts and
// Validate passes must own every key exactly once (no empty partition,
// no URL in two partitions) and survive being printed in the
// partitioned format and parsed again.
func FuzzParseTopology(f *testing.F) {
	f.Add(goodTopologyDoc)
	for _, doc := range badTopologyDocs {
		f.Add(doc)
	}
	for _, doc := range []string{
		"partitions 1\npartition 0 http://a:8395\n\n  partition 0   http://b:8396/  \n",
		"partitions 1\npartition 0 around:the:bend\n",
		"partitions 2\npartition 0 http://a:1\npartition 1 http://b:2\n",
		"partitions 3\npartition 0 http://a:1\npartition 1 http://b:2\n",
	} {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		topo, err := ParseTopology(strings.NewReader(doc), "fuzz")
		if err != nil || topo.Validate() != nil {
			return
		}
		var printed strings.Builder
		fmt.Fprintf(&printed, "partitions %d\n", len(topo.Partitions))
		owner := map[string]int{}
		for i, urls := range topo.Partitions {
			if len(urls) == 0 {
				t.Fatalf("validated topology has empty partition %d: %q", i, doc)
			}
			for _, u := range urls {
				if j, dup := owner[u]; dup {
					t.Fatalf("validated topology lists %s in partitions %d and %d: %q", u, j, i, doc)
				}
				owner[u] = i
			}
			fmt.Fprintf(&printed, "partition %d %s\n", i, strings.Join(urls, " "))
		}
		again, err := ParseTopology(strings.NewReader(printed.String()), "roundtrip")
		if err != nil {
			t.Fatalf("accepted %q but its printed form %q does not parse: %v", doc, printed.String(), err)
		}
		if !reflect.DeepEqual(again.Partitions, topo.Partitions) {
			t.Fatalf("round trip of %q: %v became %v", doc, topo.Partitions, again.Partitions)
		}
	})
}
