// Topology files have one format: a `partitions N` header, then
// `partition <i> <url>...` lines assigning nodes to partitions
// (repeatable; later lines append), blank lines and #-comments ignored.
// Partition i owns exactly the users with UserShard(user, N) == i, so
// ownership must cover [0,N) and never overlap. One replicated pair is
// `partitions 1` — the same format, P=1.
//
//	partitions 2
//	partition 0 http://a:8395 http://b:8396
//	partition 1 http://c:8395 http://d:8396
//
// The router polls the file's stamp each probe round, so editing the
// file is the whole "add a node" procedure. N is fixed per fleet: a
// node whose -partition i/N disagrees with the file takes no traffic.
package router

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// FileStamp is the topology watch key. Mtime alone misses a second
// rewrite landing within the same second on filesystems with coarse
// (1s) timestamp granularity, so the file size is compared too — a
// same-size same-second rewrite is the only edit still missed, and the
// next touch of the file picks it up.
type FileStamp struct {
	Mod  time.Time
	Size int64
}

// Topology is a parsed topology: the partition layout.
type Topology struct {
	// Partitions[i] lists partition i's nodes (a replicated pair, or
	// more).
	Partitions [][]string
}

// Validate checks the URLs and the ownership invariants: every node is
// a base URL written as the parser normalizes it (no trailing slash),
// every partition has at least one node, and no node is assigned to
// two partitions. Files and static layouts pass the same checks.
func (t Topology) Validate() error {
	if len(t.Partitions) == 0 {
		return errors.New("router: topology has no partitions")
	}
	seen := map[string]int{}
	for i, urls := range t.Partitions {
		if len(urls) == 0 {
			return fmt.Errorf("router: partition %d has no nodes — every partition's key range needs an owner", i)
		}
		for _, u := range urls {
			if n, err := normalizeURL(u); err != nil || n != u {
				return fmt.Errorf("router: partition %d: %q is not a base URL (want http://host:port)", i, u)
			}
			j, dup := seen[u]
			switch {
			case dup && j == i:
				return fmt.Errorf("router: node %s listed twice in partition %d", u, i)
			case dup:
				return fmt.Errorf("router: node %s assigned to partitions %d and %d — key ownership must not overlap", u, j, i)
			}
			seen[u] = i
		}
	}
	return nil
}

// ParseTopology parses a topology file from r. name is used in error
// messages (the file path). Anything but the partitioned format — a
// bare URL included — fails at its line as an unknown directive.
func ParseTopology(r io.Reader, name string) (Topology, error) {
	var t Topology
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" || strings.HasPrefix(raw, "#") {
			continue
		}
		if err := parseDirective(&t, strings.Fields(raw)); err != nil {
			return t, fmt.Errorf("%s:%d: %w", name, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return t, err
	}
	if t.Partitions == nil {
		return t, fmt.Errorf("%s: no partitions header", name)
	}
	return t, nil
}

// maxPartitions caps the `partitions N` header: N is outside input and
// sizes an allocation, and every partition needs a line of its own, so
// no real file comes near it.
const maxPartitions = 1 << 16

// parseDirective applies one topology-file line.
func parseDirective(t *Topology, fields []string) error {
	switch fields[0] {
	case "partitions":
		if t.Partitions != nil {
			return errors.New("duplicate partitions header")
		}
		n, err := strconv.Atoi(fields[len(fields)-1])
		if len(fields) != 2 || err != nil || n < 1 || n > maxPartitions {
			return fmt.Errorf("want: partitions <count in [1,%d]>", maxPartitions)
		}
		t.Partitions = make([][]string, n)
	case "partition":
		if t.Partitions == nil {
			return errors.New("partition line before the partitions header")
		}
		if len(fields) < 3 {
			return errors.New("want: partition <index> <url> [<url>...]")
		}
		i, err := strconv.Atoi(fields[1])
		if err != nil || i < 0 || i >= len(t.Partitions) {
			return fmt.Errorf("partition index %q out of [0,%d)", fields[1], len(t.Partitions))
		}
		for _, raw := range fields[2:] {
			u, err := normalizeURL(raw)
			if err != nil {
				return err
			}
			t.Partitions[i] = append(t.Partitions[i], u)
		}
	default:
		return fmt.Errorf("unknown directive %q (want partitions/partition)", fields[0])
	}
	return nil
}

// normalizeURL accepts one base URL, http://host:port and nothing else
// (a trailing slash is dropped): the upstream pool dials host:port and
// speaks plain HTTP. A static layout's URL reaches it whole, so inner
// whitespace is refused here: such a "URL" could not be written in a
// topology file, whose fields split on it.
func normalizeURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	base := strings.TrimRight(raw, "/")
	if err != nil || base != "http://"+u.Host || u.Port() == "" || strings.ContainsFunc(raw, unicode.IsSpace) {
		return "", fmt.Errorf("%q is not a base URL (want http://host:port)", raw)
	}
	return base, nil
}

// LoadTopologyFile reads, parses, and validates a topology file,
// returning the topology and the file's stamp (the watch key).
func LoadTopologyFile(path string) (Topology, FileStamp, error) {
	f, err := os.Open(path)
	if err != nil {
		return Topology{}, FileStamp{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return Topology{}, FileStamp{}, err
	}
	stamp := FileStamp{Mod: st.ModTime(), Size: st.Size()}
	t, err := ParseTopology(f, path)
	if err != nil {
		return Topology{}, FileStamp{}, err
	}
	if err := t.Validate(); err != nil {
		return Topology{}, FileStamp{}, fmt.Errorf("%s: %w", path, err)
	}
	return t, stamp, nil
}

// reloadTopology re-reads the topology file when its stamp (mtime or
// size) moved. A transiently unreadable or invalid file keeps the last
// good topology — a half-written edit must not empty the fleet.
func (rt *Router) reloadTopology() {
	if rt.cfg.TopologyPath == "" {
		return
	}
	st, err := os.Stat(rt.cfg.TopologyPath)
	if err != nil {
		return
	}
	now := FileStamp{Mod: st.ModTime(), Size: st.Size()}
	rt.mu.Lock()
	unchanged := now.Mod.Equal(rt.topoStamp.Mod) && now.Size == rt.topoStamp.Size
	rt.mu.Unlock()
	if unchanged {
		return
	}
	topo, stamp, err := LoadTopologyFile(rt.cfg.TopologyPath)
	if err != nil {
		return
	}
	rt.SetTopology(topo)
	rt.mu.Lock()
	rt.topoStamp = stamp
	rt.mu.Unlock()
}
