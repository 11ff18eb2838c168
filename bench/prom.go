package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one parsed /metrics scrape: series (family name plus its
// label block exactly as exposed, e.g. `rrc_http_requests_total{endpoint="/consume"}`)
// to value. The children are measured from outside only, so this text
// is the harness's whole view of their counters.
type promSample map[string]float64

// parseProm reads Prometheus text exposition. Comment lines are
// skipped; a malformed sample line is an error, not a silent zero.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses base+"/metrics".
func scrape(client *http.Client, base string) (promSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseProm(resp.Body)
}

// sub returns after-before per series; a series absent before counts
// from zero.
func (after promSample) sub(before promSample) promSample {
	d := make(promSample, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// family sums every series of one family across its label blocks.
func (p promSample) family(name string) float64 {
	var total float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// byLabel returns one family's series keyed by their label block.
func (p promSample) byLabel(name string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range p {
		if strings.HasPrefix(k, name+"{") {
			out[k[len(name):]] = v
		}
	}
	return out
}

// histMean is a histogram's mean observation over a delta sample:
// Δ_sum / Δ_count in the histogram's own unit, 0 with no observations.
// labels is the series' label block ("" for an unlabelled histogram).
func (p promSample) histMean(name, labels string) float64 {
	n := p[name+"_count"+labels]
	if n <= 0 {
		return 0
	}
	return p[name+"_sum"+labels] / n
}
