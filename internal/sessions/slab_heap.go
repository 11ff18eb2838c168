//go:build race || !unix

package sessions

import "tsppr/internal/seq"

// allocChunk takes chunks from the Go heap where the race detector must
// see every access (it does not instrument mapped memory) or mmap is
// missing.
func allocChunk(n int) []seq.Item { return make([]seq.Item, n) }

func freeChunk([]seq.Item) {}

const slabInHeap = true
