package replica

import (
	"tsppr/internal/shard"
)

// poolSource adapts a shard.Pool to the primary-side Source surface.
type poolSource struct{ pool *shard.Pool }

func (s poolSource) Shards() int { return s.pool.N() }

func (s poolSource) NextLSN(i int) (uint64, error) { return s.pool.Shard(i).NextLSN() }

func (s poolSource) Read(i int, from uint64, max int, fn func(lsn uint64, payload []byte) error) (uint64, error) {
	return s.pool.Shard(i).ReadWAL(from, max, fn)
}

func (s poolSource) Snapshot(i int) (string, uint64, error) {
	return s.pool.Shard(i).SnapshotInfo()
}

// NextLSNs collects every shard's commit horizon — the per-shard bases
// a promotion records in its history entry.
func NextLSNs(p *shard.Pool) ([]uint64, error) {
	out := make([]uint64, p.N())
	for i := range out {
		lsn, err := p.Shard(i).NextLSN()
		if err != nil {
			return nil, err
		}
		out[i] = lsn
	}
	return out, nil
}
