// Replication forensics for rrc-inspect: -epoch prints a node's
// persisted promotion history, -diverge compares two nodes' WALs
// record-by-record and reports where their timelines fork. Both are
// read-only and run against offline copies, so an operator can answer
// "which writes did the failover lose" from the two data directories
// alone.
package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"

	"tsppr/internal/replica"
	"tsppr/internal/wal"
)

// runEpoch prints the replication meta persisted under an events root:
// the current epoch and, per promotion, the per-shard base LSNs that
// started its timeline.
func runEpoch(root string, stdout io.Writer) error {
	m, err := replica.LoadMeta(root)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: epoch=%d promotions=%d\n", root, m.Epoch, len(m.History))
	if len(m.History) == 0 {
		fmt.Fprintln(stdout, "  no promotions recorded (original timeline)")
		return nil
	}
	for _, p := range m.History {
		fmt.Fprintf(stdout, "  promotion to epoch %d: per-shard base LSNs %v\n", p.Epoch, p.Bases)
	}
	return nil
}

// walRecord is one decoded record held for comparison.
type walRecord struct {
	lsn     uint64
	payload []byte
}

// loadWAL reads every committed record of one WAL directory into
// memory, ascending by LSN. Corrupt records fail the load: divergence
// analysis over a damaged log would blame the wrong writes.
func loadWAL(dir string) ([]walRecord, error) {
	var recs []walRecord
	rep, err := wal.Verify(dir, 0, func(lsn uint64, payload []byte) error {
		recs = append(recs, walRecord{lsn: lsn, payload: bytes.Clone(payload)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rep.CorruptRecords > 0 {
		return nil, fmt.Errorf("%s: %d corrupt record(s); run -wal first", dir, rep.CorruptRecords)
	}
	return recs, nil
}

// runDiverge compares two events roots shard by shard and reports, for
// each, the shared prefix and the first LSN where the timelines fork.
// Exit is nonzero when any shard diverges — one node holding *more*
// records than the other is lag, not divergence, and stays healthy.
func runDiverge(rootA, rootB string, stdout io.Writer) error {
	dirsA, err := shardWALDirs(rootA)
	if err != nil {
		return err
	}
	dirsB, err := shardWALDirs(rootB)
	if err != nil {
		return err
	}
	if len(dirsA) != len(dirsB) {
		return fmt.Errorf("shard counts differ: %s has %d, %s has %d", rootA, len(dirsA), rootB, len(dirsB))
	}
	diverged := 0
	for i := range dirsA {
		label := filepath.Base(dirsA[i])
		forkLSN, compared, err := divergeShard(dirsA[i], dirsB[i])
		if err != nil {
			return err
		}
		if forkLSN == 0 {
			fmt.Fprintf(stdout, "%s: consistent over %d shared record(s)\n", label, compared)
			continue
		}
		diverged++
		fmt.Fprintf(stdout, "%s: DIVERGED at lsn %d (%d shared record(s) before the fork)\n", label, forkLSN, compared)
	}
	if diverged > 0 {
		return fmt.Errorf("%d shard(s) hold divergent timelines", diverged)
	}
	return nil
}

// divergeShard compares one shard pair. It returns the first LSN whose
// payloads differ (0 = none) and how many same-LSN records matched.
// Only the overlapping LSN range is compared: pruning shifts a log's
// oldest record, and a longer tail on one side is lag, not a fork.
func divergeShard(dirA, dirB string) (forkLSN uint64, compared int, err error) {
	recsA, err := loadWAL(dirA)
	if err != nil {
		return 0, 0, err
	}
	recsB, err := loadWAL(dirB)
	if err != nil {
		return 0, 0, err
	}
	byLSN := make(map[uint64][]byte, len(recsB))
	for _, r := range recsB {
		byLSN[r.lsn] = r.payload
	}
	for _, r := range recsA {
		other, ok := byLSN[r.lsn]
		if !ok {
			continue
		}
		if !bytes.Equal(r.payload, other) {
			return r.lsn, compared, nil
		}
		compared++
	}
	return 0, compared, nil
}
