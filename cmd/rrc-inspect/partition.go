// Partitioned-topology tooling: offline validation of rrc-router
// topology files and the key→partition oracle scripts use to bucket
// users.
//
//	rrc-inspect -topology topo.conf           # validate, nonzero exit on error
//	rrc-inspect -owner 12345 -partitions 2    # which partition owns this user?
package main

import (
	"fmt"
	"io"

	"tsppr/internal/cli"
	"tsppr/internal/router"
	"tsppr/internal/shard"
)

// runTopology validates a topology file exactly as rrc-router would load
// it — same parser, same overlap/ownership checks — so a bad file fails
// here, offline, instead of at the router's next reload.
func runTopology(path string, stdout io.Writer) error {
	topo, _, err := router.LoadTopologyFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: valid topology: %d partition(s)\n", path, len(topo.Partitions))
	for i, nodes := range topo.Partitions {
		fmt.Fprintf(stdout, "  partition %d: %d node(s): %v\n", i, len(nodes), nodes)
	}
	return nil
}

// runOwner prints the partition that owns a user under P partitions —
// bare, so shell scripts can bucket traffic per partition.
func runOwner(user, partitions int, stdout io.Writer) error {
	if user < 0 {
		return fmt.Errorf("-owner %d: user ids are non-negative: %w", user, cli.ErrUsage)
	}
	if partitions < 1 {
		return fmt.Errorf("-owner needs -partitions >= 1 (got %d): %w", partitions, cli.ErrUsage)
	}
	fmt.Fprintln(stdout, shard.UserShard(user, partitions))
	return nil
}
