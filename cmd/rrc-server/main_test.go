package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"tsppr/internal/core"
	"tsppr/internal/features"
)

// TestMain runs the test binary as rrc-server itself when
// RRC_SERVER_ARGS is set, so a test can check how the command exits.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("RRC_SERVER_ARGS"); ok {
		os.Args = append([]string{"rrc-server"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRemovedSurfaceFailsLoudly: the removed -fsync interval policy, its
// -fsync-interval period and -wal-skip-corrupt exit 2 naming the flag, a
// node without -events-dir (the retired session-less mode) exits 2 naming
// it, and a -window or -omega that disagrees with the model file is
// refused by name. The endpoint and events-root halves of this test live with
// the node, in internal/serve.
func TestRemovedSurfaceFailsLoudly(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-model m.tsppr -fsync interval", `-fsync: wal: unknown fsync policy "interval"`},
		{"-model m.tsppr -fsync-interval 100ms", "flag provided but not defined: -fsync-interval"},
		{"-model m.tsppr -wal-skip-corrupt", "flag provided but not defined: -wal-skip-corrupt"},
		{"-model m.tsppr -events-dir ev -partition 0/2@1", `partition "0/2@1": want index/count`},
		{"-model m.tsppr", "-events-dir is required"},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "RRC_SERVER_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), tc.want) {
			t.Errorf("rrc-server %s: %v, output %q; want exit 2 naming %q", tc.args, err, out, tc.want)
		}
	}

	m := &core.Model{Extractor: features.NewBuilder(1, 20, 3).Build(features.AllFeatures, features.Hyperbolic)}

	// -window and -omega are parsed only for bench/fleet.go: a value other
	// than the model's (20, 3) is refused by name, the model's own or none
	// is accepted.
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-window", "50"}, "-window 50 disagrees with |W| = 20 recorded in model.tsppr"},
		{[]string{"-omega", "5"}, "-omega 5 disagrees with Ω = 3 recorded in model.tsppr"},
		{[]string{"-window", "20", "-omega", "3", "-max-sessions", "262144"}, ""},
		{nil, ""},
	} {
		fs := flag.NewFlagSet("rrc-server", flag.ContinueOnError)
		for _, name := range []string{"window", "omega", "max-sessions"} {
			fs.Int(name, 0, "")
		}
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := checkLegacyFlags(fs, m, "model.tsppr")
		if got := fmt.Sprint(err); tc.want == "" && err != nil || tc.want != "" && !strings.Contains(got, tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}
