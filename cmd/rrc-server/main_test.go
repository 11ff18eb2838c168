package main

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"tsppr/internal/core"
	"tsppr/internal/features"
)

// TestRemovedSurfaceFailsLoudly: a -window or -omega that disagrees
// with the model file is refused by name. The endpoint and events-root
// halves of this test live with the node, in internal/serve.
func TestRemovedSurfaceFailsLoudly(t *testing.T) {
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
