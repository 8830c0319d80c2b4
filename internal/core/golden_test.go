package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"matchfilter/internal/core"
	"matchfilter/internal/patterns"
)

// goldenImages pins the SHA-256 of core.WriteImage output for every
// built-in pattern set at default options, plus the counter-mode union
// the dense benchmark serves. Images must be byte-identical across
// refactors of construction, minimization and the codec: a change that
// renumbers DFA states, reorders classes or alters the wire format has
// to update these digests on purpose and say so in CHANGES.md.
var goldenImages = []struct {
	name     string
	sets     []string
	counters bool
	digest   string
}{
	{"B217p", []string{"B217p"}, false, "7b4c1a36f21e9e3bb726eb0542718d40bdcdfa800a572ea1577b5414f9320b2a"},
	{"C7p", []string{"C7p"}, false, "6e2f66483b3f4bce2f3db2f0d72296d3e64268f2c68e7463cda4b645fd468d86"},
	{"C8", []string{"C8"}, false, "92ca8842717627ea93d581899d48123212baa00883eb8bcd8dba860fc1decef0"},
	{"C10", []string{"C10"}, false, "80665a304539a8ba4032c7fb8a3779f3beaec9bfa54a5049beaac8bcfff9071d"},
	{"S24", []string{"S24"}, false, "9f44ad4f8224c1668ffd582507cd85a860010851c904c49d58bdfffe8e9731a6"},
	{"S31p", []string{"S31p"}, false, "5960f4dc3e83bff7559bbb0292a36fb19360177bda46fbc0212aacb14c72607e"},
	{"S34", []string{"S34"}, false, "9bd0bdcaec2076bb9096a614e8f7463aa446fd6121efa43fe5798ab3709b4a14"},
	{"S24+CTR24/counters", []string{"S24", "CTR24"}, true, "93e4de368dd783340c8e56880a48c665c9941b9bac34518d5bed0ada2953c1d4"},
}

func TestGoldenImageDigests(t *testing.T) {
	for _, g := range goldenImages {
		t.Run(g.name, func(t *testing.T) {
			if testing.Short() && g.name == "B217p" {
				t.Skip("compiles the largest set")
			}
			var rules []core.Rule
			var sources []string
			for _, set := range g.sets {
				prules, err := patterns.Load(set)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range prules {
					rules = append(rules, core.Rule{Pattern: r.Pattern, ID: int32(len(rules) + 1)})
					sources = append(sources, r.Source)
				}
			}
			var opts core.Options
			opts.Splitter.EnableCounters = g.counters
			m, err := core.Compile(rules, opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := core.WriteImage(&buf, m, sources); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != g.digest {
				t.Errorf("image digest %s, want %s (%d bytes)", got, g.digest, buf.Len())
			}
		})
	}
}
