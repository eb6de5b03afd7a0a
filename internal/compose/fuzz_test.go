package compose_test

import (
	"testing"

	"mha/internal/compose"
)

// FuzzParseComposition checks that the composition parser never panics
// and that accepted pipelines round-trip through their canonical
// rendering.
func FuzzParseComposition(f *testing.F) {
	for _, coll := range compose.Collectives() {
		f.Add(compose.Flat(coll).String())
	}
	f.Add(compose.Hierarchical(compose.Allgather).String())
	f.Add("compose x coll=reduce-scatter\nred scope=node\n# c\nfence\nmc scope=node alg=pull")
	f.Add("compose x coll=allgather\nmc offload=auto striped=1")
	f.Add("compose x coll=allgather\nmc offload=-7")
	f.Add("fence\ncompose late coll=bcast")
	f.Fuzz(func(t *testing.T, text string) {
		c, err := compose.ParseComposition(text)
		if err != nil {
			return
		}
		canon := c.String()
		again, err := compose.ParseComposition(canon)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\n%s", err, canon)
		}
		if again.String() != canon {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", canon, again.String())
		}
	})
}
