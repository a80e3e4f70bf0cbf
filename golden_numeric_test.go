package hdivexplorer

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datagen"
)

// TestNumericShardedOutputGolden pins the ranked output of a numeric-
// outcome pipeline for Shards ∈ {1, 2, 3}. Float moment sums are not
// associative, so a multi-shard run's bits depend on the order the shard
// FP-trees are merged and their nodes created; the boolean determinism
// suites cannot see that order, this test does. The digests are of the
// full WriteCSV rendering (every subgroup at full float precision).
//
// The digests were computed on amd64. Other architectures may fuse the
// moment updates into FMA instructions, which changes the bits without
// any change to the summation order this test guards.
func TestNumericShardedOutputGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are for amd64 float rounding, not %s", runtime.GOARCH)
	}
	d := datagen.Folktables(datagen.Config{N: 20_000, Seed: 7})
	o := Numeric("income", d.Target)
	for _, tc := range []struct {
		shards int
		want   string
	}{
		{1, "86156cd71be82a1d4813087891dbe759a535c7a6b68a428850931e0b9eccdd17"},
		{2, "aae10524a05b82f22e8d38207b6cf8c727bbea7915834881d11d2747a530e348"},
		{3, "b4a85327ff0b31d20050920b8b3fba6e47e973060c4c18f20ecc97982cdcf204"},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			rep, err := PipelineContext(context.Background(), d.Table, o, PipelineOptions{
				TreeSupport: 0.1, MinSupport: 0.02, Workers: 2, Shards: tc.shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rep.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("WriteCSV sha256 = %s, want %s (%d subgroups)", got, tc.want, len(rep.Subgroups))
			}
		})
	}
}
