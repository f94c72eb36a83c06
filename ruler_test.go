package repro

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// BenchmarkPerfGateRuler is the CI perf gate's machine ruler: a fixed,
// CPU-bound, cache-resident kernel (sorting 4096 pseudo-random integers with
// the standard library's pattern-defeating quicksort) that runs none of the
// simulator's code. The gate divides fig3's wall-clock by this ns/op, so
// runner speed cancels out while a faster or slower simulator does not.
func BenchmarkPerfGateRuler(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	src := make([]uint64, 4096)
	for i := range src {
		src[i] = rng.Uint64()
	}
	dst := make([]uint64, len(src))
	for b.Loop() {
		copy(dst, src)
		slices.Sort(dst)
	}
}
