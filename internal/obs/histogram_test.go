package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every bucket's low bound must map back to that bucket, bounds
	// must be strictly increasing, and values one below a bound must
	// land in the previous bucket.
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		lo := bucketLow(i)
		if lo <= prev && !(lo == math.MaxInt64 && prev == math.MaxInt64) {
			t.Fatalf("bucket %d: low %d not above previous %d", i, lo, prev)
		}
		if got := bucketOf(lo); got != i && lo != math.MaxInt64 {
			t.Fatalf("bucketOf(bucketLow(%d)) = %d", i, got)
		}
		if i > 0 && lo > 0 && lo != math.MaxInt64 {
			if got := bucketOf(lo - 1); got != i-1 {
				t.Fatalf("bucketOf(%d) = %d, want %d", lo-1, got, i-1)
			}
		}
		prev = lo
	}
	if got := bucketOf(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("bucketOf(MaxInt64) = %d, want %d", got, histBuckets-1)
	}
	if got := bucketOf(-5); got != 0 {
		t.Fatalf("bucketOf(-5) = %d, want 0", got)
	}
}

func TestBucketRelativeError(t *testing.T) {
	// Above the unit buckets, bucket width must stay within 1/histSub
	// of the low bound — the ±1-bucket quantile guarantee rests on it.
	for i := histSub; i < histBuckets-1; i++ {
		lo, hi := bucketLow(i), bucketLow(i+1)
		if hi == math.MaxInt64 {
			break
		}
		if width := hi - lo; float64(width)/float64(lo) > 1.0/histSub+1e-12 {
			t.Fatalf("bucket %d: width %d over low %d exceeds %.4f", i, width, lo, 1.0/histSub)
		}
	}
}

// refQuantile is the sorted-reference order statistic the histogram
// approximates: the rank-⌈p·n⌉ sample.
func refQuantile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestHistogramQuantileProperty is the correctness property from the
// issue: a histogram filled by concurrent recorders must report every
// quantile within ±1 bucket of a sorted reference over the raw
// samples. Run under -race in CI.
func TestHistogramQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := []struct {
		name string
		gen  func(r *rand.Rand) int64
	}{
		{"uniform", func(r *rand.Rand) int64 { return r.Int63n(10_000_000) }},
		{"exponential", func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 500_000) }},
		{"bimodal", func(r *rand.Rand) int64 {
			if r.Intn(10) == 0 {
				return 50_000_000 + r.Int63n(1_000_000) // slow tail
			}
			return 10_000 + r.Int63n(5_000)
		}},
		{"tiny", func(r *rand.Rand) int64 { return r.Int63n(20) }},
	}
	for _, dist := range distributions {
		t.Run(dist.name, func(t *testing.T) {
			const goroutines = 8
			const perG = 5000
			// Pre-generate all samples so the reference sees exactly what
			// the recorders record.
			samples := make([][]int64, goroutines)
			var all []int64
			for g := range samples {
				samples[g] = make([]int64, perG)
				for i := range samples[g] {
					samples[g][i] = dist.gen(rng)
					all = append(all, samples[g][i])
				}
			}

			// Concurrent recorders sharing one histogram — the
			// shared-fingerprint shape the collector records in.
			var h Histogram
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for _, v := range samples[g] {
						h.RecordNs(v)
					}
				}(g)
			}
			wg.Wait()

			if got, want := h.Count(), uint64(len(all)); got != want {
				t.Fatalf("count = %d, want %d", got, want)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			var sum int64
			for _, v := range all {
				sum += v
			}
			if h.SumNs() != sum {
				t.Fatalf("sum = %d, want %d", h.SumNs(), sum)
			}
			if h.MaxNs() != all[len(all)-1] {
				t.Fatalf("max = %d, want %d", h.MaxNs(), all[len(all)-1])
			}
			for _, p := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0} {
				ref := refQuantile(all, p)
				got := int64(h.Quantile(p))
				if d := bucketOf(ref) - bucketOf(got); d < -1 || d > 1 {
					t.Errorf("p%.0f: reported %d (bucket %d), reference %d (bucket %d): off by %d buckets",
						p*100, got, bucketOf(got), ref, bucketOf(ref), d)
				}
			}
		})
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Count() != 0 || h.MeanNs() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(3 * time.Millisecond)
	if q := h.Quantile(0.5); q < 2800*time.Microsecond || q > 3200*time.Microsecond {
		t.Fatalf("single-sample p50 = %v, want ≈3ms", q)
	}
}
