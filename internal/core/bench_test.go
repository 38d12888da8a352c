package core

import (
	"context"
	"testing"

	"repro/internal/funcsim"
	"repro/internal/workload"
)

// BenchmarkSelect times frame selection (the k-means/BIC cluster-count
// search plus representative extraction) on the batch-cold campaign
// template: workload.RandomProfile(6) at DefaultScale, 1407 frames of
// 36 features. Characterization and feature building run once, outside
// the timed loop; `-cpu 1,2` shows what the concurrent restarts and
// chunked assignment passes gain from a second core.
func BenchmarkSelect(b *testing.B) {
	tr := workload.MustGenerate(workload.RandomProfile(6), workload.DefaultScale)
	res, err := funcsim.Run(context.Background(), tr, nil)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := BuildFeatures(res, DefaultFeatureConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	var sel *Selection
	for i := 0; i < b.N; i++ {
		if sel, err = Select(fs, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sel.BICScores)), "explored-k/op")
	b.ReportMetric(float64(len(sel.Representatives)), "representatives/op")
}
