package serve

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	if h.quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	// 90 fast observations, 10 slow ones: p50 lands in the fast bucket,
	// p99 in the slow one. Quantiles are bucket upper bounds, so compare
	// against the bounds the observations fall under.
	for i := 0; i < 90; i++ {
		h.observe(3 * time.Microsecond) // bucket bound 4µs
	}
	for i := 0; i < 10; i++ {
		h.observe(3 * time.Millisecond) // bucket bound ~4.1ms
	}
	if p50 := h.quantile(0.50); p50 > 10e-6 {
		t.Errorf("p50 = %g s, want <= 4µs bound", p50)
	}
	p99 := h.quantile(0.99)
	if p99 < 2e-3 || p99 > 10e-3 {
		t.Errorf("p99 = %g s, want ~4ms bound", p99)
	}
	if h.count.Load() != 100 {
		t.Errorf("count = %d", h.count.Load())
	}
	// Negative durations (clock skew) clamp instead of corrupting buckets.
	h.observe(-time.Second)
	if h.count.Load() != 101 {
		t.Error("negative observation dropped")
	}
}

func TestMetricsWrite(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	m := NewMetrics(start)
	m.requests.Add(10)
	m.failures.Add(1)
	m.swaps.Add(1)
	m.lat.observe(2 * time.Millisecond)

	var b strings.Builder
	m.Write(&b, start.Add(2*time.Second))
	out := b.String()
	for _, want := range []string{
		"autofjd_requests_total 10",
		"autofjd_request_failures_total 1",
		"autofjd_program_swaps_total 1",
		"autofjd_uptime_seconds 2",
		"autofjd_qps 5",
		`autofjd_request_latency_seconds{quantile="0.99"}`,
		"autofjd_request_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}

	snap := m.Snapshot(start.Add(2 * time.Second))
	if snap.Requests != 10 || snap.Failures != 1 || snap.QPS != 5 {
		t.Errorf("snapshot: %+v", snap)
	}
	if strings.Contains(out, "program=") {
		t.Errorf("daemon-wide metrics carry per-program series:\n%s", out)
	}
}

// TestWritePrograms: every per-program series renders from the registry
// listing, and a rate is left out while its denominator is zero.
func TestWritePrograms(t *testing.T) {
	var b strings.Builder
	writePrograms(&b, nil)
	if b.Len() != 0 {
		t.Errorf("empty listing rendered %q", b.String())
	}
	writePrograms(&b, []ProgramInfo{
		{Name: "idle"},
		{Name: "orgs", Queries: 10, Matched: 7, CacheHits: 1, CacheMisses: 3},
	})
	out := b.String()
	for _, want := range []string{
		"# TYPE autofjd_program_queries_total counter",
		`autofjd_program_queries_total{program="orgs"} 10`,
		`autofjd_program_matches_total{program="orgs"} 7`,
		`autofjd_program_match_rate{program="orgs"} 0.7`,
		`autofjd_cache_hits_total{program="orgs"} 1`,
		`autofjd_cache_misses_total{program="orgs"} 3`,
		`autofjd_cache_hit_rate{program="orgs"} 0.25`,
		`autofjd_program_queries_total{program="idle"} 0`,
		`autofjd_cache_misses_total{program="idle"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("program metrics missing %q:\n%s", want, out)
		}
	}
	for _, absent := range []string{
		`autofjd_program_match_rate{program="idle"}`,
		`autofjd_cache_hit_rate{program="idle"}`,
	} {
		if strings.Contains(out, absent) {
			t.Errorf("rate with a zero denominator rendered: %q", absent)
		}
	}
}
