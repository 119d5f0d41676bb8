package serve

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// latBuckets is the latency histogram resolution: geometric buckets from
// 1µs doubling up to ~16.8s, plus an overflow bucket. Quantiles are read
// as the upper bound of the bucket holding the target rank — at 2x
// resolution that is within a factor of two of the true value, which is
// what tail-latency dashboards need.
const latBuckets = 25

// histogram is a lock-free latency histogram.
type histogram struct {
	counts [latBuckets + 1]atomic.Uint64
	count  atomic.Uint64
	sumNS  atomic.Uint64
}

func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	for i := 0; i < latBuckets; i++ {
		if us < 1<<i {
			return i
		}
	}
	return latBuckets
}

// bucketBound returns the upper bound of bucket i in seconds.
func bucketBound(i int) float64 {
	if i >= latBuckets {
		return math.Inf(1)
	}
	return float64(uint64(1)<<i) / 1e6
}

func (h *histogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(uint64(d.Nanoseconds()))
}

// quantile estimates the q-quantile in seconds (0 when empty).
func (h *histogram) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if b := bucketBound(i); !math.IsInf(b, 1) {
				return b
			}
			// Overflow bucket: report the mean of what landed there is
			// unknowable; fall back to the largest finite bound.
			return bucketBound(latBuckets - 1)
		}
	}
	return bucketBound(latBuckets - 1)
}

// Metrics aggregates the daemon-wide serving counters. All fields are
// atomically updated; Write renders a Prometheus text-format snapshot.
// Per-program counters live in the registry slots and are rendered from
// its listing by writePrograms.
type Metrics struct {
	start time.Time

	requests    atomic.Uint64 // data-path queries received
	failures    atomic.Uint64 // queries answered with an error
	swaps       atomic.Uint64 // program registrations/hot swaps
	mutations   atomic.Uint64 // reference-table row mutations (adds + removes)
	compactions atomic.Uint64 // reference-table compactions (background + forced)

	lat histogram
}

// NewMetrics returns an empty metrics sink; start anchors the QPS and
// uptime gauges.
func NewMetrics(start time.Time) *Metrics {
	return &Metrics{start: start}
}

// Snapshot is a point-in-time read of the headline numbers.
type Snapshot struct {
	Requests uint64
	Failures uint64
	P50      float64 // seconds
	P99      float64 // seconds
	QPS      float64 // requests since start / uptime
}

// Snapshot reads the current counters; now anchors the QPS window.
func (m *Metrics) Snapshot(now time.Time) Snapshot {
	s := Snapshot{
		Requests: m.requests.Load(),
		Failures: m.failures.Load(),
		P50:      m.lat.quantile(0.50),
		P99:      m.lat.quantile(0.99),
	}
	if up := now.Sub(m.start).Seconds(); up > 0 {
		s.QPS = float64(s.Requests) / up
	}
	return s
}

// Write renders the Prometheus text exposition format; now anchors the
// uptime and QPS gauges.
func (m *Metrics) Write(w io.Writer, now time.Time) {
	s := m.Snapshot(now)
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("autofjd_requests_total", "Data-path queries received.", s.Requests)
	counter("autofjd_request_failures_total", "Queries answered with an error.", s.Failures)
	counter("autofjd_program_swaps_total", "Program registrations and hot swaps.", m.swaps.Load())
	counter("autofjd_table_mutations_total", "Reference-table row mutations (adds + removes).", m.mutations.Load())
	counter("autofjd_table_compactions_total", "Reference-table compactions (background + forced).", m.compactions.Load())
	gauge("autofjd_uptime_seconds", "Seconds since the daemon started.", now.Sub(m.start).Seconds())
	gauge("autofjd_qps", "Requests per second since start.", s.QPS)

	fmt.Fprintf(w, "# HELP autofjd_request_latency_seconds Data-path latency quantiles.\n")
	fmt.Fprintf(w, "# TYPE autofjd_request_latency_seconds summary\n")
	for _, q := range []struct {
		q float64
		s string
	}{{0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}} {
		fmt.Fprintf(w, "autofjd_request_latency_seconds{quantile=%q} %g\n", q.s, m.lat.quantile(q.q))
	}
	fmt.Fprintf(w, "autofjd_request_latency_seconds_sum %g\n", float64(m.lat.sumNS.Load())/1e9)
	fmt.Fprintf(w, "autofjd_request_latency_seconds_count %d\n", m.lat.count.Load())
}

// writePrograms renders the per-program series of a registry listing in
// the Prometheus text format: the query and match counters the registry
// slot keeps across hot swaps, and the result-cache counters of the
// installed table, which a hot swap restarts at zero. A rate is omitted
// while its denominator is zero.
func writePrograms(w io.Writer, progs []ProgramInfo) {
	if len(progs) == 0 {
		return
	}
	counter := func(name, help string, v func(ProgramInfo) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, p := range progs {
			fmt.Fprintf(w, "%s{program=%q} %d\n", name, p.Name, v(p))
		}
	}
	rate := func(name, help string, num, den func(ProgramInfo) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, p := range progs {
			if d := den(p); d > 0 {
				fmt.Fprintf(w, "%s{program=%q} %g\n", name, p.Name, float64(num(p))/float64(d))
			}
		}
	}
	queries := func(p ProgramInfo) uint64 { return p.Queries }
	matched := func(p ProgramInfo) uint64 { return p.Matched }
	hits := func(p ProgramInfo) uint64 { return p.CacheHits }
	misses := func(p ProgramInfo) uint64 { return p.CacheMisses }
	lookups := func(p ProgramInfo) uint64 { return p.CacheHits + p.CacheMisses }
	counter("autofjd_program_queries_total", "Queries per program.", queries)
	counter("autofjd_program_matches_total", "Matched queries per program.", matched)
	rate("autofjd_program_match_rate", "Matched / answered queries per program.", matched, queries)
	counter("autofjd_cache_hits_total", "Result cache hits per program (repeat queries answered without scoring).", hits)
	counter("autofjd_cache_misses_total", "Result cache misses per program.", misses)
	rate("autofjd_cache_hit_rate", "Cache hits / lookups per program since its table was installed.", hits, lookups)
}
