package service

import (
	"fmt"
	"net/http"
	"runtime"

	"hgw/internal/obs"
)

// handleMetrics serves the daemon's operational counters in Prometheus
// text exposition format. Everything here is operational-edge state:
// the deterministic run telemetry (internal/obs registries) stays in
// job results and run reports, while this endpoint covers the service
// around the runs — cache, queue, workers, job durations — plus the
// process-wide pool and shard gauges from obs.Proc.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	proc := obs.Proc.Snapshot()
	dur := s.jobDur.Snapshot()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("hgwd_cache_hits_total", "Jobs answered from the content-addressed result cache.", st.Cache.Hits)
	counter("hgwd_cache_disk_hits_total", "Jobs answered from the persistent result tier (across restarts or memory eviction).", st.Cache.DiskHits)
	counter("hgwd_cache_misses_total", "Jobs that missed the result cache and ran.", st.Cache.Misses)
	gauge("hgwd_cache_entries", "Completed runs currently held in the result cache.", float64(st.Cache.Entries))
	gauge("hgwd_cache_capacity", "Result cache capacity in entries.", float64(st.Cache.Capacity))
	gauge("hgwd_cache_disk_entries", "Completed runs held in the persistent result tier.", float64(st.Cache.DiskEntries))
	gauge("hgwd_cache_disk_bytes", "Bytes held in the persistent result tier.", float64(st.Cache.DiskBytes))
	counter("hgwd_cache_disk_corrupt_total", "Persistent-tier blobs that failed their checksum and were served as misses.", st.Cache.DiskCorrupt)
	counter("hgwd_coalesced_total", "Submissions attached to an identical in-flight execution (single-flight).", st.Coalesced)
	counter("hgwd_jobs_executed_total", "Flights that actually entered hgw.Run (requests minus every flavor of reuse).", st.JobsExecuted)
	counter("hgwd_memo_hits_total", "Fleet shards served from the memo store instead of simulated.", st.Memo.MemHits+st.Memo.DiskHits)
	counter("hgwd_memo_disk_hits_total", "Memo hits read back from the persistent shard tier.", st.Memo.DiskHits)
	counter("hgwd_memo_misses_total", "Memo lookups that executed and recorded their shard.", st.Memo.Misses)
	gauge("hgwd_memo_entries", "Shard blobs held in the memo store's memory tier.", float64(st.Memo.Entries))
	gauge("hgwd_memo_bytes", "Bytes held in the memo store's memory tier.", float64(st.Memo.Bytes))
	gauge("hgwd_queue_depth", "Jobs waiting for a worker.", float64(st.QueueDepth))
	gauge("hgwd_queue_capacity", "Job queue capacity.", float64(st.QueueCapacity))
	gauge("hgwd_workers", "Size of the worker pool.", float64(st.Workers))
	gauge("hgwd_workers_busy", "Workers currently executing a job.", float64(st.WorkersBusy))
	gauge("hgwd_uptime_seconds", "Seconds since the service started.", st.UptimeMS/1e3)

	// Per-status job gauges iterate the fixed lifecycle list, never the
	// Jobs map, so the exposition order is stable across scrapes.
	fmt.Fprintf(w, "# HELP hgwd_jobs Registered jobs by lifecycle status.\n# TYPE hgwd_jobs gauge\n")
	for _, status := range allStatuses {
		fmt.Fprintf(w, "hgwd_jobs{status=%q} %d\n", string(status), st.Jobs[status])
	}

	// Job-duration histogram: internal buckets are per-bucket counts;
	// Prometheus buckets are cumulative with `le` upper bounds in
	// seconds.
	fmt.Fprintf(w, "# HELP hgwd_job_duration_seconds Wall time of executed jobs (cache hits excluded).\n# TYPE hgwd_job_duration_seconds histogram\n")
	cum := uint64(0)
	for i, bound := range obs.BucketBounds() {
		cum += dur.Buckets[i]
		fmt.Fprintf(w, "hgwd_job_duration_seconds_bucket{le=\"%g\"} %d\n", bound.Seconds(), cum)
	}
	fmt.Fprintf(w, "hgwd_job_duration_seconds_bucket{le=\"+Inf\"} %d\n", dur.Count)
	fmt.Fprintf(w, "hgwd_job_duration_seconds_sum %g\n", float64(dur.SumNS)/1e9)
	fmt.Fprintf(w, "hgwd_job_duration_seconds_count %d\n", dur.Count)

	counter("hgw_pool_gets_total", "Packet buffers handed out by the netpkt pools.", proc.PoolGets)
	counter("hgw_pool_misses_total", "Pool gets that found their domain's free list empty and refilled it from the shared depot.", proc.PoolMisses)
	counter("hgw_pool_puts_total", "Packet buffers returned to the netpkt pools.", proc.PoolPuts)
	counter("hgw_frame_gets_total", "Frames handed out by the netpkt frame pool.", proc.FrameGets)
	counter("hgw_frame_puts_total", "Frames returned to the netpkt frame pool.", proc.FramePuts)
	gauge("hgw_sim_procs", "Live simulator worker coroutines (busy and idle) across all runs.", float64(proc.SimProcs))
	gauge("hgw_live_shards", "Fleet shards currently being built or swept.", float64(proc.LiveShards))
	gauge("go_goroutines", "Goroutines in the serving process.", float64(runtime.NumGoroutine()))
}
