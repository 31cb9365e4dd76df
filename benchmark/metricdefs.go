package main

// metricDef names one reported number. The same table is frozen in
// BENCHMARK.json (the tests compare the two), so a later change refers to
// a metric by a name that cannot drift.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// endToEndDefs are the --trace 0 metrics: what a user of the cache tier
// sees. BENCHMARK.json adds each one's regression bound.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"get_p95_us", "us", "lower"},
	{"hit_rate", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerDefs are the --trace 1 metrics, one layer (= module) per prefix.
// A metric a workload does not exercise reads 0 there; README.md says
// which workload moves which.
var perLayerDefs = []metricDef{
	{"memproto.parse_ns_per_req", "ns", "lower"},
	{"memproto.allocs_per_req", "count", "lower"},
	{"memproto.reply_ns_per_req", "ns", "lower"},
	{"memproto.decode_ns_per_reply", "ns", "lower"},

	{"cache.get_ns", "ns", "lower"},
	{"cache.get_ns_2g", "ns", "lower"},
	{"cache.getmulti_ns_per_key", "ns", "lower"},
	{"cache.set_ns", "ns", "lower"},
	{"cache.allocs_per_op", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.evictions_per_kset", "count", "lower"},
	{"cache.bytes_per_user_byte", "ratio", "lower"},
	{"cache.assigned_pages", "count", "lower"},
	{"cache.topmeta_ms", "ms", "lower"},
	{"cache.fetch_stream_pairs_per_s", "1/s", "higher"},
	{"cache.batch_import_pairs_per_s", "1/s", "higher"},

	{"server.residual_ns_per_op", "ns", "lower"},
	{"server.io_syscalls_per_op", "count", "lower"},
	{"server.bytes_read_per_op", "bytes", "lower"},
	{"server.bytes_written_per_op", "bytes", "lower"},
	{"server.conn_setup_us", "us", "lower"},
	{"server.get_p99_us", "us", "lower"},
	{"server.get_p999_us", "us", "lower"},

	{"client.get_p50_us", "us", "lower"},
	{"client.set_p50_us", "us", "lower"},
	{"client.set_p95_us", "us", "lower"},
	{"client.get_us", "us", "lower"},
	{"client.get_p99_us", "us", "lower"},
	{"client.overhead_us", "us", "lower"},
	{"client.multiget_us_per_key", "us", "lower"},
	{"client.allocs_per_get", "count", "lower"},
	{"client.retries", "count", "lower"},

	{"hashring.owner_ns", "ns", "lower"},
	{"hashring.moved_fraction", "ratio", "lower"},

	{"core.scale_in_s", "s", "lower"},
	{"core.scale_out_s", "s", "lower"},
	{"core.score_ms", "ms", "lower"},
	{"core.metadata_ms", "ms", "lower"},
	{"core.fusecache_ms", "ms", "lower"},
	{"core.data_ms", "ms", "lower"},
	{"core.handover_ms", "ms", "lower"},
	{"core.membership_ms", "ms", "lower"},
	{"core.hashsplit_ms", "ms", "lower"},
	{"core.retries", "count", "lower"},
	{"core.handover_waves", "count", "lower"},

	{"agent.items_migrated", "count", "higher"},
	{"agent.bytes_moved", "bytes", "higher"},
	{"agentrpc.pairs_per_s", "1/s", "higher"},
	{"agentrpc.wire_bytes_per_byte_moved", "ratio", "lower"},
	{"agentrpc.resumed_pairs", "count", "lower"},

	{"fusecache.topn_us", "us", "lower"},
	{"fusecache.rounds", "count", "lower"},
	{"fusecache.comparisons", "count", "lower"},

	{"store.db_loads_per_kop", "count", "lower"},

	{"metrics.gc_cpu_ppm", "ppm", "lower"},
	{"metrics.heap_objects", "count", "lower"},
	{"proc.cpu_ns_per_op", "ns", "lower"},

	{"trace.overhead_pct", "%", "lower"},
}
