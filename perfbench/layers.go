package main

// metricDef declares one reported metric. Moves names the end-to-end
// metric (and workload) a per-layer metric should move; it is the
// prediction a change to that layer is judged against.
type metricDef struct {
	Name, Unit, Better, Moves string
}

// endToEnd are the metrics a user of the service sees, reported by
// every untraced run. A failure ratio is not among them because a
// passing run reads 0 there; failures travel in the result's
// attempted/failed counts and as the traced run's fail_ratio.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"p50_ms", "ms", "lower", ""},
	{"p99_ms", "ms", "lower", ""},
	{"goodput_rps", "1/s", "higher", ""},
	{"capacity_rps", "1/s", "higher", ""},
	{"ttfp_p50_ms", "ms", "lower", ""},
	{"ttfp_p90_ms", "ms", "lower", ""},
	{"peak_rss_mb", "MB", "lower", ""},
}

// Layouts and dtypes the in-process probes cover.
var (
	probeLayouts = []string{"array", "zorder", "ztiled", "bit"}
	indexLayouts = []string{"array", "zorder", "ztiled", "bit", "hilbert"}
	probeDtypes  = []string{"float32", "uint8"}
)

// perLayer lists every metric of the traced run, by layer.
func perLayer() []metricDef {
	const (
		envelope  = "p50_ms on render-hot"
		admission = "p99_ms and fail_ratio on filter-layouts"
		rcache    = "p50_ms and capacity_rps on render-hot; no change on filter-layouts or store-churn"
		store     = "p50_ms, p99_ms and capacity_rps on store-churn; setup_s"
		kernels   = "p50_ms and capacity_rps on filter-layouts"
		simulator = "deterministic counts; predict filter.ns_per_voxel and render.ns_per_ray"
	)
	d := []metricDef{
		{"sfcserved.decode_ms_p50", "ms", "lower", envelope},
		{"sfcserved.digest_ms_p50", "ms", "lower", envelope},
		{"sfcserved.encode_ms_p50", "ms", "lower", envelope},
		{"sfcserved.floor_ms_p50", "ms", "lower", envelope + " (the empty-kernel floor: client latency of 304s)"},
		{"sfcserved.route.render.p99_ms", "ms", "lower", envelope},
		{"sfcserved.route.filter.p99_ms", "ms", "lower", "p99_ms on filter-layouts"},
		{"sfcserved.route.jobs.p99_ms", "ms", "lower", "ttfp_p50_ms on render-hot"},
		{"sfcserved.route.put.p99_ms", "ms", "lower", "p99_ms on store-churn"},
		{"render.miss_ms_p50", "ms", "lower", "p50_ms on render-hot"},
		{"sfcserved.kernel_by_subtraction_ms", "ms", "lower", "p50_ms on render-hot (render.miss_ms_p50 minus the floor; compare render.kernel_ms_p50)"},
		{"admission.slot_wait_ms_p50", "ms", "lower", admission},
		{"admission.slot_wait_ms_p99", "ms", "lower", admission},
		{"admission.rejected", "count", "lower", admission},
		{"admission.deadline_exceeded", "count", "lower", admission},
		{"rcache.hit_ratio", "ratio", "higher", rcache},
		{"rcache.not_modified_ratio", "ratio", "higher", rcache},
		{"rcache.coalesced", "count", "higher", rcache},
		{"rcache.evictions", "count", "lower", rcache},
		{"rcache.hit_ms_p50", "ms", "lower", rcache},
		{"rcache.do_hit_ns", "ns", "lower", rcache},
		{"store.hit_ratio", "ratio", "higher", store},
		{"store.loads", "count", "lower", store},
		{"store.load_ms_p50", "ms", "lower", store},
		{"store.load_mb_s", "MB/s", "higher", store},
		{"store.writes", "count", "higher", store},
		{"store.persist_mb_s", "MB/s", "higher", store},
		{"store.evictions", "count", "lower", store},
		{"store.get_warm_ns", "ns", "lower", store},
		{"grid.resolve_ms_p50", "ms", "lower", "p50_ms on filter-layouts"},
		{"grid.resolve_count", "count", "lower", "p50_ms on filter-layouts"},
		{"filter.kernel_ms_p50", "ms", "lower", kernels},
	}
	for _, l := range probeLayouts {
		for _, dt := range probeDtypes {
			d = append(d, metricDef{"filter.ns_per_voxel." + l + "." + dt, "ns", "lower", kernels})
		}
	}
	d = append(d, metricDef{"render.kernel_ms_p50", "ms", "lower", "p99_ms on render-hot; p50_ms on store-churn"})
	for _, l := range probeLayouts {
		d = append(d, metricDef{"render.ns_per_ray." + l, "ns", "lower", "p99_ms on render-hot; p50_ms on store-churn"})
	}
	d = append(d,
		metricDef{"parallel.imbalance.filter", "ratio", "lower", "p99_ms on filter-layouts"},
		metricDef{"parallel.imbalance.render", "ratio", "lower", "p99_ms on filter-layouts"},
	)
	for _, l := range indexLayouts {
		d = append(d, metricDef{"core.index_ns." + l, "ns", "lower", "filter.ns_per_voxel, and through it p50_ms on filter-layouts"})
	}
	for _, k := range []string{"bilateral", "volrend"} {
		for _, l := range probeLayouts {
			for _, lvl := range []string{"l1", "l2", "l3"} {
				d = append(d, metricDef{"cache." + k + "." + lvl + "_miss_per_voxel." + l, "count", "lower", simulator})
			}
			d = append(d, metricDef{"cache." + k + ".mem_bytes_per_voxel." + l, "B", "lower", simulator})
		}
	}
	return append(d,
		metricDef{"jobs.batch_size_mean", "count", "higher", "ttfp_p50_ms on render-hot"},
		metricDef{"jobs.server_ttfb_ms_p50", "ms", "lower", "ttfp_p50_ms on render-hot"},
		metricDef{"multires.subsample_ms", "ms", "lower", "ttfp_p50_ms on render-hot"},
		metricDef{"tune.search_s", "s", "lower", "p99_ms on filter-layouts, through a held admission slot"},
		metricDef{"tune.candidates", "count", "lower", "p99_ms on filter-layouts, through a held admission slot"},
		metricDef{"obs.overhead_pct", "%", "lower", "measure validity only"},
		metricDef{"loadgen.lag_p99_ms", "ms", "lower", "measure validity only"},
		metricDef{"fail_ratio", "ratio", "lower", "every end-to-end metric; 0 on a valid run"},
	)
}
