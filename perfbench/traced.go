package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// traced is the per-layer run: the first half of the open-loop
// schedule against an untraced server (the overhead baseline), the same
// requests against a traced one, then the in-process layer probes.
func (b *bench) traced(ctx context.Context) (map[string]metric, error) {
	reqs := schedule(b.p, b.o.seed, b.w.rate, b.openDur()/2)

	srv, _, err := b.setup(ctx, false)
	if err != nil {
		return nil, err
	}
	c := newClient(srv.api, b.conns)
	b.warmup(ctx, c)
	base := openLoop(ctx, c, reqs, b.conns, time.Now())
	b.tally(base)
	c.close()
	b.stop(srv)

	srv, _, err = b.setup(ctx, true)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			b.stop(srv)
		}
	}()
	c = newClient(srv.api, b.conns)
	defer c.close()
	b.warmup(ctx, c)
	var m0, m1 map[string]json.RawMessage
	if err := b.getJSON(ctx, "http://"+srv.ops+"/metrics", &m0); err != nil {
		return nil, err
	}
	start := time.Now()
	outs := openLoop(ctx, c, reqs, b.conns, start)
	end := time.Now()
	if err := b.getJSON(ctx, "http://"+srv.ops+"/metrics", &m1); err != nil {
		return nil, err
	}
	b.tally(outs)
	b.stop(srv) // flushes the access log
	lines := srv.logLines()
	srv = nil
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run cut short: %w", err)
	}

	m := map[string]metric{}
	b.clientMetrics(m, base, outs)
	if err := serverMetrics(m, lines, start, end); err != nil {
		return nil, err
	}
	scrapeMetrics(m, m0, m1)
	if err := b.probes(ctx, m); err != nil {
		return nil, err
	}
	for _, d := range perLayer() {
		if _, ok := m[d.Name]; !ok {
			return nil, fmt.Errorf("traced run lacks metric %s", d.Name)
		}
	}
	return m, nil
}

// clientMetrics records the traced phase's client spans and reduces
// them, with the outcomes, to the client-side layer metrics.
func (b *bench) clientMetrics(m map[string]metric, base, outs []outcome) {
	var lat, lag, floor, hit, miss []float64
	var renders, notMod, failed, attempted int
	for i := range outs {
		o := &outs[i]
		if !o.Attempt {
			continue
		}
		attempted++
		if !o.OK {
			failed++
		}
		lat = append(lat, ms(o.latency()))
		lag = append(lag, ms(o.Lag))
		b.rec.add("loadgen.queue", -1, o.Due, o.Sent)
		root := b.rec.add("client."+o.Route, -1, o.Sent, o.End)
		if !o.Coarse.IsZero() {
			b.rec.add("client.jobs.coarse", root, o.Sent, o.Coarse)
		}
		if o.Route != "render" {
			continue
		}
		renders++
		switch {
		case o.NotMod:
			notMod++
			floor = append(floor, ms(o.service()))
		case o.Cache == "hit":
			hit = append(hit, ms(o.service()))
		case o.OK:
			miss = append(miss, ms(o.service()))
		}
	}
	var baseLat []float64
	for i := range base {
		if base[i].Attempt {
			baseLat = append(baseLat, ms(base[i].latency()))
		}
	}
	floorP50, missP50 := quantile(floor, 0.5), quantile(miss, 0.5)
	sub := 0.0
	if len(floor) > 0 && len(miss) > 0 {
		sub = missP50 - floorP50
	}
	m["sfcserved.floor_ms_p50"] = metric{floorP50, "ms"}
	m["render.miss_ms_p50"] = metric{missP50, "ms"}
	m["sfcserved.kernel_by_subtraction_ms"] = metric{sub, "ms"}
	m["rcache.hit_ms_p50"] = metric{quantile(hit, 0.5), "ms"}
	m["rcache.not_modified_ratio"] = metric{ratio(float64(notMod), float64(renders)), "ratio"}
	m["loadgen.lag_p99_ms"] = metric{quantile(lag, 0.99), "ms"}
	m["fail_ratio"] = metric{ratio(float64(failed), float64(attempted)), "ratio"}
	offP50 := quantile(baseLat, 0.5)
	m["obs.overhead_pct"] = metric{100 * ratio(quantile(lat, 0.5)-offP50, offP50), "%"}
}

// logRecord is one JSON access-log line: "request" carries the route,
// status and total; "slow request" (every request, at -slow-log 1ns)
// the full span tree.
type logRecord struct {
	Time      time.Time `json:"time"`
	Msg       string    `json:"msg"`
	RequestID string    `json:"request_id"`
	Route     string    `json:"route"`
	Status    int       `json:"status"`
	TotalS    float64   `json:"total_s"`
	// Stages sums the depth-0 stages the trace kept; SpansDropped counts
	// spans lost to the trace's fixed slot array.
	Stages       map[string]float64 `json:"stages"`
	SpansDropped int                `json:"spans_dropped"`
	Spans        map[string]struct {
		Name   string  `json:"name"`
		Worker int     `json:"worker"`
		Depth  int     `json:"depth"`
		StartS float64 `json:"start_s"`
		DurS   float64 `json:"dur_s"`
	} `json:"spans"`
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// serverSpans rebuilds the stage tree of every request finished in
// [start, end] (worker item spans are left out; the parent of a stage
// is the latest stage one level up) and returns the spans named
// route:stage, each route's request totals (ms) keyed route:status,
// and, per route, the time (ms) of requests whose trace dropped spans
// that no kept stage covers.
func serverSpans(lines [][]byte, start, end time.Time) ([]span, map[string][]float64, map[string][]float64, error) {
	var spans []span
	totals, uncovered := map[string][]float64{}, map[string][]float64{}
	for _, line := range lines {
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var rec logRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, nil, nil, fmt.Errorf("access log line %.80q: %w", line, err)
		}
		if rec.Time.Before(start) || rec.Time.After(end.Add(time.Second)) {
			continue
		}
		switch rec.Msg {
		case "request":
			k := rec.Route + ":" + strconv.Itoa(rec.Status)
			totals[k] = append(totals[k], rec.TotalS*1000)
			if rec.SpansDropped > 0 {
				rest := rec.TotalS
				for _, d := range rec.Stages {
					rest -= d
				}
				uncovered[rec.Route] = append(uncovered[rec.Route], rest*1000)
			}
		case "slow request":
			// The server records a stage when it ends, so a child precedes
			// its parent in the dump; in start order (parents first on a
			// tie) each stage's parent is the latest one a level up.
			type stageSpan struct {
				name       string
				depth      int
				start, end time.Duration
			}
			var stages []stageSpan
			for _, sp := range rec.Spans {
				if sp.Worker < 0 {
					stages = append(stages, stageSpan{sp.Name, sp.Depth, secs(sp.StartS), secs(sp.StartS + sp.DurS)})
				}
			}
			sort.Slice(stages, func(i, j int) bool {
				if stages[i].start != stages[j].start {
					return stages[i].start < stages[j].start
				}
				return stages[i].depth < stages[j].depth
			})
			var open []int // open[d] = ID of the latest stage at depth d
			for _, st := range stages {
				parent := -1
				if st.depth > 0 && st.depth <= len(open) {
					parent = open[st.depth-1]
				}
				id := len(spans)
				spans = append(spans, span{ID: id, Parent: parent, Name: rec.Route + ":" + st.name, Start: st.start, End: st.end})
				open = append(open[:min(st.depth, len(open))], id)
			}
		}
	}
	return spans, totals, uncovered, nil
}

// serverMetrics reduces the traced phase's access log to the envelope,
// admission, resolve and kernel stage metrics.
func serverMetrics(m map[string]metric, lines [][]byte, start, end time.Time) error {
	spans, totals, uncovered, err := serverSpans(lines, start, end)
	if err != nil {
		return err
	}
	self := selfTimes(spans)
	stage := func(stage string, routes ...string) []float64 {
		var out []float64
		for name, ds := range self {
			route, st, _ := strings.Cut(name, ":")
			if st != stage {
				continue
			}
			if len(routes) > 0 && !contains(routes, route) {
				continue
			}
			out = append(out, msAll(ds)...)
		}
		return out
	}
	p50 := func(xs []float64) float64 { return quantile(xs, 0.5) }
	m["sfcserved.decode_ms_p50"] = metric{p50(stage("decode")), "ms"}
	m["sfcserved.digest_ms_p50"] = metric{p50(stage("digest")), "ms"}
	m["sfcserved.encode_ms_p50"] = metric{p50(stage("encode")), "ms"}
	slot := stage("admission.slot")
	m["admission.slot_wait_ms_p50"] = metric{p50(slot), "ms"}
	m["admission.slot_wait_ms_p99"] = metric{quantile(slot, 0.99), "ms"}
	resolve := stage("resolve")
	m["grid.resolve_ms_p50"] = metric{p50(resolve), "ms"}
	m["grid.resolve_count"] = metric{float64(len(resolve)), "count"}
	// A 24³ filter runs 576 pencils; their spans fill the trace's slots
	// before the kernel stage closes, so that stage span is lost and its
	// time is what the kept stages leave uncovered (kernel plus storing
	// the dst).
	m["filter.kernel_ms_p50"] = metric{p50(append(stage("kernel", "filter"), uncovered["filter"]...)), "ms"}
	m["render.kernel_ms_p50"] = metric{p50(stage("kernel", "render", "job")), "ms"}
	for route, key := range map[string]string{"render": "render:200", "filter": "filter:200", "jobs": "jobs:202", "put": "volumes:201"} {
		m["sfcserved.route."+route+".p99_ms"] = metric{quantile(totals[key], 0.99), "ms"}
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// scrapeMetrics turns /metrics deltas over the traced phase into the
// rcache, store, admission and jobs counts.
func scrapeMetrics(m map[string]metric, m0, m1 map[string]json.RawMessage) {
	d := func(name string) float64 { return number(m1[name]) - number(m0[name]) }
	m["admission.rejected"] = metric{d("admission.rejected"), "count"}
	m["admission.deadline_exceeded"] = metric{d("deadline.exceeded"), "count"}
	hits, misses := d("cache.hits"), d("cache.misses")
	m["rcache.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["rcache.coalesced"] = metric{d("cache.coalesced"), "count"}
	m["rcache.evictions"] = metric{d("cache.evictions"), "count"}
	shits, smisses := d("store.hits"), d("store.misses")
	m["store.hit_ratio"] = metric{ratio(shits, shits+smisses), "ratio"}
	m["store.loads"] = metric{d("store.loads"), "count"}
	m["store.writes"] = metric{d("store.writes"), "count"}
	m["store.evictions"] = metric{d("store.evictions"), "count"}
	loadSum := histSum(m1["store.load_latency"]) - histSum(m0["store.load_latency"])
	m["store.load_ms_p50"] = metric{histP50(m0["store.load_latency"], m1["store.load_latency"]), "ms"}
	m["store.load_mb_s"] = metric{ratio(d("store.load_bytes")/1e6, loadSum), "MB/s"}
	putSum := histSum(m1["http.volumes.latency"]) - histSum(m0["http.volumes.latency"])
	m["store.persist_mb_s"] = metric{ratio(d("store.write_bytes")/1e6, putSum), "MB/s"}
	m["jobs.batch_size_mean"] = metric{ratio(d("jobs.submitted"), d("jobs.batches")), "count"}
	m["jobs.server_ttfb_ms_p50"] = metric{histP50(m0["jobs.ttfb"], m1["jobs.ttfb"]), "ms"}
}

// number reads a /metrics value: a bare number (gauge) or a counter's
// total; absent metrics (a layer the server runs without) read 0.
func number(raw json.RawMessage) float64 {
	var f float64
	if json.Unmarshal(raw, &f) == nil {
		return f
	}
	var c struct{ Total float64 }
	if json.Unmarshal(raw, &c) == nil {
		return c.Total
	}
	return 0
}

type histogram struct {
	SumS    float64          `json:"sum_s"`
	Buckets map[string]int64 `json:"buckets"`
}

func histSum(raw json.RawMessage) float64 {
	var h histogram
	json.Unmarshal(raw, &h) //nolint:errcheck // absent reads as empty
	return h.SumS
}

// histP50 is the median of the observations a histogram gained between
// two scrapes, at the resolution of its log2 buckets (the bucket's
// upper bound).
func histP50(raw0, raw1 json.RawMessage) float64 {
	var h0, h1 histogram
	json.Unmarshal(raw0, &h0) //nolint:errcheck // absent reads as empty
	json.Unmarshal(raw1, &h1) //nolint:errcheck // absent reads as empty
	type bucket struct {
		le time.Duration
		n  int64
	}
	var bs []bucket
	var total int64
	for k, n := range h1.Buckets {
		le, err := time.ParseDuration(strings.TrimPrefix(k, "le_"))
		if err != nil {
			continue
		}
		n -= h0.Buckets[k]
		bs = append(bs, bucket{le, n})
		total += n
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	var cum int64
	for _, b := range bs {
		cum += b.n
		if total > 0 && 2*cum >= total {
			return ms(b.le)
		}
	}
	return 0
}
