package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"

	"sfcmem"
)

// buildRenderHot: four 64³ float32 phantoms (one per layout) and 128
// render keys (volume × 8 views × 2 sizes × 2 dtypes) requested with a
// Zipf (s=1.1) skew; 12% of requests are render jobs, and a quarter of the
// synchronous repeats revalidate with If-None-Match.
func buildRenderHot(ctx context.Context, seed uint64) (*plan, error) {
	const n = 64
	base := sfcmem.MRIPhantomAny(sfcmem.F32, arrayGrid(n), seed, 0.05)
	body, err := rawBody(base)
	if err != nil {
		return nil, err
	}
	p := &plan{}
	var vols []string
	for _, spec := range layoutSpecs(n) {
		name := "hot-" + layoutTag(spec)
		vols = append(vols, name)
		p.uploads = append(p.uploads, putRequest(name, spec, base, body))
	}
	type key struct {
		vol string
		fr  *framing
	}
	// Popularity ranks cycle through the four (dtype, size) classes and
	// the seed shuffles volume × view within each class, so every seed
	// puts the same mix of frame costs at each rank.
	var classes [][]key
	perm := rand.New(rand.NewPCG(seed, streamPlan))
	for _, dt := range []sfcmem.Dtype{sfcmem.F32, sfcmem.U8} {
		g := base.Convert(dt)
		for _, size := range []int{64, 128} {
			var class []key
			for view := 0; view < 8; view++ {
				fr := &framing{view: view, views: 8, size: size, dtype: dt.String(), format: "png"}
				if err := fillRefs(ctx, g, fr); err != nil {
					return nil, err
				}
				for _, v := range vols {
					class = append(class, key{v, fr})
				}
			}
			perm.Shuffle(len(class), func(i, j int) { class[i], class[j] = class[j], class[i] })
			classes = append(classes, class)
		}
	}
	var keys []key
	for i := range classes[0] {
		for _, class := range classes {
			keys = append(keys, class[i])
		}
	}
	p.draw = func(s *stream) *request {
		if s.zipf == nil {
			s.zipf = rand.NewZipf(s.rng, 1.1, 1, uint64(len(keys)-1))
		}
		k := keys[s.zipf.Uint64()]
		job := s.rng.Float64() < 0.12
		cond := s.rng.Float64() < 0.25
		return k.fr.renderReq(k.vol, job, cond)
	}
	return p, nil
}

// filterConfig is one /filter parameter set of the filter-layouts mix.
type filterConfig struct {
	tag, kernel string
	radius      int
	dtype       sfcmem.Dtype
	weight      float64
	frames      []*framing // check-render references of the filtered output
}

// buildFilterLayouts: four 24³ float32 phantoms (one per layout) and a
// 16³ tuning volume. 90% of requests are synchronous bilateral (r1-r3)
// or Gaussian filters at float32 or uint8 into per-config dst volumes;
// 10% are render jobs (raw frames) of a dst, checked against the
// in-process filtered reference; every 100th request (400th in the
// closed loop) is a small bulk apply=false tune of the 16³ volume on one
// worker, submitted without waiting, and 80 (320) requests later its
// result is checked.
func buildFilterLayouts(ctx context.Context, seed uint64) (*plan, error) {
	const n = 24
	base := sfcmem.MRIPhantomAny(sfcmem.F32, arrayGrid(n), seed, 0.05)
	body, err := rawBody(base)
	if err != nil {
		return nil, err
	}
	p := &plan{}
	var srcs []string
	for _, spec := range layoutSpecs(n) {
		name := "flt-" + layoutTag(spec)
		srcs = append(srcs, name)
		p.uploads = append(p.uploads, putRequest(name, spec, base, body))
	}
	t16 := sfcmem.MRIPhantomAny(sfcmem.F32, arrayGrid(16), seed, 0.05)
	t16body, err := rawBody(t16)
	if err != nil {
		return nil, err
	}
	p.uploads = append(p.uploads, putRequest("t16", "zorder", t16, t16body))

	// b3 is the slowest class. At about 5% of requests the open loop's
	// p99 falls inside its latencies; at 3% the p99 sat on the edge
	// between it and the check-render jobs and jumped between the two
	// from seed to seed.
	cfgs := []*filterConfig{
		{tag: "b1", kernel: "bilateral", radius: 1, dtype: sfcmem.F32, weight: 40},
		{tag: "b1u8", kernel: "bilateral", radius: 1, dtype: sfcmem.U8, weight: 20},
		{tag: "b2", kernel: "bilateral", radius: 2, dtype: sfcmem.F32, weight: 10},
		{tag: "b2u8", kernel: "bilateral", radius: 2, dtype: sfcmem.U8, weight: 5},
		{tag: "b3", kernel: "bilateral", radius: 3, dtype: sfcmem.F32, weight: 6},
		{tag: "g2", kernel: "gaussian", radius: 2, dtype: sfcmem.F32, weight: 12},
		{tag: "g2u8", kernel: "gaussian", radius: 2, dtype: sfcmem.U8, weight: 10},
	}
	var total float64
	for _, c := range cfgs {
		total += c.weight
		src := base.Convert(c.dtype)
		dst := sfcmem.NewAnyGrid(c.dtype, arrayGrid(n))
		kernel := sfcmem.BilateralAnyCtx
		if c.kernel == "gaussian" {
			kernel = sfcmem.GaussianConvolveAnyCtx
		}
		if err := kernel(ctx, src, dst, sfcmem.FilterOptions{Radius: c.radius, Axis: sfcmem.AxisX, Workers: runtime.GOMAXPROCS(0)}); err != nil {
			return nil, err
		}
		for view := 0; view < 4; view++ {
			fr := &framing{view: view, views: 4, size: 64, format: "raw"}
			if err := fillRefs(ctx, dst, fr); err != nil {
				return nil, err
			}
			c.frames = append(c.frames, fr)
		}
	}
	filterReq := func(src string, c *filterConfig) *request {
		dst := src + "." + c.tag
		return &request{
			Route: "filter", Method: "POST", Path: "/filter",
			Body: mustJSON(map[string]any{"src": src, "dst": dst, "kernel": c.kernel, "radius": c.radius, "dtype": c.dtype.String()}),
			Want: expect{Volume: dst, Dtype: c.dtype.String()},
		}
	}
	// Warm-up writes every dst once, so check renders never race the
	// first filter into a volume.
	for _, src := range srcs {
		for _, c := range cfgs {
			p.warm = append(p.warm, filterReq(src, c))
		}
	}
	pick := func(rng *rand.Rand) *filterConfig {
		x := rng.Float64() * total
		for _, c := range cfgs {
			if x -= c.weight; x < 0 {
				return c
			}
		}
		return cfgs[len(cfgs)-1]
	}
	// Ten small tunes per open loop on one worker, not four of the
	// default size on two: a tune slows the requests that arrive while it
	// runs, and with four the p99 hung on which classes the seed happened
	// to put in those four windows. The closed loop runs about four times
	// the open loop's rate, so it spaces tunes four times wider: tunes
	// stay a background load of about the same rate per second, and a
	// check never holds a connection waiting for a tune still running.
	const tuneEvery, tuneAt, checkAt = 100, 10, 90
	p.draw = func(s *stream) *request {
		k := 1
		if s.id == streamClosed {
			k = 4
		}
		switch s.n % (k * tuneEvery) {
		case k * tuneAt:
			return &request{
				Route: "tune", Method: "POST", Path: "/volumes/t16/tune",
				Body: mustJSON(map[string]any{"apply": false, "priority": "bulk", "workers": 1, "population": 4, "generations": 2}),
			}
		case k * checkAt:
			return &request{Route: "tunecheck", Method: "GET"}
		}
		src := srcs[s.rng.IntN(len(srcs))]
		c := pick(s.rng)
		if s.rng.Float64() < 0.10 {
			fr := c.frames[s.rng.IntN(len(c.frames))]
			return fr.renderReq(src+"."+c.tag, true, false)
		}
		return filterReq(src, c)
	}
	return p, nil
}

// buildStoreChurn: eight 128³ uint8 volumes (phantom and plume, each
// in the four layouts) read by 32² renders, 12% of them as render jobs;
// one request in four uploads a 64³ volume under one of four names.
func buildStoreChurn(ctx context.Context, seed uint64) (*plan, error) {
	const n, wn = 128, 64
	datasets := []*sfcmem.AnyGrid{
		sfcmem.MRIPhantomAny(sfcmem.U8, arrayGrid(n), seed, 0.05),
		sfcmem.CombustionPlumeAny(sfcmem.U8, arrayGrid(n), seed),
	}
	writes := []*sfcmem.AnyGrid{
		sfcmem.MRIPhantomAny(sfcmem.U8, arrayGrid(wn), seed+1, 0.05),
		sfcmem.CombustionPlumeAny(sfcmem.U8, arrayGrid(wn), seed+1),
	}
	p := &plan{}
	specs := layoutSpecs(n)
	type reader struct {
		vol    string
		frames []*framing
	}
	var readers []reader
	for d, g := range datasets {
		body, err := rawBody(g)
		if err != nil {
			return nil, err
		}
		var frs []*framing
		for view := 0; view < 4; view++ {
			fr := &framing{view: view, views: 4, size: 32, dtype: "uint8", format: "png"}
			if err := fillRefs(ctx, g, fr); err != nil {
				return nil, err
			}
			frs = append(frs, fr)
		}
		for _, spec := range specs {
			name := fmt.Sprintf("sc-%d-%s", d, layoutTag(spec))
			readers = append(readers, reader{name, frs})
			p.uploads = append(p.uploads, putRequest(name, spec, g, body))
		}
	}
	var puts []*request
	wspecs := layoutSpecs(wn)
	for i := 0; i < 4; i++ {
		g := writes[i%2]
		body, err := rawBody(g)
		if err != nil {
			return nil, err
		}
		puts = append(puts, putRequest(fmt.Sprintf("w%d", i), wspecs[i], g, body))
	}
	p.draw = func(s *stream) *request {
		if s.rng.Float64() < 0.25 {
			return puts[s.rng.IntN(len(puts))]
		}
		rd := readers[s.rng.IntN(len(readers))]
		fr := rd.frames[s.rng.IntN(len(rd.frames))]
		return fr.renderReq(rd.vol, s.rng.Float64() < 0.12, false)
	}
	return p, nil
}
