package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sfcmem"
	"sfcmem/internal/cache"
	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
	"sfcmem/internal/rcache"
	"sfcmem/internal/render"
	"sfcmem/internal/store"
	"sfcmem/internal/tune"
)

// probeSeed fixes the probes' inputs: the simulated cache counts must
// repeat exactly from run to run, whatever the workload seed.
const probeSeed = 1

// probes times the layers HTTP cannot separate by calling their public
// functions in this process, each inside a probe span.
func (b *bench) probes(ctx context.Context, m map[string]metric) error {
	steps := []struct {
		name string
		f    func(context.Context, map[string]metric) error
	}{
		{"probe.core.index", probeIndex},
		{"probe.filter", probeFilter},
		{"probe.render", probeRender},
		{"probe.parallel", probeImbalance},
		{"probe.cache", probeCacheSim},
		{"probe.multires", probeSubsample},
		{"probe.tune", probeTune},
		{"probe.rcache", probeRcache},
		{"probe.store", func(ctx context.Context, m map[string]metric) error { return probeStore(ctx, m, b.runDir) }},
	}
	for _, s := range steps {
		if err := b.rec.time(s.name, func() error { return s.f(ctx, m) }); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// medianOf runs f reps times and returns the median duration.
func medianOf(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(quantile(ds, 0.5)), nil
}

func probeLayout(tag string, n int) (sfcmem.Layout, error) {
	switch tag {
	case "bit":
		return sfcmem.NewBitLayout(n, n, n, core.RoundRobinSpec(n, n, n))
	case "ztiled":
		return sfcmem.NewZTiledLayout(n, n, n, core.DefaultBrick), nil
	}
	kind, err := sfcmem.ParseLayout(tag)
	if err != nil {
		return nil, err
	}
	return sfcmem.NewLayout(kind, n, n, n), nil
}

var indexSink int

// probeIndex: ns per Index call through the Layout interface, 2^20
// calls (a 64³ sweep, four times) per timed op.
func probeIndex(_ context.Context, m map[string]metric) error {
	const n, sweeps = 64, 4
	for _, tag := range indexLayouts {
		l, err := probeLayout(tag, n)
		if err != nil {
			return err
		}
		d, err := medianOf(5, func() error {
			s := 0
			for r := 0; r < sweeps; r++ {
				for k := 0; k < n; k++ {
					for j := 0; j < n; j++ {
						for i := 0; i < n; i++ {
							s += l.Index(i, j, k)
						}
					}
				}
			}
			indexSink = s
			return nil
		})
		if err != nil {
			return err
		}
		m["core.index_ns."+tag] = metric{float64(d) / (sweeps * n * n * n), "ns"}
	}
	return nil
}

// probeGrids builds the probe phantom at n³ in every probe layout.
func probeGrids(n int, dt sfcmem.Dtype) (map[string]*sfcmem.AnyGrid, error) {
	base := sfcmem.MRIPhantomAny(dt, arrayGrid(n), probeSeed, 0.05)
	out := map[string]*sfcmem.AnyGrid{}
	for _, tag := range probeLayouts {
		l, err := probeLayout(tag, n)
		if err != nil {
			return nil, err
		}
		if out[tag], err = base.Relayout(l); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeFilter: bilateral r2 on one worker, ns per voxel, per layout and
// dtype, on the filter-layouts volume size.
func probeFilter(ctx context.Context, m map[string]metric) error {
	const n = 32
	for _, name := range probeDtypes {
		dt, err := sfcmem.ParseDtype(name)
		if err != nil {
			return err
		}
		grids, err := probeGrids(n, dt)
		if err != nil {
			return err
		}
		for _, tag := range probeLayouts {
			src := grids[tag]
			dst := sfcmem.NewAnyGrid(dt, src.Layout())
			d, err := medianOf(3, func() error {
				return sfcmem.BilateralAnyCtx(ctx, src, dst, sfcmem.FilterOptions{Radius: 2, Workers: 1})
			})
			if err != nil {
				return err
			}
			m["filter.ns_per_voxel."+tag+"."+name] = metric{float64(d) / (n * n * n), "ns"}
		}
	}
	return nil
}

// probeRender: one-worker raycast of the render-hot volume at 64², ns
// per ray, per layout.
func probeRender(ctx context.Context, m map[string]metric) error {
	const n, size = 64, 64
	grids, err := probeGrids(n, sfcmem.F32)
	if err != nil {
		return err
	}
	cam := sfcmem.Orbit(1, 8, n, n, n, size, size)
	for _, tag := range probeLayouts {
		d, err := medianOf(3, func() error {
			_, err := sfcmem.RenderAnyCtx(ctx, grids[tag], cam, sfcmem.DefaultTransferFunc(), sfcmem.RenderOptions{Workers: 1})
			return err
		})
		if err != nil {
			return err
		}
		m["render.ns_per_ray."+tag] = metric{float64(d) / (size * size), "ns"}
	}
	return nil
}

// busy sums each worker's item time from a kernel's work observer.
type busy struct {
	mu sync.Mutex
	by map[int]time.Duration
}

func (b *busy) observe(worker, _ int, _ time.Time, d time.Duration) {
	b.mu.Lock()
	b.by[worker] += d
	b.mu.Unlock()
}

// factor is max/mean worker busy time.
func (b *busy) factor() float64 {
	var sum, mx time.Duration
	for _, d := range b.by {
		sum += d
		mx = max(mx, d)
	}
	if sum == 0 {
		return 0
	}
	return float64(mx) / (float64(sum) / float64(len(b.by)))
}

// probeImbalance: load imbalance of the kernels' schedulers on two
// workers (bilateral pencils, render tiles), median of 5 runs.
func probeImbalance(ctx context.Context, m map[string]metric) error {
	grids, err := probeGrids(64, sfcmem.F32)
	if err != nil {
		return err
	}
	g := grids["zorder"]
	dst := sfcmem.NewAnyGrid(sfcmem.F32, g.Layout())
	cam := sfcmem.Orbit(1, 8, 64, 64, 64, 128, 128)
	runs := map[string]func(context.Context) error{
		"filter": func(ctx context.Context) error {
			return sfcmem.BilateralAnyCtx(ctx, g, dst, sfcmem.FilterOptions{Radius: 1, Workers: 2})
		},
		"render": func(ctx context.Context) error {
			_, err := sfcmem.RenderAnyCtx(ctx, g, cam, sfcmem.DefaultTransferFunc(), sfcmem.RenderOptions{Workers: 2})
			return err
		},
	}
	for name, f := range runs {
		var fs []float64
		for i := 0; i < 5; i++ {
			b := &busy{by: map[int]time.Duration{}}
			if err := f(sfcmem.WithWorkObserver(ctx, b.observe)); err != nil {
				return err
			}
			fs = append(fs, b.factor())
		}
		m["parallel.imbalance."+name] = metric{quantile(fs, 0.5), "ratio"}
	}
	return nil
}

// probeCacheSim replays bilateral r1 and a volrend frame over a 64³
// float32 phantom (source and destination together outgrow L2) through the IvyBridge cache simulator, one simulated
// thread, and reports misses per voxel at each level and the memory
// traffic (64 B per memory fill).
func probeCacheSim(ctx context.Context, m map[string]metric) error {
	const n, lineBytes = 64, 64
	grids, err := probeGrids(n, sfcmem.F32)
	if err != nil {
		return err
	}
	voxels := float64(n * n * n)
	for _, tag := range probeLayouts {
		src := sfcmem.Grids[float32](grids[tag])
		for _, kernel := range []string{"bilateral", "volrend"} {
			sys := cache.NewSystem(cache.IvyBridge(), 1)
			view := grid.NewTraced(src, 0, sys.Front(0))
			switch kernel {
			case "bilateral":
				dst := grid.New(src.Layout())
				err = filter.ApplyViewsCtx(ctx, []grid.Reader{view},
					[]grid.Writer{grid.NewTraced(dst, 1<<40, sys.Front(0))}, filter.Options{Radius: 1, Workers: 1})
			case "volrend":
				cam := render.Orbit(1, 8, n, n, n, 64, 64)
				_, err = render.RenderViewsCtx(ctx, []grid.Reader{view}, cam, render.DefaultTransferFunc(), render.Options{Workers: 1})
			}
			if err != nil {
				return err
			}
			rep := sys.Report()
			p := "cache." + kernel + "."
			m[p+"l1_miss_per_voxel."+tag] = metric{float64(rep.PrivateTotal[0].Misses) / voxels, "count"}
			m[p+"l2_miss_per_voxel."+tag] = metric{float64(rep.PrivateTotal[1].Misses) / voxels, "count"}
			m[p+"l3_miss_per_voxel."+tag] = metric{float64(rep.Shared.Misses) / voxels, "count"}
			m[p+"mem_bytes_per_voxel."+tag] = metric{float64(lineBytes*(rep.MemReads+rep.MemPrefetchReads)) / voxels, "B"}
		}
	}
	return nil
}

// probeSubsample: the coarse-preview subsample of a 64³ volume at
// level 2, as a render job's batch set-up runs it.
func probeSubsample(_ context.Context, m map[string]metric) error {
	grids, err := probeGrids(64, sfcmem.F32)
	if err != nil {
		return err
	}
	target := func(nx, ny, nz int) sfcmem.Layout { return sfcmem.NewLayout(sfcmem.ZOrder, nx, ny, nz) }
	d, err := medianOf(7, func() error {
		_, err := sfcmem.SubsampleAny(grids["zorder"], coarseLevel, target)
		return err
	})
	m["multires.subsample_ms"] = metric{ms(d), "ms"}
	return err
}

// probeTune: the service's default interleave search on a 16³ float32
// bilateral volume, fixed seed.
func probeTune(_ context.Context, m map[string]metric) error {
	cfg := tune.InterleaveConfig{
		Nx: 16, Ny: 16, Nz: 16, Seed: probeSeed,
		Kernel:   tune.KernelBilateral,
		Dtype:    grid.F32,
		Options:  filter.Options{Radius: 1, Axis: parallel.AxisZ, Order: filter.ZYX, Workers: 2},
		Platform: cache.Scaled(cache.IvyBridge(), 32),
		// The service's defaults for POST /volumes/{name}/tune.
		Population: 8, Generations: 3,
	}
	start := time.Now()
	res, err := tune.Interleave(cfg)
	if err != nil {
		return err
	}
	m["tune.search_s"] = metric{time.Since(start).Seconds(), "s"}
	m["tune.candidates"] = metric{float64(len(res.Evals)), "count"}
	return nil
}

var doSink rcache.Value

// probeRcache: Cache.Do on a resident key, 10^5 calls per timed op.
func probeRcache(ctx context.Context, m map[string]metric) error {
	const calls = 100000
	c := rcache.New(1 << 20)
	fill := func(context.Context) (rcache.Value, error) {
		return rcache.Value{Body: make([]byte, 4096), ContentType: "image/png"}, nil
	}
	if _, _, err := c.Do(ctx, "k", fill); err != nil {
		return err
	}
	d, err := medianOf(5, func() error {
		for i := 0; i < calls; i++ {
			v, _, err := c.Do(ctx, "k", fill)
			if err != nil {
				return err
			}
			doSink = v
		}
		return nil
	})
	m["rcache.do_hit_ns"] = metric{float64(d) / calls, "ns"}
	return err
}

var getSink *store.Volume

// probeStore: Get of a resident volume from a disk-backed store
// (Open, Put, then 10^5 Gets per timed op).
func probeStore(_ context.Context, m map[string]metric, dir string) error {
	const calls = 100000
	dir = filepath.Join(dir, "probe-store")
	defer os.RemoveAll(dir)
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	g := sfcmem.MRIPhantomAny(sfcmem.F32, sfcmem.NewLayout(sfcmem.ZOrder, 32, 32, 32), probeSeed, 0.05)
	if err := s.Put(&store.Volume{Name: "probe", Dataset: "phantom", Layout: "zorder", Grid: g}); err != nil {
		return err
	}
	d, err := medianOf(5, func() error {
		for i := 0; i < calls; i++ {
			v, err := s.Get("probe")
			if err != nil {
				return err
			}
			getSink = v
		}
		return nil
	})
	m["store.get_warm_ns"] = metric{float64(d) / calls, "ns"}
	return err
}
