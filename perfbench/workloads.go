package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"runtime"
	"strings"
	"time"

	"sfcmem"
	"sfcmem/internal/core"
)

// workload is one traffic mix against one server configuration. The
// offered rate is 20-40% of the closed-loop capacity measured on a
// 2-CPU host: far enough below saturation that the open loop's
// queueing, and so its latency percentiles, stay steady when other
// tenants take some of the host's CPU, and high enough that the open
// loop holds at least 1000 requests.
type workload struct {
	name    string
	rate    float64       // offered open-loop requests per second
	limit   time.Duration // latency limit a request must meet to count as goodput
	flags   []string      // sfcserved flags besides the listeners and -obs-off
	dataDir bool          // give each server start a fresh -data-dir
	build   func(ctx context.Context, seed uint64) (*plan, error)
}

var workloads = []*workload{
	{
		// Response cache and request envelope: most requests are hits or
		// 304s; misses and progressive jobs keep volrend, job batching and
		// multires in the path. The cache holds about a third of the
		// distinct-response bytes, so LRU eviction keeps the miss share
		// steady. The store is RAM-only, so store changes should not move it.
		name:  "render-hot",
		rate:  40,
		limit: 100 * time.Millisecond,
		flags: []string{"-cache-bytes", "512000"},
		build: buildRenderHot,
	},
	{
		// Kernels, index resolution (uint8 requests), the memory
		// hierarchy and admission queueing: synchronous filters on the
		// four layouts, render jobs checking the written dsts, and a
		// periodic bulk tune holding an admission slot. Cache off.
		name:  "filter-layouts",
		rate:  40,
		limit: 150 * time.Millisecond,
		build: buildFilterLayouts,
	},
	{
		// The disk tier: eight 128³ volumes against a RAM budget of about
		// two, so most reads demand-load bricks; one request in four
		// uploads a 64³ volume that persists and evicts readers. Kernels
		// are cheap here, so kernel changes should barely move it.
		name:    "store-churn",
		rate:    60,
		limit:   120 * time.Millisecond,
		flags:   []string{"-store-ram-bytes", fmt.Sprint(9 << 19)},
		dataDir: true,
		build:   buildStoreChurn,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// plan is a workload instantiated for one seed: the volumes uploaded
// at setup, the requests that warm the server before measuring, and
// the mix every measured request is drawn from.
type plan struct {
	uploads []*request
	warm    []*request
	draw    func(s *stream) *request
}

// stream is one seeded request sequence of a plan.
type stream struct {
	rng  *rand.Rand
	zipf *rand.Zipf // key popularity, for mixes that skew it
	n    int        // requests drawn so far
	id   uint64     // streamOpen, streamClosed, ...
	p    *plan
}

// Stream IDs keep the warm-up, open-loop and closed-loop sequences of
// one seed independent of each other.
const (
	streamOpen uint64 = iota + 1
	streamClosed
	streamWarm
	streamPlan
)

func newStream(p *plan, seed, id uint64) *stream {
	return &stream{rng: rand.New(rand.NewPCG(seed, id)), id: id, p: p}
}

func (s *stream) next() *request {
	r := s.p.draw(s)
	s.n++
	return r
}

// schedule is the open-loop phase: requests at a constant rate for dur,
// drawn from the seed's open-loop stream.
func schedule(p *plan, seed uint64, rate float64, dur time.Duration) []*request {
	s := newStream(p, seed, streamOpen)
	n := int(rate * dur.Seconds())
	out := make([]*request, n)
	for i := range out {
		r := *s.next()
		r.At = time.Duration(float64(i) / rate * float64(time.Second))
		out[i] = &r
	}
	return out
}

// layoutSpecs are the four layouts every workload stores: row-major,
// Z order, Z-ordered bricks, and Z order's interleave through the
// generic BitLayout path.
func layoutSpecs(n int) []string {
	return []string{"array", "zorder", "ztiled", core.BitSpecPrefix + core.RoundRobinSpec(n, n, n)}
}

// layoutTag names a layout spec in volume and metric names.
func layoutTag(spec string) string {
	if strings.HasPrefix(spec, core.BitSpecPrefix) {
		return "bit"
	}
	return spec
}

// rawBody serializes g as the row-major little-endian upload payload.
func rawBody(g *sfcmem.AnyGrid) ([]byte, error) {
	var buf bytes.Buffer
	if err := sfcmem.SaveRawAny(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func putRequest(name, layout string, g *sfcmem.AnyGrid, body []byte) *request {
	nx, ny, nz := g.Dims()
	q := url.Values{}
	q.Set("dtype", g.Dtype().String())
	q.Set("layout", layout)
	q.Set("nx", fmt.Sprint(nx))
	q.Set("ny", fmt.Sprint(ny))
	q.Set("nz", fmt.Sprint(nz))
	return &request{
		Route: "put", Method: "PUT", Path: "/volumes/" + url.PathEscape(name) + "?" + q.Encode(), Body: body,
		Want: expect{Volume: name, Dtype: g.Dtype().String(), Nx: nx},
	}
}

func arrayGrid(n int) sfcmem.Layout { return sfcmem.NewLayout(sfcmem.Array, n, n, n) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and numbers always marshal
	}
	return b
}

// framing is one camera + output choice; frames are layout-invariant,
// so one reference per framing covers a volume in every layout.
type framing struct {
	view, views, size int
	dtype, format     string
	full, coarse      string // sha256 of the reference frames
}

func (f *framing) body(vol string) map[string]any {
	return map[string]any{
		"volume": vol, "view": f.view, "views": f.views,
		"width": f.size, "height": f.size, "dtype": f.dtype, "format": f.format,
	}
}

func (f *framing) key(vol string) string {
	return fmt.Sprintf("%s/v%d/%d/%s/%s", vol, f.view, f.size, f.dtype, f.format)
}

// renderReq is a synchronous render, or as a job the same render
// watched over SSE through its coarse preview to the refined frame.
func (f *framing) renderReq(vol string, job, cond bool) *request {
	r := &request{Key: f.key(vol), Want: expect{Frame: f.full, Coarse: f.coarse}}
	if job {
		r.Route, r.Method, r.Path = "jobs", "POST", "/jobs"
		r.Body = mustJSON(map[string]any{"op": "render", "priority": "interactive", "render": f.body(vol)})
		return r
	}
	r.Route, r.Method, r.Path, r.Cond = "render", "POST", "/render", cond
	r.Body = mustJSON(f.body(vol))
	return r
}

// coarseLevel is the server's default preview level for render jobs.
const coarseLevel = 2

// fillRefs computes the reference frames of fr over g (already at the
// framing's dtype): the full frame and the job's coarse preview.
func fillRefs(ctx context.Context, g *sfcmem.AnyGrid, fr *framing) error {
	var err error
	if fr.full, err = frameSum(ctx, g, fr, fr.size); err != nil {
		return err
	}
	c, err := sfcmem.SubsampleAny(g, coarseLevel, func(nx, ny, nz int) sfcmem.Layout {
		return sfcmem.NewLayout(sfcmem.Array, nx, ny, nz)
	})
	if err != nil {
		return err
	}
	fr.coarse, err = frameSum(ctx, c, fr, max(16, fr.size>>coarseLevel))
	return err
}

// frameSum renders g under fr's camera at size² and hashes the frame
// encoded the way the server encodes it.
func frameSum(ctx context.Context, g *sfcmem.AnyGrid, fr *framing, size int) (string, error) {
	nx, ny, nz := g.Dims()
	cam := sfcmem.Orbit(fr.view, fr.views, nx, ny, nz, size, size)
	img, err := sfcmem.RenderAnyCtx(ctx, g, cam, sfcmem.DefaultTransferFunc(), sfcmem.RenderOptions{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return "", err
	}
	b, err := encodeFrame(img, fr.format)
	if err != nil {
		return "", err
	}
	return sum(b), nil
}

// encodeFrame mirrors the service's frame encodings: PNG, or raw
// little-endian float32 RGBA in row-major order.
func encodeFrame(img *sfcmem.Image, format string) ([]byte, error) {
	var buf bytes.Buffer
	if format == "png" {
		err := img.WritePNG(&buf)
		return buf.Bytes(), err
	}
	fb := make([]byte, 0, img.W*img.H*16)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			c := img.At(x, y)
			for _, v := range [4]float32{c.R, c.G, c.B, c.A} {
				fb = binary.LittleEndian.AppendUint32(fb, math.Float32bits(v))
			}
		}
	}
	return fb, nil
}
