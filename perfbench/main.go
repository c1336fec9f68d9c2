// Command perfbench is the repository benchmark. It starts sfcserved
// as a child process, uploads seeded volumes, drives one workload over
// HTTP from this single process with at most nproc connections, checks
// every response against references computed in-process with the same
// public kernel calls, and prints one JSON result line.
//
// An untraced run (-trace 0, server under -obs-off) reports the
// end-to-end metrics: an open-loop phase at the workload's fixed rate
// (latency counted from each request's scheduled send), then a
// closed-loop phase over the same mix for capacity. A traced run
// (-trace 1) repeats the open loop with the server's request tracing
// on, reduces its access-log span dumps and /metrics deltas to
// per-layer metrics, and times the layers HTTP cannot separate by
// calling their public functions in this process.
//
//	bash perfbench/run.sh --workload render-hot --seed 1 --seconds 34 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	server   string
	workdir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	// openShare of a run's seconds is the open-loop phase; the rest is
	// the closed-loop capacity phase.
	openShare = 0.75
	// setupReps server starts are timed per untraced run; setup_s is
	// their median.
	setupReps = 3
	// runBudget bounds a whole run, so it exits within 180 s.
	runBudget = 170 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	traceN := 0
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed for volumes and request streams")
	fs.IntVar(&o.seconds, "seconds", 34, "measured seconds per run")
	fs.IntVar(&traceN, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.server, "server", "", "sfcserved binary")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for data dirs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(o.workload)
	if w == nil || o.server == "" || o.seconds < 1 || (traceN != 0 && traceN != 1) {
		fmt.Fprintf(stderr, "perfbench: need -server, -seconds >= 1, -trace 0|1 and -workload one of %s\n", strings.Join(names, ", "))
		return 2
	}
	o.trace = traceN == 1

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	b := &bench{o: o, w: w, log: stderr, rec: newRecorder(), conns: runtime.NumCPU(), probe: &http.Client{Timeout: 10 * time.Second}}
	res, err := b.run(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	info, _ := json.Marshal(b.info()) //nolint:errcheck // strings and numbers only
	fmt.Fprintf(stdout, "perfbench: run %s\n", info)
	if b.invalid != "" {
		// The result is still printed: a run must end in one, and the
		// flag travels in the provenance line above it.
		fmt.Fprintln(stderr, "perfbench: flagged run, the open loop may not have measured the server:", b.invalid)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// bench is one run of one workload.
type bench struct {
	o      options
	w      *workload
	p      *plan
	log    io.Writer
	rec    *recorder
	conns  int
	probe  *http.Client // readiness, /metrics and /version; not a load connection
	runDir string

	attempted, failed int
	wrong             bool
	errs              []string
	invalid           string
	lagP99            float64 // generator lag p99 of the open loop, ms
	version           map[string]string
	flags             []string // of the last server started
	nSetups           int
}

func (b *bench) run(ctx context.Context) (*result, error) {
	b.runDir = filepath.Join(b.o.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.runDir)
	var err error
	err = b.rec.time("plan.build", func() error {
		b.p, err = b.w.build(ctx, b.o.seed)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("build %s inputs: %w", b.w.name, err)
	}
	var m map[string]metric
	if b.o.trace {
		m, err = b.traced(ctx)
	} else {
		m, err = b.endToEnd(ctx)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range b.errs {
		fmt.Fprintln(b.log, "perfbench: failed:", e)
	}
	if b.o.trace {
		path := filepath.Join(b.o.workdir, fmt.Sprintf("spans-%s-%d.json", b.w.name, b.o.seed))
		if err := b.rec.writeJSON(path); err != nil {
			return nil, err
		}
	}
	return &result{Correct: !b.wrong, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// info is the provenance line printed with every result.
func (b *bench) info() map[string]any {
	return map[string]any{
		"workload": b.w.name, "seed": b.o.seed, "seconds": b.o.seconds, "trace": b.o.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"connections": b.conns, "rate_rps": b.w.rate, "latency_limit_ms": ms(b.w.limit),
		"server_flags": b.flags, "server_version": b.version,
		"attempted": b.attempted, "failed": b.failed, "lag_p99_ms": b.lagP99, "invalid": b.invalid,
	}
}

// setup starts a server and uploads the workload's volumes; the
// returned duration runs from exec until the last upload is
// acknowledged.
func (b *bench) setup(ctx context.Context, traced bool) (*child, time.Duration, error) {
	flags := append([]string(nil), b.w.flags...)
	if traced {
		// A 1 ns slow-request threshold makes the access log carry
		// every request's full span tree, nested stages included.
		flags = append(flags, "-slow-log", "1ns")
	} else {
		flags = append(flags, "-obs-off")
	}
	dataDir := ""
	if b.w.dataDir {
		b.nSetups++
		dataDir = filepath.Join(b.runDir, fmt.Sprintf("data-%d", b.nSetups))
		flags = append(flags, "-data-dir", dataDir)
	}
	b.flags = flags
	start := time.Now()
	srv, err := startServer(ctx, b.o.server, flags, traced)
	if err != nil {
		return nil, 0, err
	}
	srv.dataDir = dataDir
	if err := srv.waitReady(ctx, b.probe); err != nil {
		b.stop(srv)
		return nil, 0, err
	}
	c := newClient(srv.api, b.conns)
	defer c.close()
	for _, u := range b.p.uploads {
		var o outcome
		c.do(ctx, u, &o)
		if !o.OK {
			b.stop(srv)
			return nil, 0, fmt.Errorf("setup upload %s: %s", u.Path, o.Err)
		}
	}
	d := time.Since(start)
	b.rec.add("setup", -1, start, start.Add(d))
	if b.version == nil {
		b.version = map[string]string{}
		if err := b.getJSON(ctx, "http://"+srv.ops+"/version", &b.version); err != nil {
			b.stop(srv)
			return nil, 0, err
		}
	}
	return srv, d, nil
}

func (b *bench) stop(srv *child) {
	if err := srv.stop(); err != nil {
		fmt.Fprintln(b.log, "perfbench:", err)
	}
	if srv.dataDir != "" {
		os.RemoveAll(srv.dataDir) //nolint:errcheck // the run dir is removed at exit too
	}
}

func (b *bench) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := b.probe.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// tally counts outcomes into the run's attempted/failed totals.
func (b *bench) tally(outs []outcome) {
	for i := range outs {
		o := &outs[i]
		if !o.Attempt {
			continue
		}
		b.attempted++
		if !o.OK {
			b.failed++
			if len(b.errs) < 10 {
				b.errs = append(b.errs, o.Err)
			}
		}
		b.wrong = b.wrong || o.Wrong
	}
}

// warmup runs the plan's warm-up requests and then a short closed loop
// of the warm-up stream, unmeasured, so caches and lazy set-up settle.
func (b *bench) warmup(ctx context.Context, c *client) {
	var outs []outcome
	for _, r := range b.p.warm {
		var o outcome
		c.do(ctx, r, &o)
		outs = append(outs, o)
	}
	outs = append(outs, closedLoop(ctx, c, newStream(b.p, b.o.seed, streamWarm).next, b.conns, time.Now().Add(time.Second))...)
	b.tally(outs)
}

func (b *bench) openDur() time.Duration {
	return time.Duration(float64(b.o.seconds) * openShare * float64(time.Second))
}

func (b *bench) endToEnd(ctx context.Context) (map[string]metric, error) {
	var setups []float64
	var srv *child
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			b.stop(srv)
		}
		s, d, err := b.setup(ctx, false)
		if err != nil {
			return nil, err
		}
		srv = s
		setups = append(setups, d.Seconds())
	}
	defer b.stop(srv)
	c := newClient(srv.api, b.conns)
	defer c.close()
	b.warmup(ctx, c)

	reqs := schedule(b.p, b.o.seed, b.w.rate, b.openDur())
	if len(reqs) < 1000 {
		fmt.Fprintf(b.log, "perfbench: only %d open-loop requests; p99 has fewer than 10 samples beyond it\n", len(reqs))
	}
	start := time.Now()
	open := openLoop(ctx, c, reqs, b.conns, start)
	openEl := time.Since(start)
	closedDur := time.Duration(b.o.seconds)*time.Second - b.openDur()
	cstart := time.Now()
	closed := closedLoop(ctx, c, newStream(b.p, b.o.seed, streamClosed).next, b.conns, cstart.Add(closedDur))
	b.tally(open)
	b.tally(closed)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run cut short: %w", err)
	}

	var lat, ttfp []float64
	good := 0
	for i := range open {
		o := &open[i]
		lat = append(lat, ms(o.latency()))
		if o.OK && o.latency() <= b.w.limit {
			good++
		}
		if !o.Coarse.IsZero() {
			ttfp = append(ttfp, ms(o.Coarse.Sub(o.Due)))
		}
	}
	p50 := quantile(lat, 0.5)
	b.guard(open, p50)
	return map[string]metric{
		"setup_s":      {quantile(setups, 0.5), "s"},
		"p50_ms":       {p50, "ms"},
		"p99_ms":       {quantile(lat, 0.99), "ms"},
		"goodput_rps":  {float64(good) / openEl.Seconds(), "1/s"},
		"capacity_rps": {capacity(closed, cstart, closedDur), "1/s"},
		"ttfp_p50_ms":  {quantile(ttfp, 0.5), "ms"},
		"ttfp_p90_ms":  {quantile(ttfp, 0.9), "ms"},
		"peak_rss_mb":  {rss, "MB"},
	}, nil
}

// capacity is the closed loop's throughput of correct answers that
// completed within the phase. It counts the whole phase, not the median
// of shorter windows: a mix of sub-millisecond hits and 30 ms jobs and
// misses varies more between short windows, in how many slow requests
// each holds, than a brief burst of other tenants' load moves it.
func capacity(closed []outcome, start time.Time, dur time.Duration) float64 {
	n := 0
	for i := range closed {
		if e := closed[i].End.Sub(start); closed[i].OK && e >= 0 && e <= dur {
			n++
		}
	}
	return float64(n) / dur.Seconds()
}

// guard flags a run whose open loop did not measure the server: the
// generator ran late against the latencies it reports, or the nominal
// rate drew 429s (the rate is meant to sit below saturation).
func (b *bench) guard(open []outcome, p50 float64) {
	var lag []float64
	rejected := 0
	for i := range open {
		lag = append(lag, ms(open[i].Lag))
		if open[i].Status == http.StatusTooManyRequests {
			rejected++
		}
	}
	b.lagP99 = quantile(lag, 0.99)
	switch {
	case b.lagP99 > max(2*p50, lagFloorMS):
		b.invalid = fmt.Sprintf("generator lag p99 %.2f ms exceeds max(2 × p50 %.2f ms, %.0f ms)", b.lagP99, p50, lagFloorMS)
	case rejected > 0:
		b.invalid = fmt.Sprintf("%d requests drew 429 at the nominal rate", rejected)
	}
}

// lagFloorMS is the generator lag tolerated regardless of p50: on a
// shared 2-CPU host losing ~10% of its time to other tenants, timer
// wake-ups run this late at p99 without the schedule being lost.
const lagFloorMS = 10.0
