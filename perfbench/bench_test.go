package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopStallRaisesP99 checks that latency counts from the
// scheduled send: one server-wide stall delays every request due during
// it, so the open-loop p99 rises by about the stall, while the service
// times a closed-loop client would record barely move.
func TestOpenLoopStallRaisesP99(t *testing.T) {
	const stall = 300 * time.Millisecond
	body := []byte("frame")
	var once sync.Once
	var mu sync.RWMutex // held for writing during the stall
	start := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if time.Since(start) > 200*time.Millisecond {
			once.Do(func() {
				mu.Lock()
				go func() { time.Sleep(stall); mu.Unlock() }()
			})
		}
		mu.RLock()
		mu.RUnlock()  //nolint:staticcheck // waiting out the stall is the point
		w.Write(body) //nolint:errcheck // test server
	}))
	defer srv.Close()

	const n, rate = 500, 500.0
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = &request{
			At: time.Duration(float64(i) / rate * float64(time.Second)), Route: "render",
			Method: "POST", Path: "/render", Body: []byte("{}"), Want: expect{Frame: sum(body)},
		}
	}
	c := newClient(strings.TrimPrefix(srv.URL, "http://"), 2)
	defer c.close()
	start = time.Now()
	outs := openLoop(context.Background(), c, reqs, 2, start)

	var lat, svc []float64
	for i := range outs {
		if !outs[i].OK {
			t.Fatalf("request %d: %s", i, outs[i].Err)
		}
		lat = append(lat, ms(outs[i].latency()))
		svc = append(svc, ms(outs[i].service()))
	}
	p99, svc99 := quantile(lat, 0.99), quantile(svc, 0.99)
	if p99 < ms(stall)/2 {
		t.Errorf("open-loop p99 %.1f ms: a %v stall should raise it past %v", p99, stall, stall/2)
	}
	if svc99 > p99/3 {
		t.Errorf("service-time p99 %.1f ms vs open-loop p99 %.1f ms: the stall should show only from the schedule", svc99, p99)
	}
}

// TestScheduleDeterministic checks that a seed fixes the schedule and
// the request mix, and that another seed changes them.
func TestScheduleDeterministic(t *testing.T) {
	ctx := context.Background()
	mk := func(seed uint64) []*request {
		p, err := buildRenderHot(ctx, seed)
		if err != nil {
			t.Fatal(err)
		}
		return schedule(p, seed, 100, 3*time.Second)
	}
	a, b, c := mk(7), mk(7), mk(8)
	if len(a) != 300 {
		t.Fatalf("schedule has %d requests, want 300", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	routes := map[string]int{}
	for i, r := range a {
		if i > 0 && r.At <= a[i-1].At {
			t.Fatalf("request %d due at %v, not after %v", i, r.At, a[i-1].At)
		}
		routes[r.Route]++
	}
	if routes["jobs"] == 0 || routes["render"] == 0 {
		t.Errorf("mix %v lacks jobs or renders", routes)
	}
}

// TestSelfTimes checks the self-time reduction on nested spans with
// overlapping children, a grandchild, and a child that outlives its
// parent.
func TestSelfTimes(t *testing.T) {
	sp := func(id, parent int, name string, start, end time.Duration) span {
		return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
	}
	got := selfTimes([]span{
		sp(0, -1, "root", 0, 100),
		sp(1, 0, "a", 10, 40),
		sp(2, 0, "b", 30, 60),
		sp(3, 1, "a.inner", 15, 20),
		sp(4, 0, "c", 90, 120),
	})
	want := map[string][]time.Duration{
		"root":    {40}, // 100 minus the union [10,60] ∪ [90,100]
		"a":       {25},
		"b":       {30},
		"a.inner": {5},
		"c":       {30},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; the program defines %d workloads", names, len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer())
}

// TestServerSpans checks the access-log reduction: stage trees rebuilt
// from depth (worker spans dropped), request totals keyed by route and
// status, and the time a trace with dropped spans leaves uncovered.
func TestServerSpans(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 1, 0, time.UTC)
	stamp := at.Format(time.RFC3339Nano)
	lines := [][]byte{
		[]byte(`sfcserved: serving on http://127.0.0.1:1 (ops http://127.0.0.1:2), volumes: a`),
		[]byte(`{"time":"` + stamp + `","msg":"request","route":"render","status":200,"total_s":0.010,"stages":{"decode":0.001,"cache":0.008}}`),
		[]byte(`{"time":"` + stamp + `","msg":"slow request","route":"render","spans":{` +
			`"0":{"name":"decode","worker":-1,"depth":0,"start_s":0,"dur_s":0.001},` +
			`"1":{"name":"kernel","worker":-1,"depth":1,"start_s":0.002,"dur_s":0.005},` +
			`"2":{"name":"tile","worker":0,"depth":0,"start_s":0.002,"dur_s":0.004},` +
			`"3":{"name":"cache","worker":-1,"depth":0,"start_s":0.001,"dur_s":0.008}}}`),
		[]byte(`{"time":"` + stamp + `","msg":"request","route":"filter","status":200,"total_s":0.020,"stages":{"decode":0.001,"digest":0.001},"spans_dropped":3}`),
	}
	spans, totals, uncovered, err := serverSpans(lines, at.Add(-time.Second), at)
	if err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	// The kernel is recorded before its parent cache stage, as in the
	// server's span array; the cache's self time excludes it.
	want := map[string][]time.Duration{
		"render:decode": {ms(1)},
		"render:kernel": {ms(5)},
		"render:cache":  {ms(3)},
	}
	if len(spans) != 3 {
		t.Fatalf("got %d stage spans, want 3 (worker span dropped): %+v", len(spans), spans)
	}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || (got[0]-w[0]).Abs() > time.Microsecond {
			t.Errorf("self[%s] = %v, want %v", name, got, w)
		}
	}
	if got := totals["render:200"]; len(got) != 1 || got[0] != 10 {
		t.Errorf("render totals %v, want [10]", got)
	}
	if got := uncovered["filter"]; len(got) != 1 || got[0] < 17.99 || got[0] > 18.01 {
		t.Errorf("filter uncovered %v, want [18]", got)
	}
}

// TestCapacityCountsPhase checks that capacity counts the correct
// answers completed within the phase, and neither failed answers nor
// the requests still in flight when the phase ends.
func TestCapacityCountsPhase(t *testing.T) {
	start := time.Now()
	var outs []outcome
	add := func(sec, n int, ok bool) {
		for i := 0; i < n; i++ {
			outs = append(outs, outcome{OK: ok, End: start.Add(time.Duration(sec)*time.Second + time.Millisecond)})
		}
	}
	add(0, 100, true)
	add(1, 10, true)
	add(2, 100, true)
	add(2, 50, false)
	add(3, 190, true)
	add(4, 2, true) // in flight at the end of the phase
	if got := capacity(outs, start, 4*time.Second); got != 100 {
		t.Errorf("capacity %v/s, want 100/s", got)
	}
}
