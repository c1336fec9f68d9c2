package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// request is one generated operation. Everything in it derives from
// the workload seed; only the If-None-Match value is learned at run
// time (ETags are scoped to the server process).
type request struct {
	At     time.Duration // open-loop send time, from the phase start
	Route  string        // render, filter, jobs, put, tune, tunecheck
	Method string
	Path   string
	Body   []byte
	Key    string // response identity for ETag tracking ("" = none)
	Cond   bool   // send If-None-Match when an ETag for Key is known
	Want   expect
}

// expect is what a correct response carries.
type expect struct {
	Frame  string // sha256 of the frame bytes (render, job refined)
	Coarse string // sha256 of a job's coarse preview frame
	Volume string // filter dst / uploaded volume name
	Dtype  string // filter dst / uploaded dtype
	Nx     int    // uploaded extent
}

// outcome is what happened to one request.
type outcome struct {
	Route   string
	Due     time.Time // scheduled send (open loop); zero in closed loop
	Sent    time.Time
	End     time.Time // last byte; for a job, its refined event
	Coarse  time.Time // job: coarse preview event
	Status  int
	Cache   string // X-Cache disposition
	NotMod  bool
	OK      bool   // answered 2xx/304 and the output verified
	Wrong   bool   // answered, but the output bytes were wrong
	Err     string // why it is not OK
	Lag     time.Duration
	Attempt bool // false for requests the phase never got to send
}

// latency is the request's latency: from its due time in an open loop
// (so a stall charges every request queued behind it), from its send
// otherwise.
func (o *outcome) latency() time.Duration {
	if !o.Due.IsZero() {
		return o.End.Sub(o.Due)
	}
	return o.End.Sub(o.Sent)
}

// service is the request's time from send to last byte.
func (o *outcome) service() time.Duration { return o.End.Sub(o.Sent) }

// reqTimeout bounds one request; a request past it counts as failed.
const reqTimeout = 20 * time.Second

// client drives one sfcserved over at most conns connections.
type client struct {
	hc   *http.Client
	base string

	mu    sync.Mutex
	etags map[string]string
	tunes []string // events URLs of tune jobs not yet checked
}

func newClient(api string, conns int) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		base:  "http://" + api,
		etags: make(map[string]string),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// do runs r and fills o (Due and Lag are the caller's).
func (c *client) do(ctx context.Context, r *request, o *outcome) {
	ctx, cancel := context.WithTimeout(ctx, reqTimeout)
	defer cancel()
	o.Route, o.Attempt = r.Route, true
	o.Sent = time.Now()
	var err error
	switch r.Route {
	case "jobs":
		err = c.doJob(ctx, r, o)
	case "tunecheck":
		err = c.checkTune(ctx, o)
		o.End = time.Now()
	default:
		err = c.doPlain(ctx, r, o)
		o.End = time.Now()
	}
	if o.End.IsZero() { // a job that failed before its refined frame
		o.End = time.Now()
	}
	if err != nil {
		o.Err = err.Error()
		return
	}
	o.OK = true
}

func (c *client) newReq(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	return http.NewRequestWithContext(ctx, method, c.base+path, rd)
}

// wrong marks o as a verified-wrong answer.
func wrong(o *outcome, format string, args ...any) error {
	o.Wrong = true
	return fmt.Errorf(format, args...)
}

func (c *client) doPlain(ctx context.Context, r *request, o *outcome) error {
	hr, err := c.newReq(ctx, r.Method, r.Path, r.Body)
	if err != nil {
		return err
	}
	var sentTag string
	if r.Cond {
		c.mu.Lock()
		sentTag = c.etags[r.Key]
		c.mu.Unlock()
		if sentTag != "" {
			hr.Header.Set("If-None-Match", sentTag)
		}
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	o.Status, o.Cache = resp.StatusCode, resp.Header.Get("X-Cache")
	switch {
	case resp.StatusCode == http.StatusNotModified && sentTag != "":
		o.NotMod = true
		if got := resp.Header.Get("ETag"); got != sentTag {
			return wrong(o, "304 with ETag %s, sent %s", got, sentTag)
		}
		return nil
	case resp.StatusCode/100 != 2:
		return fmt.Errorf("%s %s: %d %s", r.Method, r.Path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	switch r.Route {
	case "render":
		if got := sum(body); got != r.Want.Frame {
			return wrong(o, "render %s: frame sha256 %s, want %s", r.Key, got, r.Want.Frame)
		}
		c.learn(r.Key, resp.Header.Get("ETag"))
	case "filter":
		var fr struct{ Volume, Dtype string }
		if err := json.Unmarshal(body, &fr); err != nil || fr.Volume != r.Want.Volume || fr.Dtype != r.Want.Dtype {
			return wrong(o, "filter answered %q, want volume %s dtype %s", body, r.Want.Volume, r.Want.Dtype)
		}
	case "tune":
		var sub struct {
			EventsURL string `json:"events_url"`
		}
		if err := json.Unmarshal(body, &sub); err != nil || sub.EventsURL == "" {
			return wrong(o, "tune answered %q", body)
		}
		c.mu.Lock()
		c.tunes = append(c.tunes, sub.EventsURL)
		c.mu.Unlock()
	case "put":
		var in struct {
			Name  string
			Dtype string
			Nx    int
		}
		if err := json.Unmarshal(body, &in); err != nil || in.Name != r.Want.Volume || in.Dtype != r.Want.Dtype || in.Nx != r.Want.Nx {
			return wrong(o, "upload answered %q, want %s %s nx=%d", body, r.Want.Volume, r.Want.Dtype, r.Want.Nx)
		}
	}
	return nil
}

func (c *client) learn(key, etag string) {
	if key == "" || etag == "" {
		return
	}
	c.mu.Lock()
	c.etags[key] = etag
	c.mu.Unlock()
}

// frameEvent is the payload of a render job's coarse/refined events.
type frameEvent struct {
	ETag  string `json:"etag"`
	Frame string `json:"frame"`
}

// doJob submits a render job and watches its SSE stream to the
// terminal event. The request ends at the refined frame.
func (c *client) doJob(ctx context.Context, r *request, o *outcome) error {
	hr, err := c.newReq(ctx, http.MethodPost, r.Path, r.Body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	o.Status = resp.StatusCode
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST %s: %d %s", r.Path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var sub struct {
		EventsURL string `json:"events_url"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.EventsURL == "" {
		return wrong(o, "POST %s answered %q", r.Path, body)
	}
	last, err := c.watch(ctx, sub.EventsURL, c.frameEvents(r, o))
	if err != nil {
		return err
	}
	if last != "done" {
		return fmt.Errorf("job ended %q", last)
	}
	if o.End.IsZero() {
		return wrong(o, "job finished without its refined frame")
	}
	return nil
}

// checkTune replays the events of the latest unchecked tune job and
// checks its result. Tunes are submitted fire-and-forget, so the
// search holds a server admission slot but no client connection; the
// check follows while the finished job is still retained.
func (c *client) checkTune(ctx context.Context, o *outcome) error {
	c.mu.Lock()
	n := len(c.tunes)
	var url string
	if n > 0 {
		url, c.tunes = c.tunes[n-1], c.tunes[:n-1]
	}
	c.mu.Unlock()
	if url == "" {
		return errors.New("no submitted tune job to check")
	}
	got, check := false, tuneResult(o)
	last, err := c.watch(ctx, url, func(typ string, data []byte) error {
		got = got || typ == "result"
		return check(typ, data)
	})
	switch {
	case err != nil:
		return err
	case last != "done" || !got:
		return fmt.Errorf("tune job ended %q without a result", last)
	}
	return nil
}

// frameEvents verifies a render job's coarse and refined frames.
func (c *client) frameEvents(r *request, o *outcome) func(typ string, data []byte) error {
	return func(typ string, data []byte) error {
		if typ != "coarse" && typ != "refined" {
			return nil
		}
		now := time.Now()
		var ev frameEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return wrong(o, "%s event: %v", typ, err)
		}
		frame, err := base64.StdEncoding.DecodeString(ev.Frame)
		if err != nil {
			return wrong(o, "%s event frame: %v", typ, err)
		}
		want := r.Want.Coarse
		if typ == "refined" {
			if o.Coarse.IsZero() {
				return wrong(o, "refined frame before the coarse preview")
			}
			want = r.Want.Frame
			o.End = now
			c.learn(r.Key, ev.ETag)
		} else {
			o.Coarse = now
		}
		if got := sum(frame); got != want {
			return wrong(o, "job %s %s frame sha256 %s, want %s", r.Key, typ, got, want)
		}
		return nil
	}
}

// tuneResult checks a tune job's result: a bit-interleave layout that
// the search found no worse than Z order, reported without being
// applied.
func tuneResult(o *outcome) func(typ string, data []byte) error {
	return func(typ string, data []byte) error {
		if typ != "result" {
			return nil
		}
		var res struct {
			Layout       string `json:"layout"`
			TunedMisses  uint64 `json:"tuned_misses"`
			ZOrderMisses uint64 `json:"zorder_misses"`
			Candidates   int    `json:"candidates"`
			Applied      bool   `json:"applied"`
		}
		if err := json.Unmarshal(data, &res); err != nil {
			return wrong(o, "tune result: %v", err)
		}
		if !strings.HasPrefix(res.Layout, "bit:") || res.Candidates < 1 || res.TunedMisses > res.ZOrderMisses || res.Applied {
			return wrong(o, "implausible tune result %+v", res)
		}
		return nil
	}
}

// watch reads an SSE stream, calling on for each event, and returns the
// type of the last event seen (the terminal state when the stream ends
// normally).
func (c *client) watch(ctx context.Context, path string, on func(typ string, data []byte) error) (string, error) {
	hr, err := c.newReq(ctx, http.MethodGet, path, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %d", path, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 16<<20)
	var typ, last string
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			typ = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data, line[len("data: "):]...)
		case len(line) == 0 && typ != "":
			if err := on(typ, data); err != nil {
				return typ, err
			}
			last, typ, data = typ, "", data[:0]
		}
	}
	return last, sc.Err()
}
