package main

import (
	"context"
	"sync"
	"time"
)

// openLoop sends reqs on their fixed schedule (req.At after start)
// over conns workers, whatever the server's pace: a request due while
// every connection is busy waits in the queue, and that wait is part of
// its latency, so a stall cannot hide the queueing it causes
// (coordinated omission). Lag records how late the generator itself
// handed each request over. Requests still queued when ctx ends are
// returned with Attempt false.
func openLoop(ctx context.Context, c *client, reqs []*request, conns int, start time.Time) []outcome {
	out := make([]outcome, len(reqs))
	// Sized to the number of sends, so the dispatcher never blocks on a
	// slow server and its lag measures only its own timer lateness.
	due := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				if ctx.Err() != nil {
					continue
				}
				c.do(ctx, reqs[i], &out[i])
			}
		}()
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
dispatch:
	for i, r := range reqs {
		at := start.Add(r.At)
		if d := time.Until(at); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		out[i].Due = at
		out[i].Lag = time.Since(at)
		due <- i
	}
	close(due)
	wg.Wait()
	return out
}

// closedLoop runs conns workers that each send the next request of the
// stream as soon as their previous one completes, with no think time,
// until the deadline. It returns outcomes in completion order.
func closedLoop(ctx context.Context, c *client, next func() *request, conns int, until time.Time) []outcome {
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(until) {
				mu.Lock()
				r := next()
				mu.Unlock()
				var o outcome
				c.do(ctx, r, &o)
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}
