package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one request of an open-loop schedule, fixed before the run.
type arrival struct {
	due  time.Duration // offset from the start of the loop
	item int           // input to send
	node int           // node to send it to
}

// loadStats is the generator's account of itself, so a stalled harness
// cannot pass for a slow server.
type loadStats struct {
	lagMax     time.Duration // the latest a request was handed to the client after its due time
	backlogMax int64         // the most requests sent and not yet answered
	elapsed    time.Duration
}

// openLoop hands each arrival to fire at its due time, whether or not
// earlier requests have been answered, and waits for all of them. fire gets
// the absolute due time, from which it times the request.
func openLoop(ctx context.Context, arrivals []arrival, fire func(i int, due time.Time)) loadStats {
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		st       loadStats
	)
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if ctx.Err() != nil {
			break
		}
		if lag := time.Since(due); lag > st.lagMax {
			st.lagMax = lag
		}
		if b := inflight.Add(1); b > st.backlogMax {
			st.backlogMax = b
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			fire(i, due)
		}(i, due)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// loopNotes records the schedule's rate and the generator's own account in
// the run's notes.
func loopNotes(rep *report, rate float64, ls loadStats) {
	rep.notes["rate_per_s"] = rate
	rep.notes["client_lag_max_s"] = ls.lagMax.Seconds()
	rep.notes["client_backlog_max"] = ls.backlogMax
}

// newClient returns an HTTP client that opens at most connsPerHost
// keep-alive connections to each server; requests beyond that wait for a
// free connection, and the wait counts in their latency.
func newClient(connsPerHost int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     connsPerHost,
		MaxIdleConnsPerHost: connsPerHost,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}
}

// requestTimeout bounds one request; a request that runs out counts as a
// failure.
const requestTimeout = 30 * time.Second

// exchange is one HTTP round trip as the client saw it.
type exchange struct {
	status  int
	body    []byte
	sent    time.Time // handed to the client
	gotConn time.Time // a connection was free (traced runs only)
	done    time.Time // response body read
	err     error
}

// do sends one request and reads the whole response. With trace set it also
// notes when the request got its connection.
func do(ctx context.Context, c *http.Client, method, url string, body []byte, trace bool) exchange {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var x exchange
	if trace {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { x.gotConn = time.Now() },
		})
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	x.sent = time.Now()
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		x.err = err
		x.done = time.Now()
		return x
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := c.Do(req)
	if err != nil {
		x.err = err
		x.done = time.Now()
		return x
	}
	x.body, x.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	x.done = time.Now()
	x.status = resp.StatusCode
	return x
}

// planBody is the part of a /v1/plan response the checks read.
type planBody struct {
	Degraded bool    `json:"degraded"`
	Cached   bool    `json:"cached"`
	Perm     []int32 `json:"perm"`
}

// jobBody is the part of a /v1/jobs response the checks read.
type jobBody struct {
	JobID string    `json:"job_id"`
	State string    `json:"state"`
	Plan  *planBody `json:"plan"`
}

func decodeJSON(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

// scrape reads every node's /metrics and sums each series across nodes.
func scrape(ctx context.Context, c *http.Client, urls []string) (series, error) {
	out := series{}
	for _, u := range urls {
		x := do(ctx, c, http.MethodGet, u+"/metrics", nil, false)
		if x.err != nil || x.status != http.StatusOK {
			return nil, fmt.Errorf("scraping %s/metrics: status %d: %v", u, x.status, x.err)
		}
		sc := bufio.NewScanner(bytes.NewReader(x.body))
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			out[line[:i]] += v
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// series maps a Prometheus series (name plus labels) to its value.
type series map[string]float64

// delta returns after − before for one series.
func delta(before, after series, name string) float64 { return after[name] - before[name] }
