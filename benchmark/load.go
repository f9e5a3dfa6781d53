package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// newHTTPClient returns a client limited to nproc persistent loopback
// connections: the whole load comes from one process with at most nproc
// requests in flight.
func newHTTPClient() *http.Client {
	n := nproc()
	return &http.Client{
		Timeout: 150 * time.Second, // a refine round may take tens of seconds
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConns:        n,
			MaxIdleConnsPerHost: n,
			MaxConnsPerHost:     n,
			DisableCompression:  true,
		},
	}
}

// answer is what one sampled score response said, kept for verification
// after the clocks stop (the rule set a version number stands for may only
// be known later, once GET /v1/rules has been read).
type answer struct {
	K       int    // score request index
	Version int    // rules version the response was evaluated under
	Flagged uint64 // bit i: transaction i flagged (batches are at most 64)
	// ExplainOK is false when an explain response broke pass ⇔ margin ≥ 0.
	ExplainOK bool
	// Raw is the whole response, kept for the first sampled explain response
	// of a phase only (they are megabytes each), for the structural check.
	Raw []byte
}

// phaseResult is what one load phase observed.
type phaseResult struct {
	Sent, OK, Failed int
	// Done are completion offsets from the phase start (closed phases).
	Done []time.Duration
	// LatMS are latencies in ms from the due time (open phases), in no
	// particular order; a failed request is +Inf. LatAt[i] is the position
	// in the schedule of the request LatMS[i] belongs to.
	LatMS []float64
	LatAt []int
	// LateMS is how late the generator itself sent, in ms past the due time,
	// for requests whose connection was free before they were due.
	LateMS    []float64
	Wall      time.Duration
	ReqBytes  int64
	RespBytes int64
	Answers   []answer
	FirstErr  error
}

// sortedLat returns the latencies in ascending order, for percentile.
func (p *phaseResult) sortedLat() []float64 {
	s := append([]float64(nil), p.LatMS...)
	sort.Float64s(s)
	return s
}

func (p *phaseResult) fail(err error) {
	p.Failed++
	if p.FirstErr == nil {
		p.FirstErr = err
	}
}

// scorer sends score requests for one workload.
type scorer struct {
	client *http.Client
	url    string // daemon base URL
	in     *inputs
	// header, when set, is stamped on every request with the request index
	// (the traced run correlates client and handler spans through it).
	header string
	// onRoundTrip, when set, receives the client-side span of each request.
	onRoundTrip func(k int, start, end time.Time)
}

// one sends score request k and checks the response. sample asks for the
// answer to be recorded; keepRaw additionally keeps the response bytes.
func (s *scorer) one(k int, body []byte, respBuf *bytes.Buffer, sample, keepRaw bool) (ans answer, respLen int, err error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/score", bytes.NewReader(body))
	if err != nil {
		return ans, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if s.header != "" {
		req.Header.Set(s.header, strconv.Itoa(k))
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return ans, 0, err
	}
	respBuf.Reset()
	_, err = respBuf.ReadFrom(resp.Body)
	resp.Body.Close()
	if s.onRoundTrip != nil {
		s.onRoundTrip(k, start, time.Now())
	}
	if err != nil {
		return ans, 0, err
	}
	raw := respBuf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return ans, len(raw), fmt.Errorf("score request %d: status %d: %.200s", k, resp.StatusCode, raw)
	}
	ans, err = checkScoreResponse(raw, s.in.w.Batch, sample, s.in.w.Explain)
	ans.K = k
	if err == nil && keepRaw {
		ans.Raw = append([]byte(nil), raw...)
	}
	return ans, len(raw), err
}

// checkScoreResponse applies the every-response checks — the count field
// equals the batch size and exactly one rules version is named — and, when
// sample is set, extracts the verdicts (and scans an explain response for
// pass ⇔ margin ≥ 0). It scans bytes instead of decoding JSON: it runs in
// the load generator's timed path, on the same cores as the daemon.
func checkScoreResponse(raw []byte, batch int, sample, explain bool) (answer, error) {
	var ans answer
	if n := bytes.Count(raw, []byte(`"version":`)); n != 1 {
		return ans, fmt.Errorf("response names %d rules versions, want exactly 1", n)
	}
	version, ok := intField(raw, `"version":`)
	if !ok {
		return ans, fmt.Errorf("response has no integer version")
	}
	ans.Version = version
	count, ok := intField(raw, `"count":`)
	if !ok || count != batch {
		return ans, fmt.Errorf("response count %d (present %v), want %d", count, ok, batch)
	}
	if !sample {
		return ans, nil
	}
	i := bytes.Index(raw, []byte(`"flagged":[`))
	if i < 0 {
		return ans, fmt.Errorf("response has no flagged array")
	}
	n := 0
	for p := raw[i+len(`"flagged":[`):]; len(p) > 0 && p[0] != ']'; {
		switch {
		case bytes.HasPrefix(p, []byte("true")):
			ans.Flagged |= 1 << uint(n)
			n++
			p = p[4:]
		case bytes.HasPrefix(p, []byte("false")):
			n++
			p = p[5:]
		case p[0] == ',':
			p = p[1:]
		default:
			return ans, fmt.Errorf("malformed flagged array")
		}
	}
	if n != batch {
		return ans, fmt.Errorf("flagged has %d verdicts, want %d", n, batch)
	}
	ans.ExplainOK = true
	if explain {
		ans.ExplainOK = passIffMarginNonNegative(raw)
	}
	return ans, nil
}

// intField parses the integer after the first occurrence of key.
func intField(raw []byte, key string) (int, bool) {
	i := bytes.Index(raw, []byte(key))
	if i < 0 {
		return 0, false
	}
	p := raw[i+len(key):]
	j := 0
	for j < len(p) && (p[j] == '-' || (p[j] >= '0' && p[j] <= '9')) {
		j++
	}
	v, err := strconv.Atoi(string(p[:j]))
	return v, err == nil
}

// passIffMarginNonNegative scans every `"pass":B,"margin":N` pair of an
// explain response and reports whether B ⇔ N ≥ 0 holds for all of them (and
// at least one pair exists).
func passIffMarginNonNegative(raw []byte) bool {
	key, mkey := []byte(`"pass":`), []byte(`,"margin":`)
	seen := false
	for {
		i := bytes.Index(raw, key)
		if i < 0 {
			return seen
		}
		raw = raw[i+len(key):]
		pass := bytes.HasPrefix(raw, []byte("true"))
		if pass {
			raw = raw[4:]
		} else if bytes.HasPrefix(raw, []byte("false")) {
			raw = raw[5:]
		} else {
			return false
		}
		if !bytes.HasPrefix(raw, mkey) {
			return false
		}
		raw = raw[len(mkey):]
		if len(raw) == 0 {
			return false
		}
		if negative := raw[0] == '-'; pass == negative {
			return false
		}
		seen = true
	}
}

// runPhase drives one load phase: nproc clients, each claiming the next
// request index i and asking admit when to send it. admit returns ok=false to
// end the client; a zero due time marks a closed-loop request (its completion
// offset is recorded), a non-zero one an open-loop request (its latency from
// due is recorded).
func (s *scorer) runPhase(k0 int, admit func(i int, local *phaseResult) (due time.Time, ok bool)) *phaseResult {
	res := &phaseResult{}
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				buf     []byte
				resp    bytes.Buffer
				local   phaseResult
				keptRaw bool
			)
			for {
				i := int(next.Add(1)) - 1
				due, ok := admit(i, &local)
				if !ok {
					break
				}
				k := k0 + i
				body := s.in.bodyFor(k, buf)
				if s.in.w.Velocity {
					buf = body
				}
				sample := k%checkEvery == 0
				ans, n, err := s.one(k, body, &resp, sample, sample && !keptRaw && s.in.w.Explain)
				local.Sent++
				local.ReqBytes += int64(len(body))
				local.RespBytes += int64(n)
				if err != nil {
					local.fail(err)
					if !due.IsZero() {
						local.LatMS = append(local.LatMS, math.Inf(1))
						local.LatAt = append(local.LatAt, i)
					}
					continue
				}
				local.OK++
				if due.IsZero() {
					local.Done = append(local.Done, time.Since(start))
				} else {
					local.LatMS = append(local.LatMS, float64(time.Since(due))/1e6)
					local.LatAt = append(local.LatAt, i)
				}
				if sample {
					local.Answers = append(local.Answers, ans)
					keptRaw = keptRaw || ans.Raw != nil
				}
			}
			mu.Lock()
			res.merge(&local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Wall = time.Since(start)
	sort.Float64s(res.LateMS)
	return res
}

func (p *phaseResult) merge(o *phaseResult) {
	p.Sent += o.Sent
	p.OK += o.OK
	p.Failed += o.Failed
	p.ReqBytes += o.ReqBytes
	p.RespBytes += o.RespBytes
	p.Done = append(p.Done, o.Done...)
	p.LatMS = append(p.LatMS, o.LatMS...)
	p.LatAt = append(p.LatAt, o.LatAt...)
	p.LateMS = append(p.LateMS, o.LateMS...)
	p.Answers = append(p.Answers, o.Answers...)
	if p.FirstErr == nil {
		p.FirstErr = o.FirstErr
	}
}

// runClosed sends requests [k0, k0+count) as a closed loop: nproc clients,
// each sending its next request as soon as the previous one completes.
func (s *scorer) runClosed(k0, count int) *phaseResult {
	return s.runPhase(k0, func(i int, _ *phaseResult) (time.Time, bool) {
		return time.Time{}, i < count
	})
}

// runOpen sends requests k0, k0+1, ... as an open loop at rate requests per
// second: request i is due at start + i/rate whatever happened to the
// requests before it, and its latency is timed from that due time, so a
// stall is charged to every request it delays (no coordinated omission). A
// request whose due time passes while all nproc connections are busy waits
// in the generator and is sent as soon as one is free. The phase ends after
// count requests, or, when stop is non-nil, once stop is closed.
func (s *scorer) runOpen(k0, count int, rate float64, stop <-chan struct{}) *phaseResult {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	return s.runPhase(k0, func(i int, local *phaseResult) (time.Time, bool) {
		if stop == nil && i >= count {
			return time.Time{}, false
		}
		due := start.Add(time.Duration(i) * interval)
		slept, stopped := sleepUntil(due, stop)
		if slept && !stopped {
			local.LateMS = append(local.LateMS, float64(time.Since(due))/1e6)
		}
		return due, !stopped
	})
}

const spinWindow = 300 * time.Microsecond

// sleepUntil blocks until due or until stop is closed. slept reports whether
// due was still in the future on entry.
func sleepUntil(due time.Time, stop <-chan struct{}) (slept, stopped bool) {
	wait := time.Until(due)
	if wait <= 0 {
		select {
		case <-stop: // a nil stop never fires
			return false, true
		default:
			return false, false
		}
	}
	if wait > spinWindow {
		t := time.NewTimer(wait - spinWindow)
		defer t.Stop()
		select {
		case <-stop:
			return true, true
		case <-t.C:
		}
	}
	for time.Until(due) > 0 {
	}
	return true, false
}

// drain reads a response body to the end and closes it, so the connection
// returns to the pool.
func drain(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
