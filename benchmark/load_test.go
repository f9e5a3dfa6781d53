package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubDaemon answers every score request with a well-formed all-clear, and
// stalls the whole server once, for stall, on its stallAt-th request.
func stubDaemon(batch, stallAt int, stall time.Duration) *httptest.Server {
	var (
		mu sync.Mutex
		n  int
	)
	body := fmt.Sprintf(`{"version":1,"count":%d,"matched":0,"flagged":[%s]}`, batch,
		strings.TrimSuffix(strings.Repeat("false,", batch), ","))
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // test stub
		mu.Lock()
		if n++; n == stallAt {
			time.Sleep(stall)
		}
		mu.Unlock()
		io.WriteString(w, body) //nolint:errcheck // test stub
	}))
}

// A server that freezes for 250 ms has at most nproc requests in it while
// frozen, so a closed loop sees at most nproc slow answers in 200 and its
// p99 stays fast. The open loop keeps the schedule: every request due during
// the freeze is timed from when it was due, so the freeze reaches the p99.
func TestOpenLoopDoesNotHideAStall(t *testing.T) {
	w := smallWorkload(false)
	in, err := newInputs(w, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := stubDaemon(w.Batch, 50, 250*time.Millisecond)
	defer ts.Close()
	s := &scorer{client: newHTTPClient(), url: ts.URL, in: in}
	res := s.runOpen(0, 200, 200, nil)
	if res.Failed != 0 || res.Sent != 200 || len(res.LatMS) != 200 {
		t.Fatalf("sent %d, failed %d, %d samples: %v", res.Sent, res.Failed, len(res.LatMS), res.FirstErr)
	}
	lat := res.sortedLat()
	if p99 := percentile(lat, 0.99); p99 < 200 {
		t.Errorf("p99 = %.1f ms: the 250 ms stall was hidden", p99)
	}
	if p50 := percentile(lat, 0.50); p50 > 100 {
		t.Errorf("p50 = %.1f ms: the stall should not reach the median", p50)
	}
	slow := 0
	for _, l := range res.LatMS {
		if l >= 100 {
			slow++
		}
	}
	if slow <= nproc() {
		t.Errorf("%d slow samples: only the requests in flight during the stall were charged", slow)
	}
	if got := res.Wall; got > 1500*time.Millisecond {
		t.Errorf("the open loop took %v for 1 s of schedule: it fell behind for good", got)
	}
	if len(res.Answers) == 0 {
		t.Error("no answer was sampled for the oracle")
	}
	// One stretch in twelve holds the stall: the windowed median the
	// end-to-end metrics use shrugs it off, which is why the whole-sample
	// p99 is reported beside it.
	if w := windowedPercentile(res.LatMS, res.LatAt, res.Sent, 0.95); w > 100 {
		t.Errorf("windowed p95 = %.1f ms: one stalled stretch should not move the median stretch", w)
	}
}

func TestOpenLoopStops(t *testing.T) {
	w := smallWorkload(false)
	in, _ := newInputs(w, 1, 2)
	ts := stubDaemon(w.Batch, -1, 0)
	defer ts.Close()
	s := &scorer{client: newHTTPClient(), url: ts.URL, in: in}
	stop := make(chan struct{})
	done := make(chan *phaseResult)
	go func() { done <- s.runOpen(0, 0, 100, stop) }()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	select {
	case res := <-done:
		if res.Sent == 0 || res.Failed != 0 {
			t.Errorf("sent %d, failed %d: %v", res.Sent, res.Failed, res.FirstErr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the open loop did not stop")
	}
}

func TestClosedLoopSendsEachRequestOnce(t *testing.T) {
	w := smallWorkload(false)
	in, _ := newInputs(w, 1, 2)
	ts := stubDaemon(w.Batch, -1, 0)
	defer ts.Close()
	s := &scorer{client: newHTTPClient(), url: ts.URL, in: in}
	res := s.runClosed(32, 100)
	if res.Sent != 100 || res.OK != 100 || len(res.Done) != 100 {
		t.Fatalf("sent %d ok %d done %d: %v", res.Sent, res.OK, len(res.Done), res.FirstErr)
	}
	seen := map[int]bool{}
	for _, a := range res.Answers {
		if a.K%checkEvery != 0 || a.K < 32 || a.K >= 132 || seen[a.K] {
			t.Errorf("sampled request %d", a.K)
		}
		seen[a.K] = true
	}
	if len(seen) != 7 { // 32, 48, ..., 112, 128
		t.Errorf("%d answers sampled, want 7", len(seen))
	}
}

func TestCheckScoreResponse(t *testing.T) {
	ok := `{"request_id":"req-1","version":3,"count":3,"matched":1,"flagged":[false,true,false]}`
	ans, err := checkScoreResponse([]byte(ok), 3, true, false)
	if err != nil || ans.Version != 3 || ans.Flagged != 0b010 || !ans.ExplainOK {
		t.Errorf("good response: %+v, %v", ans, err)
	}
	for name, raw := range map[string]string{
		"two versions":  `{"version":3,"version":4,"count":3,"flagged":[false,true,false]}`,
		"no version":    `{"count":3,"flagged":[false,true,false]}`,
		"wrong count":   `{"version":3,"count":2,"flagged":[false,true]}`,
		"short flagged": `{"version":3,"count":3,"flagged":[false,true]}`,
	} {
		if _, err := checkScoreResponse([]byte(raw), 3, true, false); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	explain := `{"version":1,"count":1,"flagged":[true],"explanations":[{"rules":[{"checks":[` +
		`{"attr":"a","kind":"numeric","pass":true,"margin":0},{"attr":"b","kind":"numeric","pass":false,"margin":-2}]}]}]}`
	if ans, err := checkScoreResponse([]byte(explain), 1, true, true); err != nil || !ans.ExplainOK {
		t.Errorf("consistent explain response: %+v, %v", ans, err)
	}
	broken := strings.Replace(explain, `"pass":false,"margin":-2`, `"pass":true,"margin":-2`, 1)
	if ans, _ := checkScoreResponse([]byte(broken), 1, true, true); ans.ExplainOK {
		t.Error("pass=true with a negative margin was accepted")
	}
}
