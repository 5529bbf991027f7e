package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"elmore/internal/batch"
	"elmore/internal/cliutil"
	"elmore/internal/core"
	"elmore/internal/faultinject"
	"elmore/internal/health"
	"elmore/internal/telemetry"
)

const testDeck = `Vin in 0 1
R1 in a 100
C1 a 0 20f
R2 a z 150
C2 z 0 30f
`

// specLine renders one inline-netlist job spec.
func specLine(id string) string {
	b, _ := json.Marshal(map[string]any{"id": id, "netlist": testDeck, "sinks": []string{"z"}})
	return string(b)
}

func specBody(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(specLine(fmt.Sprintf("j%d", i)))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func testConfig() config {
	return config{
		Engine:      cliutil.EngineFlags{Workers: 2, Degrade: true},
		MaxDeadline: time.Minute, MaxJobs: 1000, MaxBody: 1 << 20, HotTrees: 8,
	}
}

func startTestServer(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(context.Background(), cfg)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.cancelRun)
	return s, ts
}

// analyze POSTs body and returns the result lines and trailing summary.
func analyze(t *testing.T, url, body string, hdr map[string]string) (lines []map[string]any, sum serveSummary, status int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/analyze", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if m["record"] == "serve_summary" {
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			continue
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, sum, resp.StatusCode
}

func TestAnalyzeStreamsResults(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	lines, sum, status := analyze(t, ts.URL, specBody(5), nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(lines) != 5 || sum.Total != 5 || sum.Emitted != 5 || sum.Failed != 0 || sum.Interrupted {
		t.Fatalf("lines=%d summary=%+v", len(lines), sum)
	}
	for i, m := range lines {
		if m["error"] != nil {
			t.Errorf("job %d error: %v", i, m["error"])
		}
		if m["id"] != fmt.Sprintf("j%d", i) {
			t.Errorf("out-of-order result %d: %v", i, m["id"])
		}
	}
}

func TestBoundOneShot(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	resp, err := http.Post(ts.URL+"/v1/bound", "application/json", strings.NewReader(specLine("one")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rec struct {
		ID    string `json:"id"`
		Error string `json:"error"`
		Sinks []struct {
			Node   string  `json:"node"`
			Elmore float64 `json:"elmore"`
			Lower  float64 `json:"lower"`
		} `json:"sinks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Error != "" || len(rec.Sinks) != 1 || rec.Sinks[0].Node != "z" {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Sinks[0].Elmore <= 0 || rec.Sinks[0].Lower > rec.Sinks[0].Elmore {
		t.Fatalf("bound ordering violated: %+v", rec.Sinks[0])
	}
}

// A result JSON cannot encode (T_D = +Inf: the deck's RC product
// overflows) is an error record: /v1/bound answers it as a failed job
// instead of a 200 with an empty body, and /v1/analyze counts it in
// serve_summary.failed. With no health monitor the writer degrades the
// result; a strict monitor fails the job earlier, at the moment sweep,
// and the answers are the same but for the error text.
func TestUnencodableResultIsFailedJob(t *testing.T) {
	spec, err := json.Marshal(map[string]any{"id": "inf", "netlist": "Vin in 0 1\nR1 in z 1e200\nC1 z 0 1e200\n"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		monitor *health.Monitor
		wantErr func(string) bool
	}{
		{"no monitor", nil, func(e string) bool { return e == "batch: encode result: json: unsupported value: +Inf" }},
		{"strict monitor", health.New(io.Discard, true), func(e string) bool { return strings.HasPrefix(e, "health: moments.nonfinite ") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := health.SetDefault(tc.monitor)
			t.Cleanup(func() { health.SetDefault(prev) })
			_, ts := startTestServer(t, testConfig())
			resp, err := http.Post(ts.URL+"/v1/bound", "application/json", strings.NewReader(string(spec)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var rec batch.ResultRecord
			if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
				t.Fatalf("status %d, body is not a record: %v", resp.StatusCode, err)
			}
			if resp.StatusCode != http.StatusUnprocessableEntity || rec.ID != "inf" || !tc.wantErr(rec.Error) {
				t.Errorf("/v1/bound: status %d, record %+v", resp.StatusCode, rec)
			}
			lines, sum, status := analyze(t, ts.URL, string(spec)+"\n", nil)
			if status != http.StatusOK || len(lines) != 1 || sum.Failed != 1 {
				t.Fatalf("/v1/analyze: status %d, lines %v, summary %+v", status, lines, sum)
			}
			if e, _ := lines[0]["error"].(string); !tc.wantErr(e) {
				t.Errorf("/v1/analyze: error %q", e)
			}
		})
	}
}

// TestBoundRejectsMalformedSpec: /v1/bound decodes its body with the
// spec-line decoder of the batch front ends, so an unknown field and
// anything but whitespace after the object are 400s, while a trailing
// newline stays legal.
func TestBoundRejectsMalformedSpec(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	for _, tc := range []struct {
		name, body string
		status     int
		errText    string
	}{
		{"unknown field", `{"nope":1}`, http.StatusBadRequest, "unknown field"},
		{"second object and garbage", specLine("a") + ` {"id":"b"} garbage`, http.StatusBadRequest, "data after the JSON object"},
		{"garbage", specLine("a") + " x", http.StatusBadRequest, "data after the JSON object"},
		{"trailing newline", specLine("a") + "\n", http.StatusOK, ""},
	} {
		resp, err := http.Post(ts.URL+"/v1/bound", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status || !strings.Contains(string(body), tc.errText) {
			t.Errorf("%s: status %d, body %q; want %d with %q", tc.name, resp.StatusCode, body, tc.status, tc.errText)
		}
	}
}

func TestRateShed429WithRetryAfter(t *testing.T) {
	cfg := testConfig()
	cfg.Rate, cfg.Burst = 1, 2
	_, ts := startTestServer(t, cfg)
	// The tenant's burst admits two; the third inside the same second
	// must shed with 429 + Retry-After.
	statuses := make([]int, 3)
	for i := range statuses {
		resp, err := http.Post(ts.URL+"/v1/bound?tenant=acme", "application/json", strings.NewReader(specLine("r")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		statuses[i] = resp.StatusCode
		if i == 2 {
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("statuses = %v, want the third to be 429", statuses)
			}
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("shed response missing Retry-After")
			}
		}
	}
	if statuses[0] != http.StatusOK || statuses[1] != http.StatusOK {
		t.Fatalf("burst requests shed: %v", statuses)
	}
	// Another tenant is unaffected.
	resp, err := http.Post(ts.URL+"/v1/bound?tenant=globex", "application/json", strings.NewReader(specLine("r")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh tenant status = %d", resp.StatusCode)
	}
}

func TestCapacityShed503WithRetryAfter(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInFlight = 1
	_, ts := startTestServer(t, cfg)
	// Hold the only slot with a request slowed inside the handler.
	prev := faultinject.SetDefault(faultinject.New(1, faultinject.Rule{
		Point: "serve.decode", Kind: faultinject.KindDelay, Every: 1, Delay: 300 * time.Millisecond, Limit: 1,
	}))
	defer faultinject.SetDefault(prev)
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/bound?tenant=slow", "application/json", strings.NewReader(specLine("s")))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // let the slow request take the slot
	resp, err := http.Post(ts.URL+"/v1/bound?tenant=fast", "application/json", strings.NewReader(specLine("f")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("capacity shed missing Retry-After")
	}
	if got := <-done; got != http.StatusOK {
		t.Fatalf("slot-holding request status = %d", got)
	}
}

func TestDeadlineRejectsMalformed(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	resp, err := http.Post(ts.URL+"/v1/bound?deadline=banana", "application/json", strings.NewReader(specLine("d")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad deadline status = %d, want 400", resp.StatusCode)
	}
}

func TestDeadlineCutsSlowBatch(t *testing.T) {
	prev := faultinject.SetDefault(faultinject.New(1, faultinject.Rule{
		Point: "batch.dispatch", Kind: faultinject.KindDelay, Every: 1, Delay: 50 * time.Millisecond,
	}))
	defer faultinject.SetDefault(prev)
	_, ts := startTestServer(t, testConfig())
	start := time.Now()
	_, sum, status := analyze(t, ts.URL, specBody(40), map[string]string{"X-Elmore-Deadline": "100ms"})
	if status != http.StatusOK {
		t.Fatalf("status = %d (stream responses are 200 with an interrupted summary)", status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not cut the batch: took %v", elapsed)
	}
	// 40 jobs x 50ms on 2 workers ≈ 1s of work against a 100ms deadline:
	// the run must end early, either interrupted or with deadline errors.
	if !sum.Interrupted && sum.Failed == 0 {
		t.Fatalf("slow batch beat a 100ms deadline: %+v", sum)
	}
}

func TestHotTreeLRUSkipsReparse(t *testing.T) {
	reg := telemetry.NewRegistry()
	prevReg := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prevReg)
	s, ts := startTestServer(t, testConfig())
	for i := 0; i < 3; i++ {
		if _, sum, _ := analyze(t, ts.URL, specBody(2), nil); sum.Failed != 0 {
			t.Fatalf("round %d failed: %+v", i, sum)
		}
	}
	if got := s.hot.Len(); got != 1 {
		t.Fatalf("hot-tree entries = %d, want 1 (all jobs share one deck)", got)
	}
	if hits := reg.Counter("serve.hot_tree_hits").Value(); hits < 4 {
		t.Fatalf("hot_tree_hits = %d, want >= 4 (6 loads, 1 parse)", hits)
	}
	if misses := reg.Counter("serve.hot_tree_misses").Value(); misses != 1 {
		t.Fatalf("hot_tree_misses = %d, want 1", misses)
	}
}

// Each deck is answered from its own text: the hot-tree LRU is keyed on
// the deck text, so a changed deck is parsed again. (TreeCache.Load's
// test covers a file rewritten in place.)
func TestHotTreeRewrittenNetReparsed(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	deckB := strings.Replace(testDeck, "R2 a z 150", "R2 a z 1500", 1)
	for _, endpoint := range []string{"/v1/analyze", "/v1/bound"} {
		for _, deck := range []string{testDeck, deckB} {
			spec, _ := json.Marshal(map[string]any{"id": "n", "netlist": deck, "sinks": []string{"z"}})
			resp, err := http.Post(ts.URL+endpoint, "application/json", strings.NewReader(string(spec)+"\n"))
			if err != nil {
				t.Fatal(err)
			}
			var rec batch.ResultRecord
			err = json.NewDecoder(resp.Body).Decode(&rec)
			resp.Body.Close()
			if err != nil || rec.Error != "" || len(rec.Sinks) != 1 {
				t.Fatalf("%s: %+v, %v", endpoint, rec, err)
			}
			tree, err := batch.DefaultTreeLoader("", deck)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := core.Analyze(tree)
			if err != nil {
				t.Fatal(err)
			}
			if want := fresh.Bounds[tree.MustIndex("z")].Elmore; rec.Sinks[0].Elmore != want {
				t.Fatalf("%s answered Elmore %g s at z for a deck whose fresh analysis gives %g s", endpoint, rec.Sinks[0].Elmore, want)
			}
		}
	}
}

// A spec that names a server file in "net" gets a per-job error asking
// for the deck inline, and no byte of the file: the server opens no
// path a client names.
func TestNetFileRefused(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	path := filepath.Join(t.TempDir(), "secret.txt")
	const secret = "s3cr3t-token-9f2c line two\n"
	if err := os.WriteFile(path, []byte(secret), 0o644); err != nil {
		t.Fatal(err)
	}
	net, _ := json.Marshal(map[string]any{"id": "f", "net": path})
	stage, _ := json.Marshal(map[string]any{"id": "p", "stages": []map[string]string{{"cell": "inv", "net": path, "sink": "z"}}})
	for _, endpoint := range []string{"/v1/analyze", "/v1/bound"} {
		for _, spec := range [][]byte{net, stage} {
			resp, err := http.Post(ts.URL+endpoint, "application/json", strings.NewReader(string(spec)+"\n"))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(body), "s3cr3t") || strings.Contains(string(body), "line two") {
				t.Fatalf("%s %s: response echoes the file: %s", endpoint, spec, body)
			}
			var rec batch.ResultRecord
			if err := json.NewDecoder(strings.NewReader(string(body))).Decode(&rec); err != nil {
				t.Fatalf("%s: %v: %s", endpoint, err, body)
			}
			if rec.Error == "" || rec.Sinks != nil {
				t.Fatalf("%s %s: want a per-job error record, got %s", endpoint, spec, body)
			}
			if rec.ID == "f" && !strings.Contains(rec.Error, `inline as "netlist"`) {
				t.Errorf("%s: error %q does not ask for the deck inline", endpoint, rec.Error)
			}
		}
	}
}

// cacheHits counts the result lines that report a moment-cache hit.
func cacheHits(lines []map[string]any) int {
	hits := 0
	for _, m := range lines {
		if m["cache_hit"] == true {
			hits++
		}
	}
	return hits
}

// A hot deck's moments outlive the request that computed them: the
// first request on the deck computes once, and every job of the next
// request reuses that set.
func TestHotDeckMomentsOutliveRequest(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	for round, want := range []int{2, 3} {
		lines, sum, _ := analyze(t, ts.URL, specBody(3), nil)
		if sum.Failed != 0 || len(lines) != 3 {
			t.Fatalf("round %d: %d lines, %+v", round, len(lines), sum)
		}
		if hits := cacheHits(lines); hits != want {
			t.Errorf("round %d: %d of 3 jobs on one deck hit the moment cache, want %d", round, hits, want)
		}
	}
}

// The moments go with the hot tree: on a -hot-trees 2 server, a deck
// evicted by two others is computed again when it comes back.
func TestEvictedHotDeckRecomputed(t *testing.T) {
	cfg := testConfig()
	cfg.HotTrees = 2
	_, ts := startTestServer(t, cfg)
	deck := func(r2 string) string {
		b, _ := json.Marshal(map[string]any{"id": "n", "sinks": []string{"z"},
			"netlist": strings.Replace(testDeck, "R2 a z 150", "R2 a z "+r2, 1)})
		return string(b) + "\n"
	}
	for k, step := range []struct {
		r2  string
		hit bool
	}{{"150", false}, {"150", true}, {"160", false}, {"170", false}, {"150", false}} {
		lines, sum, _ := analyze(t, ts.URL, deck(step.r2), nil)
		if sum.Failed != 0 || len(lines) != 1 {
			t.Fatalf("request %d: %d lines, %+v", k, len(lines), sum)
		}
		if hit := cacheHits(lines) == 1; hit != step.hit {
			t.Errorf("request %d (R2 %s): cache_hit %v, want %v", k, step.r2, hit, step.hit)
		}
	}
}

// Concurrent requests on one hot deck share its entry: across all of
// their jobs, exactly one computes the moments.
func TestConcurrentRequestsComputeOnce(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	const requests, jobs = 6, 4
	var wg sync.WaitGroup
	bodies := make([][]byte, requests)
	errs := make([]error, requests)
	for k := range bodies {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/x-ndjson", strings.NewReader(specBody(jobs)))
			if err != nil {
				errs[k] = err
				return
			}
			defer resp.Body.Close()
			bodies[k], errs[k] = io.ReadAll(resp.Body)
		}(k)
	}
	wg.Wait()
	var lines []map[string]any
	for k, body := range bodies {
		if errs[k] != nil {
			t.Fatalf("request %d: %v", k, errs[k])
		}
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("request %d: bad line %q: %v", k, line, err)
			}
			if m["record"] != "serve_summary" {
				lines = append(lines, m)
			}
		}
	}
	if hits := cacheHits(lines); len(lines) != requests*jobs || hits != len(lines)-1 {
		t.Errorf("%d result lines, %d cache hits; want %d lines and one miss", len(lines), hits, requests*jobs)
	}
}

func TestDrainingShedsAndHealthzFlips(t *testing.T) {
	s, ts := startTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy healthz = %d", resp.StatusCode)
	}
	if err := s.drain(time.Second); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/bound", "application/json", strings.NewReader(specLine("late")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("post-drain request = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

func TestMaxJobsRejected(t *testing.T) {
	cfg := testConfig()
	cfg.MaxJobs = 3
	_, ts := startTestServer(t, cfg)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader(specBody(5)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch status = %d, want 413", resp.StatusCode)
	}
}

func TestInjectedAcceptFault(t *testing.T) {
	prev := faultinject.SetDefault(faultinject.New(1, faultinject.Rule{
		Point: "serve.accept", Kind: faultinject.KindError, Every: 1, Limit: 1,
	}))
	defer faultinject.SetDefault(prev)
	s, ts := startTestServer(t, testConfig())
	resp, err := http.Post(ts.URL+"/v1/bound", "application/json", strings.NewReader(specLine("x")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected accept fault status = %d, want 500", resp.StatusCode)
	}
	// The fault path must not leak gate or limiter slots.
	if s.gate.InFlight() != 0 || s.limiter.InFlight() != 0 {
		t.Fatalf("leaked slots: gate=%d limiter=%d", s.gate.InFlight(), s.limiter.InFlight())
	}
}
