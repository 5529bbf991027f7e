package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	servePool      = 1024 // distinct nets, four times the hot-tree LRU (256)
	serveJobs      = 8    // jobs per /v1/analyze request
	serveSinks     = 8    // leaves reported per job
	serveZipfS     = 1.1  // Zipf exponent of the job draws
	serveWarm      = 256  // warm-up requests before timing
	serveRefRate   = 200.0
	serveLimitMS   = 200.0 // latency limit of a passing rate step
	serveTailPct   = 90.0  // percentile of req_tail_ms
	serveStopGrace = 5 * time.Second
)

// serveLadder are the offered rates above the reference rate; each runs
// for serveLadderShare of the window. The gaps are wide so max_rps
// tracks capacity, not noise at the knee.
var serveLadder = []float64{250, 500, 1000}

const serveRefShare, serveLadderShare = 0.4, 0.2

// elmored is the server child process. It runs the built binary
// directly (never through go run, whose wrapper dies on SIGTERM and
// leaves the server behind), in its own process group, with a
// parent-death signal so it cannot outlive the harness.
type elmored struct {
	pid  int
	addr string
	done chan error // the reaped exit status
	once sync.Once
}

// startElmored starts bin on an OS-chosen port and waits for its
// "listening on" line. Its remaining stderr goes to logPath.
func startElmored(ctx context.Context, bin, logPath string, stderrLog io.Writer) (*elmored, error) {
	rd, wr, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout = nil
	cmd.Stderr = wr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	c := &elmored{done: make(chan error, 1)}
	started := make(chan error, 1)
	go func() {
		// The parent-death signal fires when the thread that started the
		// child exits, so that thread stays locked to this goroutine
		// until the child has been reaped.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if err := cmd.Start(); err != nil {
			started <- err
			return
		}
		started <- nil
		c.done <- cmd.Wait()
	}()
	err = <-started
	wr.Close()
	if err != nil {
		rd.Close()
		return nil, fmt.Errorf("start elmored: %w", err)
	}
	c.pid = cmd.Process.Pid
	lines := make(chan string, 1)
	go func() {
		defer rd.Close()
		log, _ := os.Create(logPath)
		sc := bufio.NewScanner(rd)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if log != nil {
				fmt.Fprintln(log, line)
			}
			if !sent && strings.Contains(line, "listening on http://") {
				lines <- line
				sent = true
			}
		}
		if log != nil {
			log.Close()
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		if !ok {
			c.stop()
			return nil, fmt.Errorf("elmored exited before listening (log %s)", logPath)
		}
		rest := line[strings.Index(line, "http://")+len("http://"):]
		c.addr, _, _ = strings.Cut(rest, " ")
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, errors.New("elmored did not report its address within 30s")
	case <-ctx.Done():
		c.stop()
		return nil, ctx.Err()
	}
	fmt.Fprintf(stderrLog, "perfbench: elmored pid %d listening on %s\n", c.pid, c.addr)
	return c, nil
}

// stop sends SIGTERM to the server's process group, waits a bounded
// time for it to drain, then SIGKILLs the group and reaps the server.
// It returns once the server has been reaped; repeated calls are no-ops.
func (c *elmored) stop() {
	c.once.Do(func() {
		_ = syscall.Kill(-c.pid, syscall.SIGTERM)
		select {
		case <-c.done:
		case <-time.After(serveStopGrace):
			_ = syscall.Kill(-c.pid, syscall.SIGKILL)
			<-c.done
		}
		// Anything else left in the group goes too.
		_ = syscall.Kill(-c.pid, syscall.SIGKILL)
	})
}

// servePool holds the pre-rendered inputs of serve-zipf.
type serveInput struct {
	nets  []*rcNet
	lines [][]byte // one NDJSON spec line per net
	sinks [][]string
	draws []int // net per job, serveJobs per request, in send order
	warm  []int
}

func setupServeInput(seed int64, requests int) (*serveInput, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInput{}
	for k := 0; k < servePool; k++ {
		size := cornerMinSize + rng.Intn(cornerMaxSize-cornerMinSize+1)
		n := genNet(rng, fmt.Sprintf("p%d", k), size, 0.5, 0)
		sinks := sinkNames(everyKth(n.leaves, serveSinks))
		line, err := json.Marshal(cliJob{ID: n.name, Lines: string(n.deck()), Sinks: sinks, Rise: "step"})
		if err != nil {
			return nil, err
		}
		in.nets = append(in.nets, n)
		in.lines = append(in.lines, append(line, '\n'))
		in.sinks = append(in.sinks, sinks)
	}
	in.draws = zipfDraws(seed+1, servePool, requests*serveJobs, serveZipfS)
	in.warm = zipfDraws(seed+2, servePool, serveWarm*serveJobs, serveZipfS)
	return in, nil
}

// body renders request k's body from the pre-rendered spec lines.
func (in *serveInput) body(draws []int, k int) []byte {
	var b bytes.Buffer
	for _, d := range draws[k*serveJobs : (k+1)*serveJobs] {
		b.Write(in.lines[d])
	}
	return b.Bytes()
}

// reqRec is one request's timing and response.
type reqRec struct {
	due, dispatched, sent, firstByte, done time.Time
	status                                 int
	err                                    error
	body                                   []byte
}

// client sends /v1/analyze requests over at most nproc connections.
type client struct {
	http *http.Client
	url  string
}

func newClient(addr string) *client {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, url: "http://" + addr + "/v1/analyze"}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(ctx context.Context, body []byte, rec *reqRec) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { rec.firstByte = time.Now() },
	}))
	rec.sent = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		rec.err = err
		rec.done = time.Now()
		return
	}
	rec.status = resp.StatusCode
	rec.body, rec.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.done = time.Now()
}

// openLoop sends count requests at a fixed rate, each due at
// start + k/rate whatever happened to earlier ones, over nproc workers
// and connections. bodyOf renders request k. It returns once every
// request has completed.
func openLoop(ctx context.Context, c *client, rate float64, count int, bodyOf func(int) []byte) []reqRec {
	recs := make([]reqRec, count)
	queue := make(chan int, count) // sized to the step: the scheduler never blocks
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				if ctx.Err() != nil {
					recs[k].err = ctx.Err()
					continue
				}
				c.do(ctx, bodyOf(k), &recs[k])
			}
		}()
	}
	start := time.Now().Add(5 * time.Millisecond)
	for k := 0; k < count; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		recs[k].due = due
		recs[k].dispatched = time.Now()
		queue <- k
	}
	close(queue)
	wg.Wait()
	return recs
}

// checkResponse verifies one /v1/analyze response after the timed
// region: status 200, one record per job in order with the requested
// sinks matching the reference, and a trailing serve_summary that is
// not interrupted. It returns the summary's server time.
func checkResponse(v *verifier, in *serveInput, draws []int, rec *reqRec) (serverNS int64, err error) {
	if rec.err != nil {
		return 0, rec.err
	}
	if rec.status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", rec.status, bytes.TrimSpace(rec.body))
	}
	lines := bytes.Split(bytes.TrimRight(rec.body, "\n"), []byte("\n"))
	if len(lines) != len(draws)+1 {
		return 0, fmt.Errorf("%d response lines for %d jobs", len(lines), len(draws))
	}
	for k, d := range draws {
		r, err := decodeRecord(lines[k])
		if err != nil {
			return 0, err
		}
		job := cliJob{ID: in.nets[d].name, Sinks: in.sinks[d], net: in.nets[d]}
		if err := v.checkRecord(r, k, &job); err != nil {
			return 0, err
		}
	}
	sum, err := decodeRecord(lines[len(draws)])
	if err != nil {
		return 0, err
	}
	if sum.Record != "serve_summary" || sum.Interrupted || sum.Total != len(draws) || sum.Emitted != len(draws) || sum.Failed != 0 {
		return 0, fmt.Errorf("bad serve_summary: %s", lines[len(draws)])
	}
	return sum.ElapsedNS, nil
}

// stepReport turns a finished rate step into its summary, checking
// every response. server, http and ttfb collect per-request times (ms).
type stepTimes struct {
	lat, server, http, ttfb, late []float64
}

func evalStep(r *run, v *verifier, in *serveInput, draws []int, rate, seconds float64, recs []reqRec, tm *stepTimes) rateStep {
	st := rateStep{Rate: rate, Seconds: seconds, Sent: len(recs)}
	if len(recs) == 0 {
		return st
	}
	end := recs[0].due.Add(time.Duration(seconds * float64(time.Second)))
	last := recs[0].due
	for k := range recs {
		rec := &recs[k]
		r.attempted++
		serverNS, err := checkResponse(v, in, draws[k*serveJobs:(k+1)*serveJobs], rec)
		if err != nil {
			st.Failed++
			r.failed++
			r.fail(fmt.Errorf("request %d at %g req/s: %w", k, rate, err))
			continue
		}
		st.Done++
		if rec.done.After(last) {
			last = rec.done
		}
		ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
		tm.lat = append(tm.lat, ms(rec.done.Sub(rec.due)))
		tm.server = append(tm.server, float64(serverNS)/1e6)
		tm.http = append(tm.http, ms(rec.done.Sub(rec.sent))-float64(serverNS)/1e6)
		tm.ttfb = append(tm.ttfb, ms(rec.firstByte.Sub(rec.sent)))
		tm.late = append(tm.late, ms(rec.dispatched.Sub(rec.due)))
	}
	st.Backlog = backlog(recs, end)
	st.Lat = summarize(tm.lat)
	if len(tm.lat) > 0 {
		st.TailMS = quantile(tm.lat, serveTailPct/100)
		st.LateP99MS = quantile(tm.late, 0.99)
		st.LateMaxMS = quantile(tm.late, 1)
	}
	st.Achieved = float64(st.Done) / last.Sub(recs[0].due).Seconds()
	return st
}

// backlog counts the requests of a step still unanswered when its
// schedule ended: due by then, done after.
func backlog(recs []reqRec, end time.Time) int {
	n := 0
	for k := range recs {
		if !recs[k].due.After(end) && recs[k].done.After(end) {
			n++
		}
	}
	return n
}

// promCounters reads the named counters from elmored's /metrics.
func promCounters(addr string, names ...string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !slices.Contains(names, name) {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}

var serveCounters = []string{"serve_hot_tree_hits", "serve_hot_tree_misses", "serve_hot_tree_evictions", "resilience_admitted", "serve_requests_shed"}

func runServeZipf(r *run) error {
	bin := filepath.Join(r.bin, "elmored")
	steps := []struct{ rate, seconds float64 }{{serveRefRate, serveRefShare * r.seconds}}
	if r.trace {
		// Traced run: the reference step untraced, then traced.
		steps = []struct{ rate, seconds float64 }{{serveRefRate, r.seconds / 2}, {serveRefRate, r.seconds / 2}}
	} else {
		for _, rate := range serveLadder {
			steps = append(steps, struct{ rate, seconds float64 }{rate, serveLadderShare * r.seconds})
		}
	}
	requests := 0
	for _, s := range steps {
		requests += int(s.rate * s.seconds)
	}
	var (
		in  *serveInput
		srv *elmored
		cl  *client
	)
	stopAll := func() error {
		if cl != nil {
			cl.close()
		}
		if srv != nil {
			srv.stop()
		}
		return nil
	}
	defer stopAll()
	// A set-up's CPU time includes the server's: its start and warm-up.
	err := timeSetups(r, setupRepeats, func() (_ float64, err error) {
		if in, err = setupServeInput(r.seed, requests); err != nil {
			return 0, err
		}
		if srv, err = startElmored(r.ctx, bin, filepath.Join(r.work, "elmored.log"), os.Stderr); err != nil {
			return 0, err
		}
		cl = newClient(srv.addr)
		// All warm-up requests are due at once: a closed loop over the
		// client's connections.
		warm := openLoop(r.ctx, cl, math.Inf(1), serveWarm, func(k int) []byte { return in.body(in.warm, k) })
		for k := range warm {
			if warm[k].err != nil || warm[k].status != http.StatusOK {
				return 0, fmt.Errorf("warm-up request %d failed: %v (status %d)", k, warm[k].err, warm[k].status)
			}
		}
		return procCPUSeconds(srv.pid), r.ctx.Err()
	}, stopAll)
	if err != nil {
		return err
	}
	v := &verifier{}
	before, err := promCounters(srv.addr, serveCounters...)
	if err != nil {
		return err
	}
	var results []rateStep
	var times []*stepTimes
	var pipe *tracer
	var refCPU float64 // server CPU seconds of the reference step
	first := 0
	for s, step := range steps {
		count := int(step.rate * step.seconds)
		draws := in.draws[first*serveJobs : (first+count)*serveJobs]
		first += count
		var tr *tracer
		if r.trace && s == 1 {
			pipe = newTracer()
			tr = pipe
		}
		c0 := procCPUSeconds(srv.pid)
		recs := openLoop(r.ctx, cl, step.rate, count, func(k int) []byte { return in.body(draws, k) })
		if s == 0 {
			refCPU = procCPUSeconds(srv.pid) - c0
		}
		if r.ctx.Err() != nil {
			return r.ctx.Err()
		}
		for k := range recs {
			tr.leaf("elmored.request", strconv.Itoa(k), recs[k].sent, recs[k].done)
		}
		tm := &stepTimes{}
		st := evalStep(r, v, in, draws, step.rate, step.seconds, recs, tm)
		results = append(results, st)
		times = append(times, tm)
		r.note("step %g req/s for %gs: sent %d done %d failed %d, latency p50 %.2f ms p%g %.2f ms (%d beyond) p90 %.2f ms, backlog %d, generator late p99 %.2f ms max %.2f ms, achieved %.1f req/s, pass=%v valid=%v",
			st.Rate, st.Seconds, st.Sent, st.Done, st.Failed, st.Lat.p50, st.Lat.tailPct, st.Lat.tail, st.Lat.beyond, st.TailMS, st.Backlog, st.LateP99MS, st.LateMaxMS, st.Achieved, st.passes(serveLimitMS), !st.behind())
	}
	after, err := promCounters(srv.addr, serveCounters...)
	if err != nil {
		return err
	}
	serverRSS := peakRSSMB(srv.pid)
	cl.close()
	srv.stop()
	ref := results[0]
	if ref.behind() {
		// Not a wrong answer: the latencies of this step are not
		// trustworthy, which the step line above marks as valid=false.
		r.note("generator fell behind at the reference rate: lateness p99 %.2f ms > %d ms", ref.LateP99MS, maxLateMS)
	}
	if !r.trace {
		rps, ok := maxRPS(results, serveLimitMS)
		if !ok {
			r.note("no rate step passed the %g ms limit", serveLimitMS)
		}
		r.e2e["peak_rss_mb"] = serverRSS
		r.e2e["ok_frac"] = 1 - float64(r.failed)/float64(r.attempted)
		r.e2e["work_per_cpu_s"] = float64(ref.Done) / refCPU
		r.note("requests per server CPU second %.1f at %g req/s (work_per_cpu_s)", float64(ref.Done)/refCPU, ref.Rate)
		r.note("req_p50_ms %.3f ms, req_tail_ms (p%g) %.3f ms at %g req/s, from each request's due time (n=%d); max_rps %.1f req/s (limit %g ms on p%g)",
			ref.Lat.p50, serveTailPct, ref.TailMS, ref.Rate, ref.Lat.n, rps, serveLimitMS, serveTailPct)
		r.note("fail_frac %g (%d of %d requests)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
		return nil
	}
	L := r.layer
	tm := times[1]
	L["elmored.server_ms"] = median(tm.server)
	L["elmored.http_ms"] = median(tm.http)
	L["elmored.ttfb_ms"] = median(tm.ttfb)
	d := func(name string) float64 { return after[name] - before[name] }
	L["elmored.hot_tree_hit_ratio"] = d("serve_hot_tree_hits") / (d("serve_hot_tree_hits") + d("serve_hot_tree_misses"))
	L["elmored.hot_tree_evictions"] = d("serve_hot_tree_evictions")
	L["resilience.admitted"] = d("resilience_admitted")
	L["resilience.shed"] = d("serve_requests_shed")
	L["gen.late_ms"] = results[1].LateP99MS
	L["gen.backlog"] = float64(results[1].Backlog)
	L["trace.overhead_frac"] = results[1].Lat.p50/results[0].Lat.p50 - 1
	// Replay the traced step's first requests through the layers.
	rep := newTracer()
	count := int(steps[1].rate * steps[1].seconds)
	if count > 200 {
		count = 200
	}
	base := int(steps[0].rate * steps[0].seconds)
	for k := 0; k < count; k++ {
		if err := replay(r.ctx, rep, in.body(in.draws[base*serveJobs:], k), strconv.Itoa(k)); err != nil {
			r.fail(fmt.Errorf("replay: %w", err))
			break
		}
	}
	replayLayers(L, rep)
	L["netlist.parse_s"] = rep.selfSeconds("netlist.parse")
	var parsed int
	for _, dd := range in.draws[base*serveJobs : (base+count)*serveJobs] {
		parsed += len(in.nets[dd].deck())
	}
	L["netlist.parse_mb_per_s"] = float64(parsed) / 1e6 / L["netlist.parse_s"]
	notTraced(L, "batch.", "incremental.", "core.reanalyze_s")
	r.note("replayed %d requests; replay covers %.3f of its wall time", count, L["trace.coverage"])
	return writeTraces(r, pipe, rep)
}
