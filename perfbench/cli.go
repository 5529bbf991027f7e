package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"elmore/internal/batch"
	"elmore/internal/cliutil"
	"elmore/internal/rctree"
)

// cliJob is one generated job spec together with what the oracle needs
// to check its result.
type cliJob struct {
	ID    string   `json:"id"`
	Net   string   `json:"net,omitempty"`
	Lines string   `json:"netlist,omitempty"`
	Sinks []string `json:"sinks"`
	Rise  string   `json:"rise"`

	net  *rcNet
	rise float64 // seconds; 0 for a step
}

// corners are the input corners of batch-corners: a step and two
// saturated ramps.
var corners = []struct {
	rise string
	tr   float64
}{{"step", 0}, {"100p", 100e-12}, {"1n", 1e-9}}

const (
	cornerNets    = 3000 // nets per batch-corners batch
	cornerMinSize = 16
	cornerMaxSize = 64
	exactNets     = 8 // small nets per run checked against the exact solver
)

// writeJobs writes jobs as an NDJSON spec stream.
func writeJobs(path string, jobs []cliJob) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range jobs {
		if err := enc.Encode(&jobs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cliBatch runs one closed batch through the CLI batch path with the
// CLI's default flag values, streaming results into a real file the way
// the CLI's stdout would. The wall and CPU times run from opening the
// spec stream to the last result written.
func cliBatch(ctx context.Context, jobsPath, outPath string) (wall time.Duration, cpu float64, err error) {
	// Each CLI invocation starts with an empty heap; collect what the
	// previous batch and its checks left so this one starts alike.
	runtime.GC()
	fs := flag.NewFlagSet("boundstat", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bf := cliutil.AddBatch(fs)
	if err := fs.Parse([]string{"-jobs", jobsPath}); err != nil {
		return 0, 0, err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return 0, 0, err
	}
	t0, c0 := time.Now(), cpuSeconds()
	err = bf.RunBatch(ctx, nil, 0, f, io.Discard)
	wall, cpu = time.Since(t0), cpuSeconds()-c0
	return wall, cpu, errors.Join(err, f.Close())
}

// verifier checks result streams against the generated jobs.
type verifier struct {
	refs map[*rcNet]*netRef
}

func (v *verifier) ref(n *rcNet) *netRef {
	if v.refs == nil {
		v.refs = map[*rcNet]*netRef{}
	}
	r := v.refs[n]
	if r == nil {
		r = reference(n)
		v.refs[n] = r
	}
	return r
}

// checkRecord checks that rec is job's result: same index and id, no
// error, exactly the requested sinks in order, each matching the
// reference.
func (v *verifier) checkRecord(rec resultRec, index int, job *cliJob) error {
	if rec.Index != index || rec.ID != job.ID {
		return fmt.Errorf("record %d is index %d id %q, want index %d id %q", index, rec.Index, rec.ID, index, job.ID)
	}
	if rec.Error != "" {
		return fmt.Errorf("job %s failed: %s", job.ID, rec.Error)
	}
	if len(rec.Sinks) != len(job.Sinks) {
		return fmt.Errorf("job %s: %d sinks reported, %d requested", job.ID, len(rec.Sinks), len(job.Sinks))
	}
	ref := v.ref(job.net)
	for k, s := range rec.Sinks {
		if s.Node != job.Sinks[k] {
			return fmt.Errorf("job %s: sink %d is %q, want %q", job.ID, k, s.Node, job.Sinks[k])
		}
		if err := ref.checkSink(s, job.rise); err != nil {
			return fmt.Errorf("job %s: %w", job.ID, err)
		}
	}
	return nil
}

// verifyStream checks a CLI result file: every job has exactly one
// record, in order. It returns the records (for latency and exact
// checks) and the number of failed jobs; the first problem found is
// returned as err.
func (v *verifier) verifyStream(path string, jobs []cliJob) (recs []resultRec, failed int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, len(jobs), err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 256<<20)
	for sc.Scan() {
		k := len(recs)
		rec, derr := decodeRecord(sc.Bytes())
		if k >= len(jobs) {
			return recs, failed, fmt.Errorf("%s: more records than the %d jobs", path, len(jobs))
		}
		if derr == nil {
			derr = v.checkRecord(rec, k, &jobs[k])
		}
		if derr != nil {
			failed++
			if err == nil {
				err = derr
			}
		}
		recs = append(recs, rec)
	}
	if serr := sc.Err(); serr != nil && err == nil {
		err = serr
	}
	if len(recs) < len(jobs) {
		failed += len(jobs) - len(recs)
		if err == nil {
			err = fmt.Errorf("%s: %d records for %d jobs", path, len(recs), len(jobs))
		}
	}
	return recs, failed, err
}

// checkOutput verifies a result file after its timed region, counts
// its jobs as attempted and failed, and removes it; removing the output
// drops its unwritten pages, so they do not load the disk under the
// next timed batch. It returns the records when every check passed.
func (r *run) checkOutput(v *verifier, path string, jobs []cliJob) []resultRec {
	recs, failed, err := v.verifyStream(path, jobs)
	r.attempted += len(jobs)
	r.failed += failed
	r.fail(err)
	r.fail(os.Remove(path))
	if err != nil {
		return nil
	}
	return recs
}

// warmUp runs one batch before the timed ones, so the first timed batch
// does not pay for growing the heap and faulting in its pages when the
// later ones do not; its output is checked like any other.
func warmUp(r *run, v *verifier, jobsPath, outPath string, jobs []cliJob) error {
	_, _, err := cliBatch(r.ctx, jobsPath, outPath)
	if r.ctx.Err() != nil {
		return r.ctx.Err()
	}
	r.fail(err)
	r.checkOutput(v, outPath, jobs)
	return nil
}

// --- batch-corners ---

type cornersInput struct {
	nets      []*rcNet
	jobs      []cliJob
	jobsPath  string
	deckBytes map[string]int64 // deck path -> size
}

func setupCorners(r *run) (*cornersInput, error) {
	rng := rand.New(rand.NewSource(r.seed))
	dir := filepath.Join(r.work, "nets")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &cornersInput{deckBytes: map[string]int64{}, jobsPath: filepath.Join(r.work, "corners.jobs")}
	for k := 0; k < cornerNets; k++ {
		size := cornerMinSize + rng.Intn(cornerMaxSize-cornerMinSize+1)
		n := genNet(rng, fmt.Sprintf("net%d", k), size, 0.5, 0)
		path := filepath.Join(dir, n.name+".sp")
		deck := n.deck()
		if err := os.WriteFile(path, deck, 0o644); err != nil {
			return nil, err
		}
		in.deckBytes[path] = int64(len(deck))
		in.nets = append(in.nets, n)
		sinks := sinkNames(n.leaves)
		for _, c := range corners {
			in.jobs = append(in.jobs, cliJob{ID: n.name + "/" + c.rise, Net: path, Sinks: sinks, Rise: c.rise, net: n, rise: c.tr})
		}
	}
	return in, writeJobs(in.jobsPath, in.jobs)
}

func runBatchCorners(r *run) error {
	var in *cornersInput
	err := timeSetups(r, setupRepeats, func() (_ float64, err error) {
		in, err = setupCorners(r)
		return 0, err
	}, func() error {
		return os.RemoveAll(filepath.Join(r.work, "nets"))
	})
	if err != nil {
		return err
	}
	v := &verifier{}
	outPath := filepath.Join(r.work, "corners.out")
	var rates, cpuRates, lat []float64
	exactDone := false
	// check verifies one batch's output after its timed region.
	check := func() {
		recs := r.checkOutput(v, outPath, in.jobs)
		for _, rec := range recs {
			lat = append(lat, float64(rec.ElapsedNS)/1e6)
		}
		if !exactDone && recs != nil {
			exactDone = true
			r.fail(exactSample(r.seed, in.jobs, recs))
		}
	}
	if err := warmUp(r, v, in.jobsPath, outPath, in.jobs); err != nil {
		return err
	}
	start := time.Now()
	if !r.trace {
		rss := sampleRSS()
		defer rss.Stop()
		for k := 0; k == 0 || time.Now().Before(r.deadline(start)); k++ {
			wall, cpu, err := cliBatch(r.ctx, in.jobsPath, outPath)
			if r.ctx.Err() != nil {
				return r.ctx.Err()
			}
			r.fail(err)
			rates = append(rates, float64(len(in.jobs))/wall.Seconds())
			cpuRates = append(cpuRates, float64(len(in.jobs))/cpu)
			check()
		}
		r.e2e["peak_rss_mb"] = rss.Stop()
		ls := summarize(lat)
		r.e2e["ok_frac"] = 1 - float64(r.failed)/float64(r.attempted)
		r.e2e["work_per_cpu_s"] = median(cpuRates)
		r.note("jobs per CPU second %.1f (work_per_cpu_s); jobs_per_s %.1f jobs/s wall; medians of %d batches of %d jobs", median(cpuRates), median(rates), len(rates), len(in.jobs))
		r.note("job latency p50 %.4f ms, p%g %.4f ms (n=%d, %d beyond)", ls.p50, ls.tailPct, ls.tail, ls.n, ls.beyond)
		r.note("fail_frac %g (%d of %d jobs)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
		return nil
	}
	return tracedCLI(r, v, [][]cliJob{in.jobs}, []string{in.jobsPath}, in.deckBytes, start, outPath, check)
}

// exactSample checks the paper's theorem with the exact solver on a
// seeded sample of small nets, all three corners each.
func exactSample(seed int64, jobs []cliJob, recs []resultRec) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	nets := len(jobs) / len(corners)
	for k := 0; k < exactNets; k++ {
		base := rng.Intn(nets) * len(corners)
		for c := range corners {
			j := &jobs[base+c]
			if err := exactCheck(j.net, recs[base+c].Sinks, j.rise); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- big-nets ---

// bigDecks are the big-nets decks: half bushy (depth ~60), half deep
// (a 1500-node spine under bushy growth: depth ~1560, and a mean depth
// that varies little from seed to seed, so the O(N*depth) work does
// not either).
var bigDecks = []struct {
	nodes, spine int
}{{100000, 0}, {150000, 0}, {100000, 1500}, {100000, 1500}}

// bigSinks is how many leaves each big-nets job reports.
const bigSinks = 256

type bigInput struct {
	jobs      [][]cliJob // one single-job batch per deck
	paths     []string   // jobs file per deck
	deckBytes map[string]int64
	nodes     int
}

func setupBig(r *run) (*bigInput, error) {
	rng := rand.New(rand.NewSource(r.seed))
	in := &bigInput{deckBytes: map[string]int64{}}
	for k, d := range bigDecks {
		n := genNet(rng, fmt.Sprintf("big%d", k), d.nodes, 0.5, d.spine)
		path := filepath.Join(r.work, n.name+".sp")
		deck := n.deck()
		if err := os.WriteFile(path, deck, 0o644); err != nil {
			return nil, err
		}
		in.deckBytes[path] = int64(len(deck))
		in.nodes += n.size()
		job := cliJob{ID: n.name, Net: path, Sinks: sinkNames(everyKth(n.leaves, bigSinks)), Rise: "step", net: n}
		jp := filepath.Join(r.work, n.name+".jobs")
		if err := writeJobs(jp, []cliJob{job}); err != nil {
			return nil, err
		}
		in.jobs = append(in.jobs, []cliJob{job})
		in.paths = append(in.paths, jp)
	}
	return in, nil
}

func runBigNets(r *run) error {
	var in *bigInput
	err := timeSetups(r, setupRepeats, func() (_ float64, err error) {
		in, err = setupBig(r)
		return 0, err
	}, func() error {
		return nil // the next set-up overwrites the same files
	})
	if err != nil {
		return err
	}
	v := &verifier{}
	outPath := filepath.Join(r.work, "big.out")
	// The largest deck grows the heap to its working size.
	if err := warmUp(r, v, in.paths[1], outPath, in.jobs[1]); err != nil {
		return err
	}
	start := time.Now()
	if r.trace {
		return tracedCLI(r, v, in.jobs, in.paths, in.deckBytes, start, outPath, nil)
	}
	var cycleRates, cpuRates []float64
	deckMS := make([][]float64, len(in.paths))
	rss := sampleRSS()
	defer rss.Stop()
	for k := 0; k == 0 || time.Now().Before(r.deadline(start)); k++ {
		var wall time.Duration
		var cpu float64
		for d := range in.paths {
			w, c, err := cliBatch(r.ctx, in.paths[d], outPath)
			if r.ctx.Err() != nil {
				return r.ctx.Err()
			}
			r.fail(err)
			wall += w
			cpu += c
			deckMS[d] = append(deckMS[d], w.Seconds()*1e3)
			r.checkOutput(v, outPath, in.jobs[d])
		}
		cycleRates = append(cycleRates, float64(in.nodes)/wall.Seconds())
		cpuRates = append(cpuRates, float64(in.nodes)/cpu)
	}
	r.e2e["peak_rss_mb"] = rss.Stop()
	for d, ms := range deckMS {
		r.note("deck %d (%d nodes, spine %d): %.1f ms wall, median of %d", d, bigDecks[d].nodes, bigDecks[d].spine, median(ms), len(ms))
	}
	r.e2e["ok_frac"] = 1 - float64(r.failed)/float64(r.attempted)
	r.e2e["work_per_cpu_s"] = median(cpuRates)
	r.note("nodes per CPU second %.0f (work_per_cpu_s); nodes_per_s %.0f nodes/s wall; medians of %d cycles over %d decks, %d nodes", median(cpuRates), median(cycleRates), len(cycleRates), len(bigDecks), in.nodes)
	r.note("fail_frac %g (%d of %d jobs)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	return nil
}

// --- traced CLI runs ---

// tracedCLI is the --trace 1 run of the CLI workloads. It alternates
// untraced CLI batches with traced ones that run the same engine (the
// one the CLI flags build) with the pipeline's public seams hooked: the
// spec-run Loader times parsing, OnStats delivers the pool accounting,
// a counting writer measures the encoded bytes and runtime/metrics the
// allocation and GC cost. Then it replays every job through each
// layer's public function with a span around each call.
func tracedCLI(r *run, v *verifier, batches [][]cliJob, paths []string, deckBytes map[string]int64, start time.Time, outPath string, check func()) error {
	tracedPath := filepath.Join(r.work, "traced.out")
	pipe := newTracer()
	var untraced, traced []float64
	var pool batch.PoolStats
	var poolEff []float64
	var encoded, parsedBytes, jobs int64
	var idle, stall, hits, lookups int64
	var allocs, gcCPU, totalCPU float64
	for k := 0; k == 0 || time.Now().Before(r.deadline(start)); k++ {
		var wu, wt time.Duration
		for b := range paths {
			w, _, err := cliBatch(r.ctx, paths[b], outPath)
			if r.ctx.Err() != nil {
				return r.ctx.Err()
			}
			r.fail(err)
			wu += w
			if check != nil {
				check()
			} else {
				r.checkOutput(v, outPath, batches[b])
			}

			runtime.GC()
			m0 := readRuntime()
			t0 := time.Now()
			n, err := tracedBatch(r.ctx, pipe, paths[b], tracedPath, deckBytes, &parsedBytes, func(ps batch.PoolStats) { pool = ps })
			wt += time.Since(t0)
			m1 := readRuntime()
			if r.ctx.Err() != nil {
				return r.ctx.Err()
			}
			r.fail(err)
			r.checkOutput(v, tracedPath, batches[b])
			encoded += n
			jobs += int64(len(batches[b]))
			allocs += m1.allocBytes - m0.allocBytes
			gcCPU += m1.gcCPU - m0.gcCPU
			totalCPU += m1.totalCPU - m0.totalCPU
			poolEff = append(poolEff, pool.Efficiency())
			for _, w := range pool.Worker {
				idle += w.IdleNS
				stall += w.StallNS
				hits += w.CacheHits
				lookups += w.CacheHits + w.CacheMisses
			}
		}
		untraced = append(untraced, wu.Seconds())
		traced = append(traced, wt.Seconds())
	}
	rep := newTracer()
	for b := range paths {
		raw, err := os.ReadFile(paths[b])
		if err != nil {
			return err
		}
		if err := replay(r.ctx, rep, raw, filepath.Base(paths[b])); err != nil {
			r.fail(fmt.Errorf("replay: %w", err))
		}
	}
	L := r.layer
	L["netlist.parse_s"] = pipe.selfSeconds("netlist.parse")
	L["netlist.parse_mb_per_s"] = float64(parsedBytes) / 1e6 / L["netlist.parse_s"]
	L["batch.decode_s"] = pipe.selfSeconds("batch.decode")
	L["batch.cache_lookups"] = float64(lookups)
	L["batch.cache_hit_ratio"] = ratio(hits, lookups)
	L["batch.encode_bytes"] = float64(encoded)
	L["batch.pool_efficiency"] = median(poolEff)
	L["batch.pool_idle_s"] = float64(idle) / 1e9
	L["batch.reorder_stall_s"] = float64(stall) / 1e9
	L["batch.alloc_bytes_per_job"] = allocs / float64(jobs)
	L["batch.gc_cpu_frac"] = gcCPU / totalCPU
	replayLayers(L, rep)
	L["trace.overhead_frac"] = median(traced)/median(untraced) - 1
	notTraced(L, "incremental.", "core.reanalyze_s", "elmored.", "resilience.", "gen.")
	r.note("traced %d batches, %d jobs; replay covers %.3f of its wall time", len(traced)*len(paths), jobs, L["trace.coverage"])
	return writeTraces(r, pipe, rep)
}

// tracedBatch runs one spec stream through the engine the CLI flags
// build, with the pipeline's seams hooked into the tracer.
func tracedBatch(ctx context.Context, tr *tracer, jobsPath, outPath string, deckBytes map[string]int64, parsed *int64, onStats func(batch.PoolStats)) (encoded int64, err error) {
	fs := flag.NewFlagSet("boundstat", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bf := cliutil.AddBatch(fs)
	if err := fs.Parse([]string{"-jobs", jobsPath}); err != nil {
		return 0, err
	}
	if err := bf.Validate(); err != nil {
		return 0, err
	}
	eng := bf.Engine(io.Discard)
	eng.OnStats = onStats
	t0 := time.Now()
	raw, err := os.ReadFile(jobsPath)
	if err != nil {
		return 0, err
	}
	specs, err := batch.ReadSpecs(bytes.NewReader(raw))
	tr.leaf("batch.decode", filepath.Base(jobsPath), t0, time.Now())
	if err != nil {
		return 0, err
	}
	loader := func(net, netlist string) (*rctree.Tree, error) {
		t0 := time.Now()
		t, err := batch.DefaultTreeLoader(net, netlist)
		tr.leaf("netlist.parse", filepath.Base(net), t0, time.Now())
		if err == nil {
			atomic.AddInt64(parsed, deckBytes[net]+int64(len(netlist)))
		}
		return t, err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return 0, err
	}
	cw := &countWriter{w: f}
	_, err = batch.RunSpecsOpts(ctx, eng, nil, cw, batch.SpecRunOptions{Specs: specs, Loader: loader})
	return cw.n, errors.Join(err, f.Close())
}

type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// notTraced zeroes the per-layer metrics of layers the workload does
// not reach, so every run reports the full per-layer set.
func notTraced(L map[string]float64, prefixes ...string) {
	for name := range layerUnits {
		for _, p := range prefixes {
			if len(name) >= len(p) && name[:len(p)] == p {
				if _, ok := L[name]; !ok {
					L[name] = 0
				}
			}
		}
	}
}

func writeTraces(r *run, trs ...*tracer) error {
	if err := os.MkdirAll(r.traces, 0o755); err != nil {
		return err
	}
	for k, t := range trs {
		path := filepath.Join(r.traces, fmt.Sprintf("%s-seed%d-%d.ndjson", r.name, r.seed, k))
		hdr := map[string]any{"workload": r.name, "seed": r.seed, "part": k, "env": json.RawMessage(environment())}
		if err := t.write(path, hdr); err != nil {
			return err
		}
	}
	return nil
}
