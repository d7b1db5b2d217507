// Command perfbench is the repository benchmark. It runs one workload of
// the Whodunit simulator for a fixed host time, checks the output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a separate CPU-profiled run) as the last line of standard
// output:
//
//	bash perfbench/run.sh --workload tpcw-pods --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads and every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"whodunit"
	"whodunit/internal/vclock"
)

const (
	// setups is how many set-up samples are taken; setup_s is their
	// median. Each sample starts from a collected heap, repeats set-up
	// until setupBatch has passed and is the mean, so a set-up of well
	// under a millisecond still rises above timer and host noise.
	setups     = 11
	setupBatch = 200 * time.Millisecond
	// One open-loop reader goroutine issues a read every readEvery
	// (200/s) from the start of each run until the run returns.
	readEvery = 5 * time.Millisecond
	// minReads keeps at least ten reads beyond the 99th percentile.
	minReads = 1000
	// maxTimed caps the timed phase, so a slow host still ends a run
	// well inside its time limit.
	maxTimed = 120 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload: tpcw-pods, apache-flow or serve-live")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "host seconds to measure")
	traced := flag.Int("trace", 0, "1 = per-layer metrics from a CPU-profiled run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	b := &bench{name: *name, seed: *seed, w: mk(), budget: time.Duration(*seconds * float64(time.Second)), speed: newHostSpeed()}
	res := b.run(*traced == 1)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type bench struct {
	name   string
	seed   uint64
	w      runner
	budget time.Duration
	speed  *hostSpeed

	errs []error
}

func (b *bench) fail(err error) {
	if err != nil {
		b.errs = append(b.errs, err)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
}

// info prints one JSON line on standard output ahead of the result.
func info(key string, v any) {
	line, _ := json.Marshal(map[string]any{key: v}) // plain maps and numbers always encode
	fmt.Println(string(line))
}

// timed is what the measured runs leave behind: their timings and reads
// only, so that no run's output stays reachable after it was checked.
type timed struct {
	runs        []runStats
	reads       []read
	failedReads int64
	// runs and reads the host did not disturb (disturbed, hostspeed.go)
	steadyRuns, steadyReads int
}

type runStats struct {
	host      time.Duration
	virtual   whodunit.Duration
	txns      int64
	reads     int  // reads answered while the run simulated
	disturbed bool // the hypervisor took CPU time from the run
}

func (b *bench) run(traced bool) result {
	info("host", map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"workload": b.name, "seed": b.seed, "engine": b.w.engine(),
		"default_engine": vclock.DefaultEngine.String(), "traced": traced,
	})

	var setupTimes, genTimes []float64
	for i := 0; i < setups; i++ {
		var n float64
		var gen time.Duration
		runtime.GC()
		t0 := time.Now()
		for n == 0 || time.Since(t0) < setupBatch {
			gen += b.w.setup(b.seed)
			n++
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds()/n)
		genTimes = append(genTimes, gen.Seconds()/n)
		b.speed.after(setupBatch)
	}
	runtime.GC() // leave set-up garbage out of the timed runs

	warm := b.w.run(nil)
	digest, want := summarize(warm)
	rd := &reader{every: readEvery}

	var m map[string]metric
	var t timed
	if traced {
		m, t = b.traced(rd, digest, want, warm)
		m["workload.gen_s"] = metric{median(genTimes), "s"}
	} else {
		t = b.measure(func() *outcome { return b.w.run(rd) }, b.budget, minReads, digest, want)
		m = b.endToEnd(t, median(setupTimes))
	}

	// The warm-up run gets the full check after the timed phase, so its
	// decode buffers stay out of the measured memory high-water mark.
	b.fail(checkDigest(b.name, b.seed, digest))
	b.fail(warm.check())
	for _, rep := range warm.reports {
		if _, err := roundTrip(rep); err != nil {
			b.fail(err)
			break
		}
	}
	if warm.little.N > 0 {
		info("little", map[string]float64{"N": warm.little.N, "X(R+Z)": warm.little.xrz(),
			"X": warm.little.X, "R": warm.little.R, "Z": warm.little.Z})
	}
	info("check", map[string]any{"digest": digest, "counts": want, "errors": len(b.errs)})

	res := result{Correct: len(b.errs) == 0, Metrics: m}
	for _, o := range t.runs {
		res.Attempted += o.txns
	}
	res.Attempted += int64(len(t.reads))
	res.Failed = t.failedReads
	if !res.Correct {
		res.Failed = res.Attempted
	}
	if !traced {
		m["ok_frac"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "ratio"}
	}
	return res
}

// measure repeats run until budget has passed and the runs the host did
// not disturb number at least three and took at least needReads reads,
// checking every run.
func (b *bench) measure(run func() *outcome, budget time.Duration, needReads int, digest string, want counts) timed {
	var t timed
	start := time.Now()
	for {
		el := time.Since(start)
		if el >= maxTimed || (el >= budget && t.steadyReads >= needReads && t.steadyRuns >= 3) {
			return t
		}
		stolen := stealTicks()
		o := run()
		t.add(o, b, digest, want, disturbed(stealTicks()-stolen, o.host))
		b.speed.after(o.host)
	}
}

// add checks that a run reproduced the warm-up's digest and counts and
// that its reads returned correct bodies, and records it.
func (t *timed) add(o *outcome, b *bench, digest string, want counts, disturbed bool) {
	if d, c := summarize(o); d != digest || c != want {
		b.fail(fmt.Errorf("%s: run output differs from the warm-up run (digest %s vs %s)", b.name, d, digest))
	}
	for _, r := range o.reads {
		if !o.validRead(r) {
			t.failedReads++
		}
		r.body, r.disturbed = nil, disturbed
		t.reads = append(t.reads, r)
	}
	t.runs = append(t.runs, runStats{o.host, o.virtual, o.txns, len(o.reads), disturbed})
	if !disturbed {
		t.steadyRuns++
		t.steadyReads += len(o.reads)
	}
}

// steady returns the runs the host did not disturb, with their reads,
// when they are enough for the metrics (three runs and needReads reads),
// and otherwise every run. Every run counts as attempted either way.
func (t timed) steady(needReads int) timed {
	if t.steadyRuns < 3 || t.steadyReads < needReads {
		return t
	}
	s := timed{failedReads: t.failedReads, steadyRuns: t.steadyRuns, steadyReads: t.steadyReads}
	for _, r := range t.runs {
		if !r.disturbed {
			s.runs = append(s.runs, r)
		}
	}
	for _, r := range t.reads {
		if !r.disturbed {
			s.reads = append(s.reads, r)
		}
	}
	return s
}

// median is the median over the runs of f.
func (t timed) median(f func(runStats) float64) float64 {
	v := make([]float64, 0, len(t.runs))
	for _, r := range t.runs {
		v = append(v, f(r))
	}
	return median(v)
}

func speedup(r runStats) float64 { return r.virtual.Seconds() / r.host.Seconds() }

// readsMS returns the reads' latencies (lag, with lag set) in ms, sorted.
func (t timed) readsMS(lag bool) []float64 {
	v := make([]float64, 0, len(t.reads))
	for _, r := range t.reads {
		d := r.lat
		if lag {
			d = r.lag
		}
		v = append(v, float64(d)/float64(time.Millisecond))
	}
	sort.Float64s(v)
	return v
}

// endToEnd reports the end-to-end metrics, every time and rate at
// reference host speed (hostspeed.go), and prints them unscaled too.
func (b *bench) endToEnd(all timed, setup float64) map[string]metric {
	t := all.steady(minReads)
	lat := t.readsMS(false)
	info("reads", map[string]any{"count": len(lat), "beyond_p99": len(lat) - int(float64(len(lat))*0.99),
		"runs": len(t.runs), "disturbed_runs_left_out": len(all.runs) - len(t.runs)})
	host := map[string]float64{
		"setup_s":          setup,
		"txn_per_s":        t.median(func(r runStats) float64 { return float64(r.txns) / r.host.Seconds() }),
		"sim_speedup":      t.median(speedup),
		"live_read_p50_ms": quantile(lat, 0.50),
		"live_read_p99_ms": quantile(lat, 0.99),
	}
	f := b.speed.factor()
	info("host_speed", map[string]any{"ref_ms": refNominal.Seconds() * 1000 / f, "samples": len(b.speed.samples),
		"factor": f, "unscaled": host})
	return map[string]metric{
		"setup_s":          {host["setup_s"] * f, "s"},
		"txn_per_s":        {host["txn_per_s"] / f, "1/s"},
		"sim_speedup":      {host["sim_speedup"] / f, "x"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"live_read_p50_ms": {host["live_read_p50_ms"] * f, "ms"},
		"live_read_p99_ms": {host["live_read_p99_ms"] * f, "ms"},
	}
}

// traced measures a third of the budget untraced, then the rest with the
// CPU profiler on, and reports per-layer metrics normalised per run.
func (b *bench) traced(rd *reader, digest string, want counts, warm *outcome) (map[string]metric, timed) {
	plain := b.measure(func() *outcome { return b.w.run(rd) }, b.budget/3, 0, digest, want)

	attr := newCPUAttribution()
	var sp []spans
	var gcS, allocB, allocN, txns float64
	profiled := func() *outcome {
		before := readRuntime()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			panic(err) // only fails while another profile runs, and none does
		}
		o := b.w.run(rd)
		pprof.StopCPUProfile()
		after := readRuntime()
		gcS += after.gc - before.gc
		allocB += after.allocBytes - before.allocBytes
		allocN += after.allocObjects - before.allocObjects
		txns += float64(o.txns)
		b.fail(attr.addProfile(prof.Bytes()))
		for _, rep := range o.reports {
			s, err := roundTrip(rep)
			b.fail(err)
			sp = append(sp, s)
		}
		return o
	}
	t := b.measure(profiled, b.budget-b.budget/3, 0, digest, want)

	n := float64(len(t.runs))
	perRun := func(ns int64) float64 { return float64(ns) / 1e9 / n }
	m := map[string]metric{}
	m["runtime.self_s"] = metric{perRun(attr.self["runtime"]), "s/run"}
	for _, mod := range modules {
		m[mod+".self_s"] = metric{perRun(attr.self[mod]), "s/run"}
		m[mod+".incl_s"] = metric{perRun(attr.incl[mod]), "s/run"}
	}
	m["vclock.barrier_s"] = metric{perRun(attr.barrier), "s/run"}
	m["runtime.sched_s"] = metric{perRun(attr.sched), "s/run"}
	m["runtime.gc_s"] = metric{gcS / n, "s/run"}
	m["runtime.alloc_bytes_per_txn"] = metric{allocB / txns, "B"}
	m["runtime.allocs_per_txn"] = metric{allocN / txns, "count"}
	m["bench.profile_samples"] = metric{float64(attr.samples), "count"}
	m["bench.ref_ms"] = metric{median(b.speed.samples) * 1000, "ms"}

	span := func(f func(spans) time.Duration) float64 {
		var v []float64
		for _, s := range sp {
			v = append(v, f(s).Seconds())
		}
		return median(v)
	}
	m["report.encode_s"] = metric{span(func(s spans) time.Duration { return s.encode }), "s"}
	m["report.decode_s"] = metric{span(func(s spans) time.Duration { return s.decode }), "s"}
	m["report.diff_s"] = metric{span(func(s spans) time.Duration { return s.diff }), "s"}
	m["stitch.build_s"] = metric{span(func(s spans) time.Duration { return s.stitch }), "s"}

	untraced, tracedSpeed := plain.steady(0).median(speedup), t.steady(0).median(speedup)
	m["bench.untraced_sim_speedup"] = metric{untraced, "x"}
	m["bench.traced_sim_speedup"] = metric{tracedSpeed, "x"}
	m["bench.trace_overhead"] = metric{1 - tracedSpeed/untraced, "ratio"}

	m["profiler.samples"] = metric{float64(want.Samples), "count"}
	m["profiler.calls"] = metric{float64(want.Calls), "count"}
	m["profiler.ctxt_switches"] = metric{float64(want.CtxtSwitches), "count"}
	m["profiler.overhead_sim_ms"] = metric{float64(want.OverheadNS) / 1e6, "ms"}
	m["cct.nodes"] = metric{float64(want.CCTNodes), "count"}
	m["shmflow.flows"] = metric{float64(want.Flows), "count"}
	m["vm.emu_cycles"] = metric{float64(want.EmuCycles), "count"}
	m["stitch.edges"] = metric{float64(want.StitchEdges), "count"}
	m["report.json_bytes"] = metric{float64(want.JSONBytes), "B"}
	m["serve.windows"] = metric{float64(want.Windows), "count"}
	m["serve.alerts"] = metric{float64(want.Alerts), "count"}
	var reads float64
	if _, ok := b.w.(*serveLive); ok {
		reads = t.steady(0).median(func(r runStats) float64 { return float64(r.reads) })
	}
	m["serve.reads"] = metric{reads, "count"}
	m["tpcw.little_n"] = metric{warm.little.N, "count"}
	m["tpcw.little_x_rz"] = metric{warm.little.xrz(), "count"}

	all := timed{
		runs:        append(plain.runs, t.runs...),
		reads:       append(plain.reads, t.reads...),
		failedReads: plain.failedReads + t.failedReads,
	}
	m["bench.generator_lag_ms"] = metric{quantile(all.readsMS(true), 0.99), "ms"}
	return m, all
}

// ---- the open-loop reader ---------------------------------------------

// read is one request of the open-loop reader.
type read struct {
	lat     time.Duration // from when the read was due to its response
	lag     time.Duration // how late the reader issued it
	status  int
	body    []byte
	retired int64 // windows the service had retired when the read was issued
	// disturbed marks a read of a run the hypervisor took CPU time from.
	disturbed bool
}

// reader issues one read due every interval from the start of a run
// until the run returns, and none after. It times each read from when it
// was due, so a stall also counts against the reads queued behind it.
type reader struct {
	every time.Duration
}

// during runs fn while the reader reads h (GET /report, live window for
// a service, folded format for a batch report), and returns fn's host
// time and the reads. With a nil reader it only times fn. retired, when
// set, reports how many windows the service has retired.
func (r *reader) during(h http.Handler, retired func() int64, fn func()) (time.Duration, []read) {
	if r == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0), nil
	}
	url := "/report?format=folded"
	if retired != nil {
		url = "/report?window=live"
	}
	var reads []read
	stop, done := make(chan struct{}), make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		next := time.NewTimer(0)
		defer next.Stop()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * r.every)
			next.Reset(time.Until(due))
			select {
			case <-stop:
				return
			case <-next.C:
			}
			select {
			case <-stop: // the run returned while the timer fired
				return
			default:
			}
			rd := read{lag: time.Since(due)}
			if retired != nil {
				rd.retired = retired()
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			rd.lat = time.Since(due)
			rd.status, rd.body = rec.Code, rec.Body.Bytes()
			reads = append(reads, rd)
		}
	}()
	t0 := time.Now()
	fn()
	host := time.Since(t0)
	close(stop)
	<-done
	return host, reads
}

// ---- statistics and host probes ---------------------------------------

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

type runtimeCounters struct {
	gc, allocBytes, allocObjects float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeCounters{gc: val(s[0].Value), allocBytes: val(s[1].Value), allocObjects: val(s[2].Value)}
}
