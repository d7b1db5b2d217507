package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"whodunit"
	"whodunit/internal/apps/apacheweb"
	"whodunit/internal/apps/tpcw"
	"whodunit/internal/scenarios"
	"whodunit/internal/vclock"
	"whodunit/internal/workload"
)

// A runner drives one workload, one set of inputs the benchmark runs.
// setup generates the inputs for a seed and builds what a run needs (it
// may be called several times; the last call's state is used) and
// returns the part of its time spent generating inputs. run performs one
// simulated run; while it runs, rd (nil for the untimed warm-up run)
// issues open-loop reads against the workload's report endpoint.
type runner interface {
	setup(seed uint64) (gen time.Duration)
	run(rd *reader) *outcome
	// engine names the scheduler engine the workload's simulated
	// threads run on.
	engine() string
}

var workloads = map[string]func() runner{
	"tpcw-pods":   func() runner { return &tpcwPods{} },
	"apache-flow": func() runner { return &apacheFlow{} },
	"serve-live":  func() runner { return &serveLive{} },
}

// outcome is what one run produced.
type outcome struct {
	host    time.Duration     // host time of the simulated run
	virtual whodunit.Duration // virtual time it simulated
	txns    int64             // transactions it completed
	reports []*whodunit.Report
	reads   []read
	// validRead tells a correct read apart from a failed one.
	validRead func(read) bool
	// check verifies the workload's own invariants on this outcome.
	check func() error
	// extra holds workload-specific exact counts.
	extra  counts
	little littleLaw // tpcw-pods only
}

// ---- tpcw-pods ----------------------------------------------------------

// podsConfig is the tpcw-pods operating point: 150 closed-loop clients
// over four sharded squid->tomcat pods and one shared MySQL, for 20
// virtual minutes. It sits below the shared database's saturation knee
// (clients spend ~89% of their cycle thinking); 400 clients saturate it.
func podsConfig(seed uint64) tpcw.MegaConfig {
	cfg := tpcw.DefaultMegaConfig(150)
	cfg.Replicas = 4
	cfg.Sharded = true
	cfg.Duration = 20 * whodunit.Minute
	cfg.Seed = seed
	return cfg
}

type tpcwPods struct {
	cfg  tpcw.MegaConfig
	last *whodunit.Report // the latest finished report, served to readers
}

func (w *tpcwPods) engine() string {
	if vclock.DefaultEngine == vclock.EngineCoro {
		return "coro (clients, squid) + goroutine (tomcat, mysqld)"
	}
	return "goroutine"
}

// setup has no inputs to generate outside the model: MegaRun builds the
// tables and clients itself. A run that ends before any client's first
// think time is over times exactly that construction.
func (w *tpcwPods) setup(seed uint64) time.Duration {
	w.cfg = podsConfig(seed)
	empty := w.cfg
	empty.Duration = 1
	tpcw.MegaRun(empty)
	return 0
}

func (w *tpcwPods) run(rd *reader) *outcome {
	var res *tpcw.MegaResult
	host, reads := rd.during(batchHandler(w.last), nil, func() { res = tpcw.MegaRun(w.cfg) })
	w.last = res.Report
	little := measureLittle(w.cfg, res)
	return &outcome{
		host: host, virtual: res.Elapsed, txns: res.Completed,
		reports:   []*whodunit.Report{res.Report},
		reads:     reads,
		validRead: foldedRead(res.Report),
		little:    little,
		check:     little.check,
	}
}

// ---- apache-flow --------------------------------------------------------

// apacheConns is the apache-flow trace size: 8,000 connections served
// back to back (peak load), a fifth of a host second per run. Memory
// grows with the trace by about 15 KB per connection, reports included.
const apacheConns = 8000

// apacheSite generates the web site apache-flow serves: the 2,000 files
// of workload.DefaultWebConfig with their sizes, the same at every seed.
// The seed draws the connections and their requests over it. At peak
// load a run's virtual time is the bytes it sends; with sizes drawn per
// seed, which heavy-tailed sizes fell on the most popular files moved it
// by 12% between seeds (interquartile over 20 seeds), over a fixed site
// by 1.5%.
func apacheSite() []int64 {
	site := workload.DefaultWebConfig()
	site.NumConns = 0
	return workload.GenWeb(site).Files
}

type apacheFlow struct {
	tr   *workload.WebTrace
	last *whodunit.Report
}

func (w *apacheFlow) engine() string { return "goroutine" }

func (w *apacheFlow) setup(seed uint64) time.Duration {
	wc := workload.DefaultWebConfig()
	wc.Seed = seed
	wc.NumConns = apacheConns
	t0 := time.Now()
	files := apacheSite()
	w.tr = workload.GenWeb(wc)
	w.tr.Files, w.tr.TotalBytes = files, 0
	for _, c := range w.tr.Conns {
		for r := range c.Reqs {
			c.Reqs[r].Size = files[c.Reqs[r].File]
			w.tr.TotalBytes += c.Reqs[r].Size
		}
	}
	gen := time.Since(t0)
	// Construct the server model once without serving anything.
	apacheweb.Run(apacheweb.DefaultConfig(&workload.WebTrace{Files: w.tr.Files}))
	return gen
}

func (w *apacheFlow) run(rd *reader) *outcome {
	var res *apacheweb.Result
	host, reads := rd.during(batchHandler(w.last), nil, func() { res = apacheweb.Run(apacheweb.DefaultConfig(w.tr)) })
	w.last = res.Report
	tr := w.tr
	return &outcome{
		host: host, virtual: res.Elapsed, txns: res.Requests,
		reports:   []*whodunit.Report{res.Report},
		reads:     reads,
		validRead: foldedRead(res.Report),
		extra:     counts{EmuCycles: res.EmulationCycles},
		check:     func() error { return checkApache(tr, res) },
	}
}

// ---- serve-live ---------------------------------------------------------

// serveWindows is how many windows one serve-live run retires: 600
// two-second windows (1,200 virtual seconds), about three host seconds.
const serveWindows = 600

type serveLive struct {
	sc scenarios.ServeScenario
	p  scenarios.Params
}

func (w *serveLive) engine() string { return "goroutine (mesh threads are free-form bodies)" }

func (w *serveLive) setup(seed uint64) time.Duration {
	w.sc, _ = scenarios.ServeByName("serve-mesh")
	w.p = w.sc.Defaults
	w.p.Seed = seed
	w.server()
	return 0
}

func (w *serveLive) server() *whodunit.Server {
	return whodunit.NewServer(w.sc.MakeApp(w.p), whodunit.ServeConfig{
		Window:     w.sc.Window,
		Retain:     serveWindows + 1,
		Threshold:  w.sc.Threshold,
		MaxWindows: serveWindows,
	})
}

func (w *serveLive) run(rd *reader) *outcome {
	srv := w.server()
	host, reads := rd.during(srv.Handler(), srv.Ring().Total, func() { srv.Run() })
	retired := srv.Ring().Total()
	// The service's unit of work is a retired window: nothing the
	// program returns counts the mesh's requests.
	o := &outcome{host: host, txns: retired, reads: reads, validRead: liveRead(retired)}
	full := 0
	for _, kv := range srv.Ring().Entries() {
		rep := kv.V.Report
		o.reports = append(o.reports, rep)
		o.virtual = rep.Window.End
		if rep.Elapsed == w.sc.Window {
			full++
		}
	}
	o.extra = counts{Windows: int64(full), Alerts: srv.AlertsTotal()}
	o.check = func() error {
		if full != serveWindows || retired > serveWindows+1 {
			return fmt.Errorf("serve-live: retired %d windows (%d full), want exactly %d full", retired, full, serveWindows)
		}
		return nil
	}
	return o
}

// ---- reads --------------------------------------------------------------

// batchHandler serves the latest finished report of a batch workload the
// way the profiling service serves a retired window in folded format: a
// dashboard polling the most recent profile while the next one is being
// taken.
func batchHandler(latest *whodunit.Report) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		latest.Folded(w)
	})
}

// foldedRead accepts a batch read when it returned the folded report;
// every run of a seed produces the same report, so the one just finished
// serves as the expected body.
func foldedRead(rep *whodunit.Report) func(read) bool {
	var want bytes.Buffer
	rep.Folded(&want)
	return func(r read) bool { return r.status == http.StatusOK && bytes.Equal(r.body, want.Bytes()) }
}

// liveRead accepts a serve-live read of a run that retired total windows
// when it returned 200 with the in-progress window: its sequence number
// is at least the number of windows retired before the read was issued.
// A read issued after the last window retired, while the run was
// returning, has no window in progress; the service rightly answers it
// with the last retired one.
func liveRead(total int64) func(read) bool {
	return func(r read) bool {
		if r.status != http.StatusOK {
			return false
		}
		var rep struct {
			Window *struct {
				Seq int64 `json:"seq"`
			} `json:"window"`
		}
		if err := json.Unmarshal(r.body, &rep); err != nil || rep.Window == nil {
			return false
		}
		return rep.Window.Seq >= r.retired || (r.retired == total && rep.Window.Seq == total-1)
	}
}
