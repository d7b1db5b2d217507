package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"time"

	"whodunit"
	"whodunit/internal/apps/apacheweb"
	"whodunit/internal/apps/tpcw"
	"whodunit/internal/workload"
)

// Output checks. Every run of a seed must reproduce the warm-up run's
// digest and counts exactly (the simulator is deterministic). The warm-up
// run is checked in full: its digest against the pinned one when the
// seed is pinned, every report's JSON round trip, and the workload's own
// invariants.

// pinnedDigests holds the SHA-256 of the reports' JSON, per workload, at
// the default seed (1) and one held-out seed (7). serve-live hashes its
// retired windows' JSON in sequence order.
var pinnedDigests = map[string]map[uint64]string{
	"tpcw-pods": {
		1: "20cfd8897f123ecfd7a6d7c8eba6f74e56bcc38b67fd3ff47d8fc278a87a1b4a",
		7: "fde90e943521496a0415f542659a2e85d5cc71197c69238da09d67c09308337c",
	},
	"apache-flow": {
		1: "b2018e8c5a966a504e09a620062051eebed2ca05304b8df9a17d1edb71da6833",
		7: "097bef8d5ab222967047c0f9e969af3387a6361cbd55ca951a1e7a8ea2ecf1e1",
	},
	"serve-live": {
		1: "9ea8f5f7c5869d113da1f83d8ff39bb07ad6c90830a0478331e4cb2256eddaa4",
		7: "36a0d5e0d4992a87a666aa39882f14784f6b9b0204af5c6f6169b0d599d30432",
	},
}

// counts are the exact per-run counts the traced run reports. A change
// that only speeds up the simulator leaves every one of them unchanged.
type counts struct {
	Samples      int64 // profiler samples over every stage
	Calls        int64 // instrumented calls
	CtxtSwitches int64 // transaction-context switches
	OverheadNS   int64 // modelled profiling overhead, virtual ns
	CCTNodes     int64 // CCT records in the stage dumps
	Flows        int64 // shared-memory flows detected
	EmuCycles    int64 // vm emulation cycles (apache-flow)
	StitchEdges  int64 // edges of the stitched transaction graph
	JSONBytes    int64 // size of the reports' JSON
	Windows      int64 // full windows retired (serve-live)
	Alerts       int64 // adjacent-window alerts (serve-live)
}

// summarize hashes the outcome's reports and tallies its counts.
func summarize(o *outcome) (string, counts) {
	c := o.extra
	h := sha256.New()
	var buf bytes.Buffer
	for _, rep := range o.reports {
		buf.Reset()
		if err := rep.JSON(&buf); err != nil {
			panic(err) // a report the program built always encodes
		}
		h.Write(buf.Bytes())
		c.JSONBytes += int64(buf.Len())
		c.Flows += int64(len(rep.Flows))
		if rep.Graph != nil {
			c.StitchEdges += int64(len(rep.Graph.Edges))
		}
		for _, sr := range rep.Stages {
			c.Samples += sr.Samples
			c.Calls += sr.Calls
			c.CtxtSwitches += sr.CtxtSwitches
			c.OverheadNS += int64(sr.Overhead)
			for _, td := range sr.Dump.Trees {
				c.CCTNodes += int64(len(td.Records))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), c
}

// checkDigest compares a digest with the pinned one, when the seed has one.
func checkDigest(name string, seed uint64, digest string) error {
	want, ok := pinnedDigests[name][seed]
	if ok && want != digest {
		return fmt.Errorf("%s seed %d: report digest %s, pinned %s", name, seed, digest, want)
	}
	return nil
}

// spans are the host times of the presentation-phase calls on one report.
type spans struct {
	encode, decode, diff, stitch time.Duration
}

// roundTrip encodes a report, decodes it back, diffs the two and stitches
// the report's dumps, timing each call. The decoded report must diff empty
// against the original and stitch to the same graph size.
func roundTrip(rep *whodunit.Report) (spans, error) {
	var sp spans
	var buf bytes.Buffer
	t0 := time.Now()
	if err := rep.JSON(&buf); err != nil {
		return sp, err
	}
	t1 := time.Now()
	back, err := whodunit.ReadReport(&buf)
	t2 := time.Now()
	if err != nil {
		return sp, err
	}
	d := whodunit.Diff(rep, back)
	t3 := time.Now()
	dumps := make([]whodunit.StageDump, 0, len(rep.Stages))
	for _, sr := range rep.Stages {
		dumps = append(dumps, sr.Dump)
	}
	g := whodunit.Stitch(dumps)
	t4 := time.Now()
	sp = spans{encode: t1.Sub(t0), decode: t2.Sub(t1), diff: t3.Sub(t2), stitch: t4.Sub(t3)}
	if !d.Empty() {
		return sp, fmt.Errorf("report %s: JSON round trip diffs non-empty (max delta %d)", rep.App, d.MaxDelta())
	}
	if rep.Graph != nil && (len(g.Nodes) != len(rep.Graph.Nodes) || len(g.Edges) != len(rep.Graph.Edges)) {
		return sp, fmt.Errorf("report %s: restitched graph has %d nodes/%d edges, report has %d/%d",
			rep.App, len(g.Nodes), len(g.Edges), len(rep.Graph.Nodes), len(rep.Graph.Edges))
	}
	return sp, nil
}

// littleLaw is the tpcw-pods closed-loop check: with N clients, throughput
// X over the configured duration, mean response R and mean think time Z,
// Little's law says N = X(R+Z).
type littleLaw struct {
	N, X, R, Z float64
}

// Little's law must hold within littleTolerance, and the clients must
// spend at least minThinkShare of their cycle thinking (X·Z/N, which is
// Z/(R+Z) when the law holds). Little's law alone also holds at a
// saturated operating point; the think share is what falls there, as the
// response time grows with the database backlog.
const (
	littleTolerance = 0.03
	minThinkShare   = 0.75
)

func measureLittle(cfg tpcw.MegaConfig, res *tpcw.MegaResult) littleLaw {
	var n int64
	var resp whodunit.Duration
	for _, st := range res.PerType {
		n += st.Count
		resp += st.TotalResp
	}
	think := cfg.ThinkMean
	if think == 0 {
		think = 7 * whodunit.Second
	}
	l := littleLaw{
		N: float64(cfg.Clients),
		X: float64(res.Completed) / cfg.Duration.Seconds(),
		Z: think.Seconds(),
	}
	if n > 0 {
		l.R = (resp / whodunit.Duration(n)).Seconds()
	}
	return l
}

func (l littleLaw) xrz() float64 { return l.X * (l.R + l.Z) }

func (l littleLaw) check() error {
	if math.Abs(l.xrz()-l.N) > littleTolerance*l.N {
		return fmt.Errorf("tpcw-pods: Little's law fails: N=%.0f, X(R+Z)=%.2f (tolerance %.0f%%)", l.N, l.xrz(), 100*littleTolerance)
	}
	if share := l.X * l.Z / l.N; share < minThinkShare {
		return fmt.Errorf("tpcw-pods: saturated: clients think %.0f%% of their cycle (R=%.2fs, Z=%.0fs), want at least %.0f%%",
			100*share, l.R, l.Z, 100*minThinkShare)
	}
	return nil
}

// checkApache verifies request conservation against the generated trace
// and the flow count the fd-queue hand-off yields in whodunit mode: two
// detected shared-memory flows per connection.
func checkApache(tr *workload.WebTrace, res *apacheweb.Result) error {
	var reqs, bytesWant int64
	for _, c := range tr.Conns {
		reqs += int64(len(c.Reqs))
		for _, r := range c.Reqs {
			bytesWant += r.Size
		}
	}
	var errs []error
	if res.Conns != int64(len(tr.Conns)) {
		errs = append(errs, fmt.Errorf("apache-flow: served %d of %d connections", res.Conns, len(tr.Conns)))
	}
	if res.Requests != reqs || res.BytesSent != bytesWant {
		errs = append(errs, fmt.Errorf("apache-flow: served %d requests/%d bytes, trace has %d/%d", res.Requests, res.BytesSent, reqs, bytesWant))
	}
	if len(res.Flows) != 2*len(tr.Conns) {
		errs = append(errs, fmt.Errorf("apache-flow: detected %d flows for %d connections, want 2 each", len(res.Flows), len(tr.Conns)))
	}
	return errors.Join(errs...)
}
