package main

import (
	"net/http"
	"strconv"
	"strings"
	"testing"

	"whodunit/internal/apps/tpcw"
)

// The output check must catch a wrong report, a report of the wrong
// seed and a saturated operating point; each case first shows the check
// passing on the unaltered input, so a failure cannot come from
// somewhere else.

func podsOutcome(t *testing.T, seed uint64) *outcome {
	t.Helper()
	w := &tpcwPods{}
	w.setup(seed)
	return w.run(nil)
}

func TestPerturbedReportFailsCheck(t *testing.T) {
	o := podsOutcome(t, 1)
	digest, _ := summarize(o)
	if err := checkDigest("tpcw-pods", 1, digest); err != nil {
		t.Fatalf("unaltered report: %v", err)
	}
	rec := &o.reports[0].Stages[0].Dump.Trees[0].Records[0]
	rec.Self++
	perturbed, _ := summarize(o)
	if err := checkDigest("tpcw-pods", 1, perturbed); err == nil {
		t.Fatal("a report with one CCT sample added passed the digest check")
	}
}

func TestWrongSeedDigestFailsCheck(t *testing.T) {
	digest, _ := summarize(podsOutcome(t, 7))
	if err := checkDigest("tpcw-pods", 7, digest); err != nil {
		t.Fatalf("seed 7 against its own pin: %v", err)
	}
	if err := checkDigest("tpcw-pods", 1, digest); err == nil {
		t.Fatal("seed 7's report passed the check pinned for seed 1")
	}
}

func TestSaturatedPodsFailCheck(t *testing.T) {
	if err := podsOutcome(t, 1).check(); err != nil {
		t.Fatalf("benchmark operating point: %v", err)
	}
	cfg := podsConfig(1)
	cfg.Clients = 400
	err := measureLittle(cfg, tpcw.MegaRun(cfg)).check()
	if err == nil || !strings.Contains(err.Error(), "saturated") {
		t.Fatalf("400 clients on the shared database: got %v, want a saturation failure", err)
	}
}

func TestEveryPinnedSeedIsCovered(t *testing.T) {
	for name := range workloads {
		for _, seed := range []uint64{1, 7} {
			if pinnedDigests[name][seed] == "" {
				t.Errorf("%s: no digest pinned for seed %d", name, seed)
			}
		}
	}
}

func TestLiveReadRejectsStaleWindow(t *testing.T) {
	const total = 600
	body := func(seq int) []byte { return []byte(`{"window":{"seq":` + strconv.Itoa(seq) + `}}`) }
	valid := liveRead(total)
	for _, c := range []struct {
		retired int64
		seq     int
		status  int
		want    bool
	}{
		{retired: 10, seq: 10, status: http.StatusOK, want: true},           // the window in progress
		{retired: 10, seq: 9, status: http.StatusOK, want: false},           // a window retired before the read
		{retired: 10, seq: 10, status: http.StatusNotFound},                 // not answered
		{retired: total, seq: total - 1, status: http.StatusOK, want: true}, // issued while the run returned
		{retired: total - 1, seq: total - 2, status: http.StatusOK},         // stale even at the end
	} {
		if got := valid(read{retired: c.retired, status: c.status, body: body(c.seq)}); got != c.want {
			t.Errorf("read issued after %d windows, answered %d with window %d: valid=%v, want %v",
				c.retired, c.status, c.seq, got, c.want)
		}
	}
}
