package experiments

import (
	"fmt"
	"io"
	"time"

	"whodunit/internal/vclock"
)

// --- switchcost: context-switch cost of the two thread-body forms ----

// SwitchCostRow is one body form's measured hand-off cost.
type SwitchCostRow struct {
	Form        string
	Switches    int
	NsPerSwitch float64
}

// SwitchCostResult compares frame programs, stepped inline by the
// dispatch loop, against Sim.Go bodies, resumed as iter.Pull coroutines,
// on the same two-thread ping-pong program.
type SwitchCostResult struct {
	Rows  []SwitchCostRow
	Ratio float64 // body ns/switch over frame ns/switch
}

// SwitchCost measures the wall-clock cost of one blocking operation —
// queue Get parking the thread plus the Put-driven resume — for each
// form of thread body. Each round trip is two switches.
func SwitchCost(rounds int) SwitchCostResult {
	measure := func(s *vclock.Sim, done *int) float64 {
		target := 0
		stop := func() bool { return *done >= target }
		target = rounds / 10 // warm-up: slices at steady capacity
		s.RunUntil(stop)
		start := time.Now()
		target = *done + rounds
		s.RunUntil(stop)
		elapsed := time.Since(start)
		s.Shutdown()
		return float64(elapsed.Nanoseconds()) / float64(rounds*2)
	}
	frame := func() float64 {
		s := vclock.New()
		qa, qb := s.NewQueue("a"), s.NewQueue("b")
		done := 0
		var echoF, countF vclock.Frame
		echoF = func(c *vclock.Coro, v any) vclock.Step {
			qa.Put(v)
			return c.Get(qb, echoF)
		}
		countF = func(c *vclock.Coro, v any) vclock.Step {
			done++
			qb.Put(v)
			return c.Get(qa, countF)
		}
		s.GoCoro("echo", func(c *vclock.Coro, _ any) vclock.Step { return c.Get(qb, echoF) })
		s.GoCoro("count", func(c *vclock.Coro, _ any) vclock.Step {
			qb.Put(struct{}{})
			return c.Get(qa, countF)
		})
		return measure(s, &done)
	}
	body := func() float64 {
		s := vclock.New()
		qa, qb := s.NewQueue("a"), s.NewQueue("b")
		done := 0
		s.Go("echo", func(t *vclock.Thread) {
			for {
				qa.Put(t.Get(qb))
			}
		})
		s.Go("count", func(t *vclock.Thread) {
			qb.Put(struct{}{})
			for {
				v := t.Get(qa)
				done++
				qb.Put(v)
			}
		})
		return measure(s, &done)
	}
	f, b := frame(), body()
	res := SwitchCostResult{Rows: []SwitchCostRow{
		{Form: "frame", Switches: rounds * 2, NsPerSwitch: f},
		{Form: "body", Switches: rounds * 2, NsPerSwitch: b},
	}}
	if f > 0 {
		res.Ratio = b / f
	}
	return res
}

// Render prints the switch-cost comparison.
func (r SwitchCostResult) Render(w io.Writer) {
	fmt.Fprintln(w, "== switchcost: scheduler hand-off cost per blocking operation ==")
	fmt.Fprintf(w, "%-12s %12s %12s\n", "form", "switches", "ns/switch")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %12d %12.1f\n", row.Form, row.Switches, row.NsPerSwitch)
	}
	fmt.Fprintf(w, "body/frame ratio: %.1fx (iter.Pull coroutine vs frames stepped inline)\n", r.Ratio)
}
