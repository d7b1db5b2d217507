package vclock

import "testing"

// BenchmarkThreadSwitch measures the cost of one blocking-operation
// hand-off — a queue Get parking the thread plus the Put-driven resume —
// for each form of thread body. The program is the same two-thread
// ping-pong either way; only the control transfer differs: a frame
// program's continuation is invoked inline by the dispatch loop, a
// Sim.Go body is resumed and suspended as an iter.Pull coroutine. The
// "ns/switch" metric counts each wake as one switch (two per round
// trip).
func BenchmarkThreadSwitch(b *testing.B) {
	b.Run("frame", func(b *testing.B) {
		s := New()
		qa, qb := s.NewQueue("a"), s.NewQueue("b")
		rounds := 0
		var echoF, countF Frame
		echoF = func(c *Coro, v any) Step {
			qa.Put(v)
			return c.Get(qb, echoF)
		}
		countF = func(c *Coro, v any) Step {
			rounds++
			qb.Put(v)
			return c.Get(qa, countF)
		}
		s.GoCoro("echo", func(c *Coro, _ any) Step { return c.Get(qb, echoF) })
		s.GoCoro("count", func(c *Coro, _ any) Step {
			qb.Put(struct{}{})
			return c.Get(qa, countF)
		})
		benchSwitches(b, s, &rounds)
	})
	b.Run("body", func(b *testing.B) {
		s := New()
		qa, qb := s.NewQueue("a"), s.NewQueue("b")
		rounds := 0
		s.Go("echo", func(th *Thread) {
			for {
				qa.Put(th.Get(qb))
			}
		})
		s.Go("count", func(th *Thread) {
			qb.Put(struct{}{})
			for {
				v := th.Get(qa)
				rounds++
				qb.Put(v)
			}
		})
		benchSwitches(b, s, &rounds)
	})
}

// benchSwitches times b.N ping-pong round trips on s, whose threads
// count completed round trips in *rounds.
func benchSwitches(b *testing.B, s *Sim, rounds *int) {
	target := 0
	stop := func() bool { return *rounds >= target }
	target = 100 // warm-up: start both threads, settle capacities
	s.RunUntil(stop)
	b.ResetTimer()
	target = *rounds + b.N
	s.RunUntil(stop)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2), "ns/switch")
	s.Shutdown()
}
