package vclock

import (
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// EngineKind names a scheduler engine. One engine remains, EngineCoro;
// the type and its String method stay so callers that record which
// engine ran keep compiling.
type EngineKind uint8

// EngineCoro is the scheduler engine: one dispatch loop steps frame
// programs (GoCoro) inline and resumes Sim.Go bodies as iter.Pull
// coroutines.
const EngineCoro EngineKind = 0

func (k EngineKind) String() string { return "coro" }

// DefaultEngine is the engine every Sim runs.
const DefaultEngine = EngineCoro

// Sim is a deterministic discrete-event simulator. It owns the virtual
// clock and schedules simulated threads. Create one with New, start threads
// with Go, and drive the simulation with Run or RunUntil.
//
// A Sim is not safe for concurrent use from multiple host goroutines; all
// interaction must happen either from the goroutine that calls Run or from
// inside simulated threads.
//
// Scheduling is one loop: RunUntil pops events in (when, seq) order
// and runs each to its next blocking point on the calling goroutine.
// Frame programs (GoCoro) are stepped inline; a Sim.Go body is an
// iter.Pull coroutine that the loop resumes and that yields back when it
// blocks. Exactly one body or frame runs at a time, so no locking is
// needed anywhere in the simulator.
type Sim struct {
	now     Time
	events  eventHeap
	seq     uint64
	live    int // threads started and not yet exited
	nextID  int
	threads map[int]*Thread

	running bool        // inside RunUntil
	stop    func() bool // RunUntil's stop predicate, nil when absent

	paced   uint32    // events dispatched, for pace
	pacedAt time.Time // wall time of the last pace yield

	crash *Crash // first captured panic; halts dispatch
}

// poison unwinds a parked Sim.Go body: park panics with it once Kill or
// Shutdown has stopped the body's coroutine, and the thread wrapper
// recovers it, so the body's deferred functions run.
type poison struct{}

// The dispatch loop yields its P to the Go runtime once every
// paceWall of wall time, checked every paceEvents events. Resuming a
// Sim.Go body is an iter.Pull coroutine switch, which never wakes an
// idle P the way a channel hand-off does, and an idle P sleeps in
// epoll_wait at millisecond resolution. Without the yield, timers and
// network reads elsewhere in the process — a live report reader, a
// paced server's ticker — fire up to a millisecond late while a run is
// busy. Gosched lets the runtime service them from this M.
const (
	paceEvents = 8
	paceWall   = 20 * time.Microsecond
)

// Crash records the first panic that escaped a simulated thread's body
// or a scheduler callback. Dispatch halts at the crash — no further
// event runs — so the failure point is deterministic: with a fixed seed
// the same crash happens at the same virtual time with the same events
// already dispatched, every run.
type Crash struct {
	Thread string // crashing thread's name, or "(scheduler)" for a callback
	At     Time   // virtual time of the crash
	Value  any    // the panic value
	Stack  []byte // goroutine stack at the panic site
}

// Error renders the crash; Crash satisfies error so supervisors can
// return it.
func (c *Crash) Error() string {
	return fmt.Sprintf("vclock: %s crashed at %v: %v", c.Thread, c.At, c.Value)
}

type event struct {
	when  Time
	seq   uint64
	t     *Thread // thread to wake (or start), or
	fn    func()  // callback to run in dispatcher context, or
	q     *Queue  // queue to deliver v to in dispatcher context
	v     any     // payload delivered to t (queue item), nil for plain wakes
	start bool    // t is to be started, not resumed
	kill  bool    // t is to be unwound (Sim.Kill)
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (when, seq).
// container/heap is deliberately not used: its interface methods box every
// pushed and popped event into an `any`, which costs two heap allocations
// per scheduled event — on the profiler hot path, where every
// Probe.Compute schedules a wake-up, that is the difference between an
// allocation-free steady state and ~2 allocs per sample. The 4-ary shape
// halves the sift depth of the dispatcher's pop (the busiest heap
// operation); because (when, seq) is a total order, the pop sequence is
// identical whatever the heap's internal arity.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (s *Sim) push(e event) {
	e.seq = s.seq
	s.seq++
	h := append(s.events, e)
	// Sift up.
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 4
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.events = h
}

func (s *Sim) pop() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the fn closure (and payload) for GC
	h = h[:n]
	// Sift down.
	for i := 0; ; {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if h.less(k, c) {
				c = k
			}
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	s.events = h
	return top
}

func (s *Sim) schedule(at Time, t *Thread) { s.push(event{when: at, t: t}) }

// New returns an empty simulation with the clock at zero.
func New() *Sim {
	return &Sim{threads: make(map[int]*Thread)}
}

// Now reports the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn to run in scheduler context at virtual time `at`
// (or immediately if `at` is in the past). The callback must not block on
// any vclock primitive; it may wake threads by putting items on queues.
func (s *Sim) At(at Time, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.push(event{when: at, fn: fn})
}

// After schedules fn to run d after the current virtual time.
func (s *Sim) After(d Duration, fn func()) { s.At(s.now.Add(d), fn) }

// Every schedules fn to run in scheduler context every d of virtual time,
// first at now+d. Successive ticks land at exact multiples — the next
// tick is computed from the previous tick's nominal time, never from the
// clock, so the series cannot drift even if fn itself advances wall
// time. The series self-reschedules for the life of the simulation, so a
// Sim with an Every never runs out of events: drive it with
// RunUntil/RunFor, not Run. This is the window-tick primitive of the
// continuous profiling service.
func (s *Sim) Every(d Duration, fn func()) {
	if d <= 0 {
		panic("vclock: Every needs a positive period")
	}
	next := s.now.Add(d)
	var tick func()
	tick = func() {
		fn()
		next = next.Add(d)
		s.At(next, tick)
	}
	s.At(next, tick)
}

// Thread is a simulated thread of execution. A Thread may only call its
// blocking methods (Sleep, Compute, Get, Lock, ...) from inside its own
// body function.
type Thread struct {
	ID   int
	Name string

	sim     *Sim
	body    func(*Thread) // Sim.Go body; nil for frame programs
	coro    *Coro         // GoCoro program; nil for Sim.Go bodies
	started bool
	exited  bool
	dead    bool   // marked by Kill; pending events for it are skipped
	waitGen uint64 // bumped per queue wait; guards stale timeout wakes

	// A started Sim.Go body runs as an iter.Pull coroutine: the dispatch
	// loop resumes it with next, park suspends it with yield, and Kill
	// and Shutdown unwind it with stop. wake carries the payload of the
	// wake that next delivers.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	wake  any

	// Data is an arbitrary per-thread payload. The profiler attaches its
	// per-thread probe here so that libraries handed only a *Thread can
	// reach the probe without a package cycle.
	Data any
}

// Sim returns the simulation the thread belongs to.
func (t *Thread) Sim() *Sim { return t.sim }

// Now reports the current virtual time.
func (t *Thread) Now() Time { return t.sim.now }

// Go creates a simulated thread named name running body, scheduled to start
// at the current virtual time. It returns the thread handle immediately; the
// body runs once the scheduler reaches it.
func (s *Sim) Go(name string, body func(*Thread)) *Thread {
	return s.GoAt(s.now, name, body)
}

// GoAt is like Go but delays the thread's start until virtual time `at`.
func (s *Sim) GoAt(at Time, name string, body func(*Thread)) *Thread {
	t := s.newThread(at, name)
	t.body = body
	return t
}

// GoCoro creates a run-to-completion simulated thread named name whose
// body is the resumable program starting at frame f, scheduled to start
// at the current virtual time. The dispatch loop invokes its
// continuations inline, so every blocking operation costs a method call
// instead of a coroutine switch.
func (s *Sim) GoCoro(name string, f Frame) *Thread {
	return s.GoCoroAt(s.now, name, f)
}

// GoCoroAt is GoCoro with the thread's start delayed until virtual
// time `at`.
func (s *Sim) GoCoroAt(at Time, name string, f Frame) *Thread {
	t := s.newThread(at, name)
	newCoro(t, f)
	return t
}

// newThread registers a thread and schedules its start event.
func (s *Sim) newThread(at Time, name string) *Thread {
	t := &Thread{ID: s.nextID, Name: name, sim: s}
	s.nextID++
	s.live++
	s.threads[t.ID] = t
	if at < s.now {
		at = s.now
	}
	s.push(event{when: at, t: t, start: true})
	return t
}

// exit is the bookkeeping every ending thread gets: finished, crashed,
// killed or shut down.
func (s *Sim) exit(t *Thread) {
	t.exited = true
	s.live--
	delete(s.threads, t.ID)
}

// stepCoro resumes a run-to-completion thread with a wake payload and,
// when the program finishes or panics, performs the same cleanup-then-
// exit sequence a Sim.Go body goes through: deferred cleanups first
// (they are deeper in the conceptual stack), then the crash record,
// then the exit bookkeeping.
func (s *Sim) stepCoro(t *Thread, v any) {
	c := t.coro
	done := false
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				crashed = true
				c.runCleanups()
				s.recordCrash(t.Name, r)
			}
		}()
		op, _ := c.Resume(v)
		done = op == CoroDone
	}()
	if done {
		c.runCleanups()
	}
	if done || crashed {
		s.exit(t)
	}
}

// Kill schedules t's death at the current virtual time: a kill event
// enters the heap like any other, so at a fixed seed the thread dies at
// the same point of the event order every run. When the event
// dispatches, t is unwound via a recovered panic (its deferred functions
// run — a killed thread inside Stage.CriticalSection releases its lock),
// and every event still pending for t is skipped. Kill is the fault
// plane's stage-crash primitive; it may be called from scheduler
// callbacks and from other simulated threads. Killing an exited or
// already-killed thread is a no-op. Like Shutdown, Kill requires the
// victim's deferred functions not to block on vclock primitives.
func (s *Sim) Kill(t *Thread) {
	if t.dead || t.exited {
		return
	}
	t.dead = true
	s.push(event{when: s.now, t: t, kill: true})
}

// Dead reports whether t was killed (or marked for death) by Sim.Kill.
func (t *Thread) Dead() bool { return t.dead }

// Crashed returns the first panic captured from a simulated thread or
// scheduler callback, or nil. A non-nil crash halts dispatch:
// Run/RunUntil return normally with the crash recorded, and the caller
// decides whether to propagate it or degrade gracefully.
func (s *Sim) Crashed() *Crash { return s.crash }

// recordCrash captures the first escaping panic. It must run inside the
// recovering deferred function, while the panicking frames are still on
// the stack, so the recorded stack shows the panic site.
func (s *Sim) recordCrash(thread string, v any) {
	if s.crash == nil {
		s.crash = &Crash{Thread: thread, At: s.now, Value: v, Stack: debug.Stack()}
	}
}

// runCallback runs a scheduler callback, capturing an escaping panic as
// a crash.
func (s *Sim) runCallback(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			s.recordCrash("(scheduler)", r)
		}
	}()
	fn()
}

// deliver schedules v to be put on q at virtual time `at`, in dispatcher
// context. The queue rides in the event itself — like wake payloads, a
// closure here would put one heap allocation on every cross-domain
// hand-off.
func (s *Sim) deliver(at Time, q *Queue, v any) {
	if at < s.now {
		at = s.now
	}
	s.push(event{when: at, q: q, v: v})
}

// deliverNow runs a scheduled queue delivery, capturing an escaping
// panic as a crash (mirroring runCallback, without the per-event
// closure).
func (s *Sim) deliverNow(q *Queue, v any) {
	defer func() {
		if r := recover(); r != nil {
			s.recordCrash("(scheduler)", r)
		}
	}()
	q.Put(v)
}

// dispatch runs one event.
func (s *Sim) dispatch(e event) {
	if e.when < s.now {
		panic(fmt.Sprintf("vclock: event scheduled in the past: %v < %v", e.when, s.now))
	}
	s.now = e.when
	t := e.t
	switch {
	case e.kill:
		if !t.exited {
			s.unwind(t)
		}
	case e.fn != nil:
		s.runCallback(e.fn)
	case e.q != nil:
		s.deliverNow(e.q, e.v)
	case e.start:
		if t.started || t.dead {
			return
		}
		t.started = true
		if t.coro != nil {
			s.stepCoro(t, nil)
			return
		}
		t.next, t.stop = iter.Pull(t.run)
		s.resume(t, nil)
	case t != nil:
		if t.dead || t.exited {
			// Stale wake for a killed thread (its sleep or queue
			// hand-off was already scheduled); drop it.
			return
		}
		if t.coro != nil {
			s.stepCoro(t, e.v)
			return
		}
		s.resume(t, e.v)
	}
}

// resume runs a Sim.Go body from its park (or its start) to the next
// one, handing it the wake payload v.
func (s *Sim) resume(t *Thread, v any) {
	t.wake = v
	if _, ok := t.next(); !ok {
		s.exit(t)
	}
}

// unwind ends t where it stands: a frame program runs its Defer stack;
// a started Sim.Go body is stopped, so its park panics poison and its
// deferred functions run; a thread that never started is just
// forgotten.
func (s *Sim) unwind(t *Thread) {
	if t.coro != nil {
		t.coro.runCleanups()
	} else if t.stop != nil {
		t.stop()
	}
	s.exit(t)
}

// pace yields the P to the Go runtime; see paceWall.
func (s *Sim) pace() {
	s.paced++
	if s.paced%paceEvents != 0 {
		return
	}
	// time.Since reads only the monotonic clock, half the cost of
	// time.Now; the latter runs once per yield.
	if time.Since(s.pacedAt) >= paceWall {
		runtime.Gosched()
		s.pacedAt = time.Now()
	}
}

// run is the iter.Pull sequence of a Sim.Go body. A panic other than
// poison is recorded as the run's crash here, while the panicking frames
// are still on the stack; dispatch halts at the crash and RunUntil
// returns with Crashed() set.
func (t *Thread) run(yield func(struct{}) bool) {
	t.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(poison); !ok {
				t.sim.recordCrash(t.Name, r)
			}
		}
	}()
	t.body(t)
}

// park blocks the calling simulated thread until another event wakes it.
// It returns the value passed by the waker (used by queues to hand items
// over), or nil for plain wakes.
func (t *Thread) park() any {
	if t.coro != nil {
		panic("vclock: run-to-completion thread " + t.Name + " used the goroutine blocking API (use the Coro methods)")
	}
	if !t.yield(struct{}{}) {
		panic(poison{})
	}
	v := t.wake
	t.wake = nil
	return v
}

// wakeAt schedules t to resume at virtual time `at` with payload v. The
// payload rides in the event itself — a closure here would put one heap
// allocation on every queue hand-off.
func (s *Sim) wakeAt(at Time, t *Thread, v any) {
	s.push(event{when: at, t: t, v: v})
}

// SleepUntil parks the calling thread until virtual time `at`.
//
// When the sleeper's wake-up would be the strictly earliest pending
// event, parking is a formality: the scheduler would check the stop
// predicate once, pop the wake and resume this same thread with the
// clock advanced. SleepUntil performs exactly that transition inline —
// same stop-predicate evaluation, same clock, no other event can run in
// between because none is scheduled before the wake (ties lose to
// already-pushed events, which hold smaller sequence numbers, so
// equality takes the slow path). This removes two coroutine switches
// and a heap push/pop from every uncontended Compute/Sleep, without
// changing the event order observed by any thread.
func (t *Thread) SleepUntil(at Time) {
	if t.coro != nil {
		// Fail even on the would-be fast path: an API misuse that only
		// panics under contention would be maddening to reproduce.
		panic("vclock: run-to-completion thread " + t.Name + " used the goroutine blocking API (use the Coro methods)")
	}
	s := t.sim
	if at < s.now {
		at = s.now
	}
	if s.running && s.crash == nil && (len(s.events) == 0 || at < s.events[0].when) && (s.stop == nil || !s.stop()) {
		s.now = at
		return
	}
	s.schedule(at, t)
	t.park()
}

// Sleep parks the calling thread for duration d of virtual time.
func (t *Thread) Sleep(d Duration) { t.SleepUntil(t.sim.now.Add(d)) }

// Yield lets every other runnable thread scheduled at the current instant
// run before the calling thread continues.
func (t *Thread) Yield() { t.SleepUntil(t.sim.now) }

// Run drives the simulation until no events remain. It panics if called
// re-entrantly from a simulated thread.
func (s *Sim) Run() { s.RunUntil(nil) }

// RunFor drives the simulation until virtual time `end` (events after end
// remain pending) or until no events remain.
func (s *Sim) RunFor(end Time) {
	s.RunUntil(func() bool { return s.now >= end })
}

// RunBefore drives the simulation until every pending event lies at or
// after `horizon` (or no events remain). This is the epoch-window
// primitive of Group: unlike RunFor — whose stop predicate only trips
// after an event at or past the bound has already run — RunBefore peeks
// at the heap, so an event at exactly `horizon` stays pending for the
// next epoch. The stop predicate composes with the SleepUntil fast
// path: a sleeper targeting a time at or past the horizon always takes
// the slow path and parks.
func (s *Sim) RunBefore(horizon Time) {
	s.RunUntil(func() bool { return len(s.events) == 0 || s.events[0].when >= horizon })
}

// RunUntil drives the simulation until stop returns true (checked between
// events) or until no events remain. A nil stop runs to completion. The
// stop predicate must be a pure function of simulation state: the
// inline sleep fast path evaluates it at the same junctures the dispatch
// loop would, but may evaluate it one extra time at the juncture where
// it first returns true.
func (s *Sim) RunUntil(stop func() bool) {
	if s.running {
		// A nested run would tear down the outer dispatch state on
		// return, silently truncating the outer run; fail loudly instead.
		panic("vclock: RunUntil called re-entrantly (from a callback, stop predicate, or simulated thread)")
	}
	s.running, s.stop = true, stop
	defer func() { s.running, s.stop = false, nil }()
	for len(s.events) > 0 && s.crash == nil && (stop == nil || !stop()) {
		s.pace()
		s.dispatch(s.pop())
	}
}

// Live reports the number of simulated threads that have been created and
// have not yet exited. A nonzero value after Run returns indicates threads
// blocked forever (e.g. waiting on a queue nobody fills); that is legal and
// common for server threads.
func (s *Sim) Live() int { return s.live }

// Shutdown unwinds every simulated thread that is still blocked,
// releasing their coroutines. It must be called only after
// Run/RunUntil has returned (i.e. from the host goroutine, with no
// events pending that the caller still cares about). Sim.Go bodies are
// stopped, so their park panics poison and their deferred functions
// run; frame programs run their Defer stacks; threads that never
// started are just forgotten.
//
// Threads unwind in ID (creation) order — not map order — so any side
// effects of their teardown (released locks, final counter updates) are
// the same every run. Shutdown is idempotent: every thread it touches
// is forgotten, so a second call finds nothing to do. It also copes
// with threads a Sim.Kill marked dead whose kill event never
// dispatched because the run stopped first: they are still blocked
// like any other thread and unwind the same way.
func (s *Sim) Shutdown() {
	// Collect and order first: the unwinds mutate the map.
	ids := make([]int, 0, len(s.threads))
	for id := range s.threads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if t, ok := s.threads[id]; ok && !t.exited {
			s.unwind(t)
		}
	}
}
