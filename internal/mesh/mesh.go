// Package mesh is a composable service-mesh topology layer assembled
// purely from the public whodunit primitives: services and proxy
// elements are stages with worker pools, hops are App.NewQueue queues
// carrying one reusable request envelope per in-flight request, and
// transaction context crosses every hop through the stages' ipc
// endpoints (Send/Recv) — so a mesh topology of any depth stitches into
// one transaction graph with no propagation code in the handlers.
//
// A Topology wraps an App. Service declares a tier (stage + input queue
// + workers running a Handler); Proxy declares a forwarding hop whose
// execution mode (see Mode) sets its charged CPU and queue behavior;
// NewRing consistent-hash-shards a tier. Handlers talk to downstream
// tiers through Call.Invoke (or Forward/Await, or InvokeRetry under
// fault plans) and requests enter the mesh through Service.Inject.
//
// Mesh worker loops never terminate on their own: drive the app with
// RunUntil/RunFor or the serving harness.
package mesh

import (
	"fmt"

	"whodunit"
)

// Request is the reusable envelope of one mesh request — the same
// pointer travels the entire round trip (the tpcw envelope discipline),
// so a steady-state request allocates nothing. Handlers may rewrite Op,
// Key and Size before Invoke to issue a sub-request (restore them
// after); the serving tier reports its result through RespSize.
type Request struct {
	Op     string
	Key    string
	Size   int64 // request payload bytes
	Stream int

	// RespSize is the response payload in bytes, set by the tier that
	// answers; proxies charge their response-leg byte costs against it.
	RespSize int64

	// Start is the virtual injection time (set by Inject).
	Start whodunit.Time

	msg    whodunit.Msg
	replyQ *whodunit.Queue
	entry  bool
}

// Handler runs a service's work for one request, in worker context.
type Handler func(c *Call)

// Topology is a mesh under construction atop one App.
type Topology struct {
	app      *whodunit.App
	services []*Service
	byName   map[string]*Service
}

// New starts an empty topology on app.
func New(app *whodunit.App) *Topology {
	return &Topology{app: app, byName: map[string]*Service{}}
}

// App returns the underlying application.
func (t *Topology) App() *whodunit.App { return t.app }

// Services returns every declared service in declaration order.
func (t *Topology) Services() []*Service {
	out := make([]*Service, len(t.services))
	copy(out, t.services)
	return out
}

// ByName looks a service up.
func (t *Topology) ByName(name string) (*Service, bool) {
	s, ok := t.byName[name]
	return s, ok
}

// Service is one mesh tier: a stage, its input queue, and a worker pool
// running the handler. Entry services additionally begin transactions
// (Inject) and complete them (OnComplete).
type Service struct {
	Name string

	// OnComplete, when set, observes each entry request as its response
	// leaves the mesh; now is the virtual completion time. The envelope
	// may be recycled from inside the hook.
	OnComplete func(req *Request, now whodunit.Time)

	topo    *Topology
	st      *whodunit.Stage
	in      *whodunit.Queue
	handler Handler
	handled int64

	// Per-op frame/path caches: built once per distinct op so the
	// steady-state serve path concatenates no strings. The simulator
	// runs one thread at a time from one dispatch loop, so the maps need
	// no locks.
	handleFrames map[string]string
	entryPaths   map[string][]string
}

// Service declares a tier with the given worker count and handler.
// Stage options (StageCPU, StageMode) pass through to the stage.
func (t *Topology) Service(name string, workers int, h Handler, opts ...whodunit.StageOption) *Service {
	if _, dup := t.byName[name]; dup {
		panic(fmt.Sprintf("mesh: duplicate service %q", name))
	}
	if workers < 1 {
		panic(fmt.Sprintf("mesh: service %q needs at least one worker (got %d)", name, workers))
	}
	if h == nil {
		panic(fmt.Sprintf("mesh: service %q has no handler", name))
	}
	st := t.app.Stage(name, opts...)
	s := &Service{
		Name:         name,
		topo:         t,
		st:           st,
		in:           t.app.NewQueueOn(st.Shard(), name+"-in"),
		handler:      h,
		handleFrames: map[string]string{},
		entryPaths:   map[string][]string{},
	}
	t.services = append(t.services, s)
	t.byName[name] = s
	for w := 0; w < workers; w++ {
		replyQ := t.app.NewQueueOn(st.Shard(), fmt.Sprintf("%s-reply-%d", name, w))
		s.st.Go(fmt.Sprintf("%s-%d", name, w), func(th *whodunit.Thread, pr *whodunit.Probe) {
			c := &Call{svc: s, th: th, pr: pr, replyQ: replyQ}
			for {
				s.serve(c, s.in.Get(th).(*Request))
			}
		})
	}
	return s
}

// Stage returns the service's stage.
func (s *Service) Stage() *whodunit.Stage { return s.st }

// Handled returns how many requests the service has served — the
// shard-load counter of consistent-hash tiers.
func (s *Service) Handled() int64 { return s.handled }

// Inject puts an entry request into the service from scheduler or
// client context: the serving worker begins a fresh transaction for it,
// and when its response leaves the mesh OnComplete fires.
func (s *Service) Inject(req *Request) {
	req.entry = true
	req.msg = whodunit.Msg{}
	req.replyQ = nil
	req.Start = s.topo.app.Sim().Now()
	s.in.Put(req)
}

// Ingress is a cross-domain injection channel into an entry service of
// a sharded app (see whodunit.WithShards): Inject from shard 0's
// scheduler context ships the envelope over an App.Pipe, arriving at
// the service's input queue `latency` later. Request.Start is the
// arrival time — the transport hop is modeled, not measured — so
// latency statistics are identical between serial and sharded runs.
// Create every Ingress before the app run starts.
type Ingress struct {
	svc     *Service
	pipe    *whodunit.Pipe
	latency whodunit.Duration
}

// Ingress returns an injection channel into s with the given transport
// latency (which must be positive: it is lookahead the epoch scheduler
// shards time by).
func (s *Service) Ingress(latency whodunit.Duration) *Ingress {
	return &Ingress{svc: s, pipe: s.topo.app.Pipe(0, s.in, latency), latency: latency}
}

// Inject ships an entry request over the ingress pipe. Call it from
// shard 0's execution (scheduler callbacks, e.g. a trace replay).
func (in *Ingress) Inject(req *Request) {
	req.entry = true
	req.msg = whodunit.Msg{}
	req.replyQ = nil
	req.Start = in.svc.topo.app.Sim().Now().Add(in.latency)
	in.pipe.Send(req)
}

// serve runs one request through the handler and relays the response
// upstream (or completes the transaction at the entry tier).
func (s *Service) serve(c *Call, req *Request) {
	c.req = req
	pr := c.pr
	if req.entry {
		req.entry = false
		s.st.BeginTxn(pr, s.entryPath(req.Op)...)
	} else {
		s.st.Endpoint().Recv(pr, req.msg)
	}
	upstream := req.replyQ
	func() {
		defer pr.Exit(pr.Enter(s.handleFrame(req.Op)))
		s.handler(c)
	}()
	if c.pending {
		panic(fmt.Sprintf("mesh: %s handler returned with a downstream call still in flight (Forward without Await)", s.Name))
	}
	s.handled++
	if upstream != nil {
		req.msg = s.st.Endpoint().Send(pr, nil)
		req.replyQ = nil
		upstream.Put(req)
		return
	}
	if s.OnComplete != nil {
		// The worker thread's clock, not App.Sim's: on a sharded app
		// this service may live on another time domain.
		s.OnComplete(req, c.th.Now())
	}
}

func (s *Service) handleFrame(op string) string {
	f, ok := s.handleFrames[op]
	if !ok {
		f = "handle_" + op
		s.handleFrames[op] = f
	}
	return f
}

func (s *Service) entryPath(op string) []string {
	p, ok := s.entryPaths[op]
	if !ok {
		p = []string{"rpc_" + op}
		s.entryPaths[op] = p
	}
	return p
}

// Call is a worker's view of the request it is serving: the probe to
// charge CPU against and the downstream calling surface. One Call per
// worker, reused across requests.
type Call struct {
	svc     *Service
	th      *whodunit.Thread
	pr      *whodunit.Probe
	replyQ  *whodunit.Queue
	req     *Request
	pending bool
}

// Req returns the request being served.
func (c *Call) Req() *Request { return c.req }

// Probe returns the worker's probe, for Enter/Exit frames.
func (c *Call) Probe() *whodunit.Probe { return c.pr }

// Thread returns the worker's simulator thread.
func (c *Call) Thread() *whodunit.Thread { return c.th }

// Service returns the service this call runs in.
func (c *Call) Service() *Service { return c.svc }

// Now returns the current virtual time (of the worker's time domain).
func (c *Call) Now() whodunit.Time { return c.th.Now() }

// Compute charges d of CPU to the current context.
func (c *Call) Compute(d whodunit.Duration) {
	if d > 0 {
		c.pr.Compute(d)
	}
}

// Forward sends the request envelope to the next tier and returns
// without waiting: the worker stays schedulable (a buffering proxy
// charges its copy cost here, overlapping the downstream). At most one
// downstream call may be in flight per request; pair with Await.
func (c *Call) Forward(to *Service) {
	if c.pending {
		panic(fmt.Sprintf("mesh: %s forwarded twice without Await", c.svc.Name))
	}
	c.pending = true
	c.req.msg = c.svc.st.Endpoint().Send(c.pr, nil)
	c.req.replyQ = c.replyQ
	to.in.Put(c.req)
}

// Await blocks until the forwarded request's response returns, and
// restores this worker's transaction context from it.
func (c *Call) Await() {
	if !c.pending {
		panic(fmt.Sprintf("mesh: %s awaited with no call in flight", c.svc.Name))
	}
	c.pending = false
	req := c.replyQ.Get(c.th).(*Request)
	c.svc.st.Endpoint().Recv(c.pr, req.msg)
	c.req = req
}

// Invoke is Forward immediately followed by Await — a synchronous
// downstream RPC.
func (c *Call) Invoke(to *Service) {
	c.Forward(to)
	c.Await()
}

// InvokeRetry is Invoke under a retry policy: each attempt re-sends the
// envelope and waits at most pol.Timeout for the response, retrying
// through Stage.Retry (so retried attempts surface as retry context in
// the CCT). It returns false when every attempt timed out.
//
// Built for drop-fault plans on mesh input queues, where a dropped
// message means the response never comes. The timeout must sit above
// the worst-case healthy round trip: a timeout must always mean the
// attempt's message was dropped, never that the response is merely late
// (a late response would desync the per-worker reply queue).
func (c *Call) InvokeRetry(to *Service, pol whodunit.RetryPolicy) bool {
	return c.svc.st.Retry(c.pr, pol, func(int) bool {
		c.Forward(to)
		c.pending = false
		v, ok := c.replyQ.GetTimeout(c.th, pol.Timeout)
		if !ok {
			return false
		}
		req := v.(*Request)
		c.svc.st.Endpoint().Recv(c.pr, req.msg)
		c.req = req
		return true
	})
}

// Router picks the downstream service for a request — the routing side
// of a proxy hop. To and Ring are the built-in routers.
type Router interface {
	Route(req *Request) *Service
}

type single struct{ s *Service }

func (r single) Route(*Request) *Service { return r.s }

// To routes every request to one service.
func To(s *Service) Router { return single{s} }

// Proxy declares a forwarding hop with the default cost model: a
// service whose handler inspects, forwards per the execution mode, and
// relays the response. The router picks the downstream per request
// (consistent-hash sharding plugs in here).
func (t *Topology) Proxy(name string, mode Mode, workers int, route Router, opts ...whodunit.StageOption) *Service {
	return t.ProxyWith(name, mode, workers, route, DefaultProxyCosts(), opts...)
}

// ProxyWith is Proxy with an explicit cost model.
func (t *Topology) ProxyWith(name string, mode Mode, workers int, route Router, costs ProxyCosts, opts ...whodunit.StageOption) *Service {
	if route == nil {
		panic(fmt.Sprintf("mesh: proxy %q has no router", name))
	}
	h := func(c *Call) {
		req := c.Req()
		c.Compute(costs.Header)
		if mode == FullBuffering {
			// Store-and-forward: the whole request is buffered (and
			// charged) before the downstream sees the first byte.
			c.Compute(costs.bytes(req.Size))
		}
		c.Forward(route.Route(req))
		if mode == StreamingWithBuffering {
			// The retained copy is built while the downstream already
			// works on the forwarded bytes: worker occupancy, not
			// request latency.
			c.Compute(costs.bytes(req.Size))
		}
		c.Await()
		c.Compute(costs.Header)
		if mode != Streaming {
			// Response leg: buffering modes materialise the response
			// before relaying it upstream.
			c.Compute(costs.bytes(req.RespSize))
		}
	}
	return t.Service(name, workers, h, opts...)
}
