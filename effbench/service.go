package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"effpi"
	"effpi/internal/frontend"
	"effpi/internal/syntax"
	"effpi/internal/term"
	"effpi/internal/typecheck"
	"effpi/internal/types"
)

// Fixed service-mix load settings, never re-derived per run, so both
// commits of a comparison get the same offered load. --capacity, run
// with the effpidFlags and effpidGOGC below on a 2-CPU x86-64
// container, measured 125 requests/s from two closed-loop connections
// over the seed-1 stream (111 before GOGC was raised). Higher rates did
// not repeat: see README.md.
const (
	lightRPS     = 17.0 // ~14% of capacity
	heavyRPS     = 35.0 // ~28% of capacity
	latencyLimit = 2 * time.Second
	connections  = 2 // nproc of the reference box
	// setupLaunches is how many times effpid is started for setup_s;
	// a launch takes a few milliseconds of CPU time and varies by tens
	// of percent.
	setupLaunches = 15
	// The Go-source requests, which take ~70 times the median request,
	// join one measured closed-loop pass in goSourceEvery.
	goSourceEvery = 3
)

// reference verifies request bodies in-process through the façade, the
// way effpid does, memoised by body.
type reference struct {
	ctx   context.Context
	ws    *effpi.Workspace
	cells map[string][]cell
	errs  map[string]error
	wall  time.Duration
	// verifyAll and outcomes sum the VerifyAll wall times and the
	// outcomes' own Durations, the two sides of verify.overlap_ratio.
	verifyAll, outcomes time.Duration
}

func newReference(ctx context.Context) *reference {
	return &reference{ctx: ctx, ws: effpi.NewWorkspace(), cells: map[string][]cell{}, errs: map[string]error{}}
}

func (ref *reference) get(body []byte, b verifyBody) ([]cell, error) {
	key := string(body)
	if c, ok := ref.cells[key]; ok {
		return c, ref.errs[key]
	}
	start := time.Now()
	c, err := ref.verify(b)
	ref.wall += time.Since(start)
	ref.cells[key], ref.errs[key] = c, err
	return c, err
}

func wireProps(specs []propSpec) ([]effpi.Property, error) {
	props := make([]effpi.Property, len(specs))
	for i, p := range specs {
		var err error
		if props[i], err = effpi.PropertyFromSpec(p.Kind, p.Channels, p.From, p.To, !p.Open); err != nil {
			return nil, err
		}
	}
	return props, nil
}

func (ref *reference) verify(b verifyBody) ([]cell, error) {
	opts := []effpi.Option{effpi.WithEarlyExit(b.EarlyExit)}
	props, err := wireProps(b.Properties)
	if err != nil {
		return nil, err
	}
	var s *effpi.Session
	var sm *effpi.SourceMap
	var expected map[effpi.Kind]bool
	switch {
	case b.GoSource != "":
		ext, err := effpi.ExtractGoSource("request.go", b.GoSource)
		if err != nil {
			return nil, err
		}
		if len(ext.Systems) != 1 {
			return nil, fmt.Errorf("go_source yields %d entries, want 1", len(ext.Systems))
		}
		sm = ext.Systems[0].Map
		if s, err = ref.ws.NewSessionFromGo(ext.Systems[0], opts...); err != nil {
			return nil, err
		}
	case b.Source != "":
		for _, bd := range b.Binds {
			opts = append(opts, effpi.WithBind(bd.Name, bd.Type))
		}
		if s, err = ref.ws.NewSession(b.Source, opts...); err != nil {
			return nil, err
		}
	default:
		row, ok := effpi.BenchSystemByName(b.System)
		if !ok {
			return nil, fmt.Errorf("unknown row %q", b.System)
		}
		expected = row.Expected
		if len(props) == 0 {
			props = row.Props
		}
		if s, err = ref.ws.NewSessionFromType(row.Env, row.Type, opts...); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	outs, err := s.VerifyAll(ref.ctx, props...)
	if err != nil {
		return nil, err
	}
	ref.verifyAll += time.Since(start)
	cells := make([]cell, len(outs))
	for i, o := range outs {
		ref.outcomes += o.Duration
		if expected != nil && o.Holds != expected[o.Property.Kind] {
			return nil, fmt.Errorf("%s %s: holds=%v, Fig. 9 says %v", b.System, o.Property, o.Holds, expected[o.Property.Kind])
		}
		if cells[i], err = outcomeCell(o, sm); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// tracedRequest replays one request body through the chain of public
// layer calls, with the front-end stages (parse, typecheck, Go
// extraction) as their own spans.
func tracedRequest(ctx context.Context, tr *tracer, st *chainStats, diagnostics *int, b verifyBody, want []cell) ([]cell, error) {
	group := tr.newGroup()
	root := tr.begin("bench.request", -1, group)
	defer tr.end(root)
	c := &chain{ctx: ctx, tr: tr, st: st, group: group, parent: root, want: want}
	props, err := wireProps(b.Properties)
	if err != nil {
		return nil, err
	}
	var env *effpi.Env
	var t effpi.Type
	var sm *effpi.SourceMap
	switch {
	case b.GoSource != "":
		var ext *frontend.Result
		if err := c.call("frontend.ExtractSource", func() (err error) {
			ext, err = frontend.ExtractSource("request.go", b.GoSource)
			return err
		}); err != nil {
			return nil, err
		}
		*diagnostics += len(ext.Diagnostics)
		if len(ext.Systems) != 1 {
			return nil, fmt.Errorf("go_source yields %d entries, want 1", len(ext.Systems))
		}
		env, t, sm = ext.Systems[0].Env, ext.Systems[0].Type, ext.Systems[0].Map
	case b.Source != "":
		env = types.NewEnv()
		for _, bd := range b.Binds {
			var bt types.Type
			if err := c.call("syntax.ParseType", func() (err error) {
				bt, err = syntax.ParseType(bd.Type)
				return err
			}); err != nil {
				return nil, err
			}
			if env, err = env.Extend(bd.Name, bt); err != nil {
				return nil, err
			}
		}
		var prog term.Term
		if err := c.call("syntax.ParseProgram", func() (err error) {
			prog, err = syntax.ParseProgram(b.Source)
			return err
		}); err != nil {
			return nil, err
		}
		if err := c.call("typecheck.Infer", func() (err error) {
			t, err = typecheck.Infer(env, prog)
			return err
		}); err != nil {
			return nil, err
		}
	default:
		row, ok := effpi.BenchSystemByName(b.System)
		if !ok {
			return nil, fmt.Errorf("unknown row %q", b.System)
		}
		env, t = row.Env, row.Type
		if len(props) == 0 {
			props = row.Props
		}
	}
	return c.run(env, t, props, chainMode{earlyExit: b.EarlyExit}, sm)
}

// runPhase sends one phase's requests open-loop: each is due at its
// offset from the phase start and waits for one of the connections;
// latency runs from the due time.
func runPhase(client *http.Client, url string, reqs []request, bodies [][]byte) (replies []reply, lag []time.Duration, start time.Time) {
	replies = make([]reply, len(reqs))
	lag = make([]time.Duration, len(reqs))
	work := make(chan int, len(reqs)) // one slot per request: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				replies[i] = post(client, url, bodies[i])
			}
		}()
	}
	start = time.Now()
	for i, r := range reqs {
		due := start.Add(r.Due)
		time.Sleep(time.Until(due))
		lag[i] = time.Since(due)
		work <- i
	}
	close(work)
	wg.Wait()
	return replies, lag, start
}

// sweepBodies is the fixed closed-loop pass of the service: every small
// row's six properties, the heavy row, every program, and one early-exit
// request.
func sweepBodies(in *inputs) []verifyBody {
	var out []verifyBody
	for _, r := range smallRows {
		out = append(out, verifyBody{System: r})
	}
	out = append(out, verifyBody{System: heavyRow}, verifyBody{System: smallRows[0], EarlyExit: true})
	for _, p := range in.epi {
		out = append(out, verifyBody{Source: p.src, Binds: p.binds, Properties: p.props})
	}
	for _, p := range in.gosrc {
		out = append(out, verifyBody{GoSource: p.src, Properties: p.props})
	}
	return out
}

// serviceRun is one service-mix run against one long-lived effpid.
type serviceRun struct {
	cfg    config
	g      *gate
	client *http.Client
	srv    *effpidProc
	ref    *reference
}

// check gates one reply against the library run of the same body and
// returns whether it passed and its server-side duration.
func (s *serviceRun) check(body []byte, b verifyBody, r reply) (bool, float64) {
	cells, serverMS, err := r.decode()
	if err != nil {
		return s.g.op([]string{fmt.Sprintf("request %.80q: %v", body, err)}), 0
	}
	want, err := s.ref.get(body, b)
	if err != nil {
		return s.g.op([]string{fmt.Sprintf("library run of %.80q: %v", body, err)}), 0
	}
	return s.g.op(diffCells(fmt.Sprintf("effpid vs library for %.60q", body), cells, want)), serverMS
}

// sweeps sends the fixed closed-loop pass once to warm the server's
// workspace and then again and again for the run's seconds (Go-source
// requests in one pass of goSourceEvery, the first measured one
// included). It returns, per request, the CPU time (ms) effpid used
// between sending it and reading its reply, and the wall time of the
// median pass.
func (s *serviceRun) sweeps(bodies []verifyBody) (map[string][]float64, float64, error) {
	raw := make([][]byte, len(bodies))
	for i, b := range bodies {
		var err error
		if raw[i], err = json.Marshal(b); err != nil {
			return nil, 0, err
		}
	}
	pid := s.srv.cmd.Process.Pid
	cpu, wall := map[string][]float64{}, map[string][]float64{}
	var start time.Time
	for pass := 0; pass <= 1 || time.Since(start) < s.cfg.seconds; pass++ {
		if pass == 1 {
			start = time.Now()
		}
		for i, body := range raw {
			if bodies[i].GoSource != "" && pass > 0 && (pass-1)%goSourceEvery != 0 {
				continue
			}
			if err := s.srv.collect(s.client); err != nil {
				return nil, 0, err
			}
			before, err := processCPU(pid)
			if err != nil {
				return nil, 0, err
			}
			r := post(s.client, s.srv.url, body)
			after, err := processCPU(pid)
			if err != nil {
				return nil, 0, err
			}
			s.check(body, bodies[i], r)
			if pass > 0 {
				key := fmt.Sprintf("%03d", i)
				cpu[key] = append(cpu[key], ms(after-before))
				wall[key] = append(wall[key], ms(r.done.Sub(r.sent)))
			}
		}
	}
	return cpu, sum(medianOfLists(wall)) / 1000, nil
}

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	latencies []float64 // from the due time, every request
	okInLimit int
	lag       []float64 // how late the generator dispatched
	wall      time.Duration
	serverMS  []float64
	overhead  []float64 // client send-to-reply minus server time
	bytes     []float64
}

func (s *serviceRun) phase(reqs []request) (*phaseResult, error) {
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		var err error
		if bodies[i], err = json.Marshal(r.Body); err != nil {
			return nil, err
		}
	}
	replies, lag, start := runPhase(s.client, s.srv.url, reqs, bodies)
	pr := &phaseResult{}
	var last time.Time
	for i, r := range replies {
		lat := r.done.Sub(start.Add(reqs[i].Due))
		pr.latencies = append(pr.latencies, ms(lat))
		pr.lag = append(pr.lag, ms(lag[i]))
		if r.done.After(last) {
			last = r.done
		}
		ok, serverMS := s.check(bodies[i], reqs[i].Body, r)
		if r.err == nil {
			pr.serverMS = append(pr.serverMS, serverMS)
			pr.overhead = append(pr.overhead, ms(r.done.Sub(r.sent))-serverMS)
			pr.bytes = append(pr.bytes, float64(len(r.data)))
		}
		if ok && lat <= latencyLimit {
			pr.okInLimit++
		}
	}
	pr.wall = last.Sub(start)
	return pr, nil
}

// runService runs service-mix: setupLaunches launches of effpid for
// setup_s (the last one serves), the closed-loop sweeps, then the light
// and the heavy open-loop phase.
func runService(ctx context.Context, cfg config, g *gate) (map[string]float64, error) {
	in, err := loadInputs("effbench/inputs")
	if err != nil {
		return nil, err
	}
	s := &serviceRun{cfg: cfg, g: g,
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections},
			Timeout:   60 * time.Second,
		},
		ref: newReference(ctx),
	}
	var setups []float64
	for i := 0; i < setupLaunches; i++ {
		p, cpu, err := startEffpid(cfg.effpid)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpu.Seconds())
		if i < setupLaunches-1 {
			p.stop()
		} else {
			s.srv = p
		}
	}
	srvStopped := false
	defer func() {
		if !srvStopped {
			s.srv.stop()
		}
	}()

	perRequest, sweepWall, err := s.sweeps(sweepBodies(in))
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		srvStopped = true
		return opMetrics(setups, medianOfLists(perRequest), s.srv.stop()), nil
	}
	// The open-loop phases run in the traced run only: their latencies
	// follow the host's steal time, so they are reported per layer
	// rather than gated.
	results := map[string]*phaseResult{}
	byPhase := map[string][]request{}
	for _, r := range generate(cfg.seed, cfg.seconds/2, cfg.seconds, in) {
		byPhase[r.Phase] = append(byPhase[r.Phase], r)
	}
	for _, name := range []string{"light", "heavy"} {
		if results[name], err = s.phase(byPhase[name]); err != nil {
			return nil, err
		}
	}
	heavy, light := results["heavy"], results["light"]
	srvMetrics, err := fetchMetrics(s.client, s.srv.url)
	if err != nil {
		return nil, err
	}
	srvStopped = true
	s.srv.stop()

	m, err := s.tracedReplay(ctx)
	if err != nil {
		return nil, err
	}
	m["effpi.workspace_memos"] = srvMetrics["cache_memos"]
	m["effpi.workspace_evictions"] = srvMetrics["cache_evictions"]
	m["bench.sweep_wall_s"] = sweepWall
	m["effpid.latency_p50_ms"] = median(heavy.latencies)
	m["effpid.latency_p95_ms"] = quantile(heavy.latencies, 0.95)
	m["effpid.latency_p95_light_ms"] = quantile(light.latencies, 0.95)
	m["effpid.goodput_rps"] = float64(heavy.okInLimit) / heavy.wall.Seconds()
	m["effpid.server_ms"] = median(append(heavy.serverMS, light.serverMS...))
	m["effpid.overhead_ms"] = median(append(heavy.overhead, light.overhead...))
	m["effpid.response_bytes"] = median(append(heavy.bytes, light.bytes...))
	m["effpid.queue_high_water"] = srvMetrics["queue_high_water"]
	m["effpid.rejections"] = srvMetrics["rejections_total"]
	m["gen.lag_ms"] = quantile(heavy.lag, 0.95)
	return m, nil
}

// tracedReplay replays every distinct request of the run in-process,
// once untraced through the façade (in a fresh workspace) and once
// through the layer chain, checks that both reach the same cells, and
// returns the per-layer metrics of the traced replays.
func (s *serviceRun) tracedReplay(ctx context.Context) (map[string]float64, error) {
	keys := make([]string, 0, len(s.ref.cells))
	for k := range s.ref.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	facade := newReference(ctx)
	tr := newTracer()
	tp := tracedPass{}
	diagnostics := 0
	for _, k := range keys {
		var b verifyBody
		if err := json.Unmarshal([]byte(k), &b); err != nil {
			return nil, err
		}
		want, err := facade.get([]byte(k), b)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		got, err := tracedRequest(ctx, tr, &tp.st, &diagnostics, b, want)
		tp.hi += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		s.g.op(diffCells(fmt.Sprintf("traced vs façade for %.60q", k), got, want))
	}
	tp.spans = tr.snapshot()
	tp.untraced = facade.wall
	if facade.verifyAll > 0 {
		tp.overlap = float64(facade.outcomes) / float64(facade.verifyAll)
	}
	if err := writeSpans(s.cfg.spansPath, tp.spans); err != nil {
		return nil, err
	}
	m := tp.metrics()
	// Façade and traced replays interleave, so coverage is taken over the
	// traced requests' own wall time.
	m["trace.uncovered_ratio"] = requestUncovered(tp.spans)
	m["frontend.diagnostics"] = float64(diagnostics)
	return m, nil
}

// requestUncovered is the share of the traced requests' wall time (their
// bench.request root spans) that no layer span covers.
func requestUncovered(spans []span) float64 {
	byGroup := map[int][]span{}
	for _, s := range spans {
		byGroup[s.Group] = append(byGroup[s.Group], s)
	}
	var total, uncovered float64
	for _, s := range spans {
		if s.Name != "bench.request" {
			continue
		}
		d := float64(s.End - s.Start)
		total += d
		uncovered += uncoveredShare(byGroup[s.Group], s.Start, s.End) * d
	}
	if total == 0 {
		return 0
	}
	return uncovered / total
}

// measureCapacity drives a warm effpid closed-loop from the two
// connections over the seeded stream for the given time and returns the
// completed requests per second. The light and heavy rates above were
// fixed from its result.
func measureCapacity(ctx context.Context, cfg config) (float64, error) {
	in, err := loadInputs("effbench/inputs")
	if err != nil {
		return 0, err
	}
	srv, _, err := startEffpid(cfg.effpid)
	if err != nil {
		return 0, err
	}
	defer srv.stop()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections}}
	for _, b := range sweepBodies(in) {
		body, err := json.Marshal(b)
		if err != nil {
			return 0, err
		}
		if r := post(client, srv.url, body); r.err != nil {
			return 0, r.err
		}
	}
	stream := generate(cfg.seed, time.Hour, time.Hour, in)
	var next, completed int
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < cfg.seconds {
				mu.Lock()
				i := next % len(stream)
				next++
				mu.Unlock()
				body, err := json.Marshal(stream[i].Body)
				if err != nil {
					continue
				}
				if r := post(client, srv.url, body); r.err == nil {
					mu.Lock()
					completed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return float64(completed) / time.Since(start).Seconds(), nil
}
