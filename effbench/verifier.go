package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"effpi"
)

// The row lists of the two verifier workloads. Ping-pong (12 pairs)
// takes about a minute concrete, so only fig9-reducers runs it.
var (
	largeRows       = []string{"Dining philos. (8, deadlock)", "Dining philos. (9, no deadlock)", "Dining philos. (10, deadlock)", "Ring (16 elements, 4 tokens)"}
	reducerOnlyRows = []string{"Ping-pong (12 pairs)"}
)

// setupReps is how many times an in-process workload repeats its set-up
// for setup_s: a set-up takes a few milliseconds and varies by tens of
// percent from one to the next. Each repetition starts after a
// collection, so none pays for the garbage of the one before.
const setupReps = 31

// rowReps and rowBudget set how often an untraced pass verifies a row:
// again and again until it has run rowReps times or used rowBudget of
// CPU time in the pass. Large rows run once a pass; small ones, whose
// times vary most from one run to the next, get rowReps samples.
const (
	rowReps   = 5
	rowBudget = 100 * time.Millisecond
)

type verifierWorkload struct {
	name     string
	reducers bool
}

// rowNames lists the workload's rows in the order a pass verifies them:
// the Fig. 9 rows with the large rows spread evenly among them. The
// host's speed drifts within a run; in list order every small row would
// be verified in the first second of each pass, and op_cpu_geomean_ms,
// which weighs every row alike, would follow the host's speed in those
// few seconds of the run.
func (w verifierWorkload) rowNames() []string {
	large := append([]string(nil), largeRows...)
	if w.reducers {
		large = append(large, reducerOnlyRows...)
	}
	fig9 := effpi.Fig9Systems()
	var names []string
	next := 0
	for i, s := range fig9 {
		names = append(names, s.Name)
		for next < len(large) && (i+1)*(len(large)+1) >= (next+1)*len(fig9) {
			names = append(names, large[next])
			next++
		}
	}
	return append(names, large[next:]...)
}

func (w verifierWorkload) options() []effpi.Option {
	if !w.reducers {
		return nil
	}
	return []effpi.Option{effpi.WithSymmetry(effpi.SymmetryOn), effpi.WithPartialOrder(effpi.PartialOrderOn), effpi.WithReduction(effpi.ReduceStrong)}
}

// buildRows constructs the workload's systems by name.
func buildRows(names []string) ([]*effpi.BenchSystem, error) {
	all := map[string]*effpi.BenchSystem{}
	for _, s := range append(effpi.Fig9Systems(), effpi.LargeSystems()...) {
		all[s.Name] = s
	}
	rows := make([]*effpi.BenchSystem, len(names))
	for i, n := range names {
		if rows[i] = all[n]; rows[i] == nil {
			return nil, fmt.Errorf("unknown benchmark row %q", n)
		}
	}
	return rows, nil
}

// rowRun is one VerifyAll of one row through the façade.
type rowRun struct {
	dur       time.Duration // wall clock
	cpu       time.Duration // CPU time of the benchmark process
	cells     []cell
	sumDur    time.Duration // Σ Outcome.Duration
	memos     int
	evictions uint64
}

// facadeRow verifies one row's six properties in a fresh Workspace. Only
// the workspace, session and VerifyAll are timed; encoding the witnesses
// for the gate is not. A collection first clears the garbage of the
// rows before, so a small row does not pay for a large one.
func (w verifierWorkload) facadeRow(ctx context.Context, row *effpi.BenchSystem) (rowRun, error) {
	runtime.GC()
	cpu := selfCPU()
	start := time.Now()
	ws := effpi.NewWorkspace()
	s, err := ws.NewSessionFromType(row.Env, row.Type, w.options()...)
	if err != nil {
		return rowRun{}, err
	}
	outs, err := s.VerifyAll(ctx, row.Props...)
	if err != nil {
		return rowRun{}, fmt.Errorf("%s: %w", row.Name, err)
	}
	r := rowRun{dur: time.Since(start), cpu: selfCPU() - cpu}
	st := ws.CacheStats()
	r.memos, r.evictions = st.Memos, st.Evictions
	for _, o := range outs {
		c, err := outcomeCell(o, nil)
		if err != nil {
			return r, fmt.Errorf("%s: %s: %w", row.Name, o.Property, err)
		}
		r.cells = append(r.cells, c)
		r.sumDur += o.Duration
	}
	return r, nil
}

// gateRow checks a row's cells against Fig. 9's verdicts and the pins.
func gateRow(g *gate, pins *pinFile, workload string, row *effpi.BenchSystem, cells []cell, writePins bool) {
	var bad []string
	for i, p := range row.Props {
		if i < len(cells) && cells[i].Holds != row.Expected[p.Kind] {
			bad = append(bad, fmt.Sprintf("%s %s: holds=%v, Fig. 9 says %v", row.Name, p, cells[i].Holds, row.Expected[p.Kind]))
		}
	}
	if writePins {
		if pins.Rows[workload] == nil {
			pins.Rows[workload] = map[string][]cell{}
		}
		if prev, ok := pins.Rows[workload][row.Name]; ok {
			bad = append(bad, diffCells(row.Name+" (repeat)", cells, prev)...)
		} else {
			pins.Rows[workload][row.Name] = cells
		}
	} else {
		want, ok := pins.Rows[workload][row.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: no pinned cells", row.Name))
		} else {
			bad = append(bad, diffCells(row.Name, cells, want)...)
		}
	}
	g.op(bad)
}

// runVerifier runs fig9-concrete or fig9-reducers.
func runVerifier(ctx context.Context, w verifierWorkload, cfg config, g *gate) (map[string]float64, error) {
	names := w.rowNames()
	var rows []*effpi.BenchSystem
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := selfCPU()
		var err error
		if rows, err = buildRows(names); err != nil {
			return nil, err
		}
		ws := effpi.NewWorkspace()
		if _, err := ws.NewSessionFromType(rows[0].Env, rows[0].Type, w.options()...); err != nil {
			return nil, err
		}
		setups = append(setups, (selfCPU() - start).Seconds())
	}

	var (
		perRow = map[string][]float64{} // CPU ms of every untraced verification
		traced []tracedPass
		tr     *tracer
	)
	if cfg.trace {
		tr = newTracer()
	}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.seconds; pass++ {
		var sweep time.Duration
		var refs [][]cell
		var sumDur time.Duration
		var memos int64
		var evictions uint64
		for _, row := range rows {
			var spent time.Duration
			for rep := 0; rep == 0 || !cfg.trace && rep < rowReps && spent < rowBudget; rep++ {
				r, err := w.facadeRow(ctx, row)
				if err != nil {
					return nil, err
				}
				gateRow(g, cfg.pins, w.name, row, r.cells, cfg.writePins)
				perRow[row.Name] = append(perRow[row.Name], ms(r.cpu))
				spent += r.cpu
				if rep > 0 {
					continue
				}
				sweep += r.dur
				sumDur += r.sumDur
				memos += int64(r.memos)
				evictions += r.evictions
				refs = append(refs, r.cells)
			}
		}
		if cfg.trace {
			tp, err := w.traceRows(ctx, tr, rows, refs, cfg, g)
			if err != nil {
				return nil, err
			}
			tp.untraced = sweep
			tp.overlap = float64(sumDur) / float64(sweep)
			tp.memos, tp.evictions = float64(memos), float64(evictions)
			traced = append(traced, tp)
		}
	}
	if cfg.trace {
		return tracedMetrics(traced), writeSpans(cfg.spansPath, tr.snapshot())
	}
	// The median pass: every row at its median CPU time. Taking each
	// row's median separately keeps a slowdown that hits part of a run
	// out of every row that ran outside it.
	return opMetrics(setups, medianOfLists(perRow), selfPeakRSSMB()), nil
}

// tracedPass is one pass of the traced decomposition with the untraced
// façade pass it is compared with.
type tracedPass struct {
	spans            []span
	lo, hi           time.Duration
	st               chainStats
	untraced         time.Duration
	overlap          float64
	memos, evictions float64
}

// traceRows drives every row through the chain of public layer calls
// and checks that it reaches the façade pass's verdicts, counts and
// witness digests.
func (w verifierWorkload) traceRows(ctx context.Context, tr *tracer, rows []*effpi.BenchSystem, refs [][]cell, cfg config, g *gate) (tracedPass, error) {
	tp := tracedPass{lo: time.Since(tr.epoch)}
	concrete := cfg.pins.Rows["fig9-concrete"]
	for i, row := range rows {
		group := tr.newGroup()
		root := tr.begin("bench.row", -1, group)
		c := &chain{ctx: ctx, tr: tr, st: &tp.st, group: group, parent: root, want: refs[i]}
		if cells, ok := concrete[row.Name]; ok {
			c.fullStates = func(i int) int { return cells[i].States }
		}
		cells, err := c.run(row.Env, row.Type, row.Props, chainMode{reducers: w.reducers}, nil)
		tr.end(root)
		if err != nil {
			return tp, fmt.Errorf("%s (traced): %w", row.Name, err)
		}
		g.op(diffCells(row.Name+" traced vs façade", cells, refs[i]))
	}
	tp.hi = time.Since(tr.epoch)
	for _, s := range tr.snapshot() {
		if s.Start >= tp.lo {
			tp.spans = append(tp.spans, s)
		}
	}
	return tp, nil
}

// tracedMetrics turns traced passes into the per-layer metrics: each
// value is the median over passes of that pass's total.
func tracedMetrics(passes []tracedPass) map[string]float64 {
	per := map[string][]float64{}
	for _, p := range passes {
		for k, v := range p.metrics() {
			per[k] = append(per[k], v)
		}
	}
	out := make(map[string]float64, len(per))
	for k, vs := range per {
		out[k] = median(vs)
	}
	return out
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

func (p tracedPass) metrics() map[string]float64 {
	self := selfTimes(p.spans)
	m := emptyPerLayer()
	st := p.st
	explore := selfMS(p.spans, self, "lts.ExploreContext")
	m["lts.explore_ms"] = explore
	if explore > 0 {
		m["lts.states_per_s"] = float64(st.exploreStates) / (explore / 1000)
	}
	if st.exploreStates > 0 {
		m["lts.alloc_bytes_per_state"] = float64(st.exploreAlloc) / float64(st.exploreStates)
	}
	m["types.interned"] = float64(st.interned)
	m["typelts.memos"] = float64(st.memos)
	m["lts.symmetry_detect_ms"] = selfMS(p.spans, self, "lts.DetectSymmetry")
	m["lts.orbit_ratio"] = ratio(st.orbitCovered, st.orbitExplored)
	m["lts.symmetry_engaged"] = float64(st.symEngaged)
	m["lts.por_explore_ms"] = selfMS(p.spans, self, "verify.VerifyContext[por]")
	m["lts.ample_ratio"] = ratio(st.porExplored, st.porFull)
	m["lts.minimize_ms"] = selfMS(p.spans, self, "lts.MinimizeContext")
	m["lts.blocks"] = float64(st.blocks)
	m["lts.quotient_ratio"] = ratio(st.blockStates, st.blocks)
	m["mucalc.translate_ms"] = selfMS(p.spans, self, "mucalc.Translate", "mucalc.LabelClasses")
	m["mucalc.automaton_states"] = float64(st.automaton)
	m["mucalc.check_ms"] = selfMS(p.spans, self, "mucalc.CheckContext", "mucalc.CheckModelContext")
	m["mucalc.product_states"] = float64(st.product)
	m["verify.admit_ms"] = selfMS(p.spans, self, "verify.Admissible", "verify.ObservablesFor")
	m["verify.compile_ms"] = selfMS(p.spans, self, "verify.Compile", "verify.EvUsageHolds")
	m["verify.overlap_ratio"] = p.overlap
	m["verify.lift_ms"] = selfMS(p.spans, self, "verify.VerifyContext[lift]", "verify.VerifyContext[early-exit]", "verify.DecodeWitness")
	m["verify.replay_ms"] = selfMS(p.spans, self, "effpi.WitnessToJSON")
	m["verify.witness_steps"] = float64(st.witnessSteps)
	m["effpi.witness_encode_ms"] = selfMS(p.spans, self, "json.Marshal(effpi.WitnessJSON)")
	m["effpi.witness_bytes"] = float64(st.witnessBytes)
	m["effpi.workspace_memos"] = p.memos
	m["effpi.workspace_evictions"] = p.evictions
	m["syntax.parse_ms"] = selfMS(p.spans, self, "syntax.ParseProgram", "syntax.ParseType")
	m["typecheck.infer_ms"] = selfMS(p.spans, self, "typecheck.Infer")
	m["frontend.extract_ms"] = selfMS(p.spans, self, "frontend.ExtractSource")
	m["bench.sweep_wall_s"] = p.untraced.Seconds()
	if p.untraced > 0 {
		m["trace.overhead_ratio"] = float64(p.hi-p.lo) / float64(p.untraced)
	}
	m["trace.uncovered_ratio"] = uncoveredShare(p.spans, p.lo, p.hi)
	return m
}
