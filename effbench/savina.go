package main

import (
	"fmt"
	goruntime "runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	rt "effpi/internal/runtime"
	"effpi/internal/savina"
)

// savinaSizes fixes each Fig. 8 benchmark at one mid-sweep size (heavy)
// and the sweep size one decade below it (light). On a 2-CPU x86-64 box
// each heavy run takes 50–160 ms.
var savinaSizes = map[string][2]int{
	"chameneos":  {1_000, 10_000},
	"counting":   {10_000, 100_000},
	"fjc":        {10_000, 100_000},
	"fjt":        {100, 1_000},
	"pingpong":   {100, 1_000},
	"ring":       {1_000, 10_000},
	"streamring": {100, 1_000},
}

// savinaWorkers is the effpi-default scheduler's worker count.
const savinaWorkers = 2

// savinaTimeout bounds one Savina run. The slowest heavy run takes about
// 160 ms, so a run past it is a runtime that stopped making progress.
const savinaTimeout = 10 * time.Second

type savinaRun struct {
	name  string
	size  int
	heavy bool
}

func savinaPass() []savinaRun {
	var out []savinaRun
	for _, n := range savinaNames {
		sz := savinaSizes[n]
		out = append(out, savinaRun{n, sz[0], false}, savinaRun{n, sz[1], true})
	}
	return out
}

func savinaKey(name string, size int) string { return fmt.Sprintf("%s@%d", name, size) }

// runSavina runs fig8-runtime: every benchmark at its light and heavy
// size on a fresh effpi-default scheduler, pass after pass.
func runSavina(cfg config, g *gate) (map[string]float64, error) {
	benches := map[string]savina.Benchmark{}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		goruntime.GC()
		start := selfCPU()
		for _, b := range savina.All() {
			benches[b.Name] = b
			if _, ok := runWithDeadline(b, rt.NewScheduler(savinaWorkers, rt.PolicyDefault), b.Sizes[0]); !ok {
				return nil, fmt.Errorf("savina %s@%d did not finish within %v", b.Name, b.Sizes[0], savinaTimeout)
			}
		}
		setups = append(setups, (selfCPU() - start).Seconds())
	}
	for _, n := range savinaNames {
		if _, ok := benches[n]; !ok {
			return nil, fmt.Errorf("savina has no benchmark %q", n)
		}
	}

	var tr *tracer
	var peakHeap uint64
	var gcBefore goruntime.MemStats
	stopSampler := func() {}
	if cfg.trace {
		tr = newTracer()
		goruntime.ReadMemStats(&gcBefore)
		stopSampler = sampleHeap(&peakHeap)
	}
	var (
		perRun               = map[string][]float64{} // CPU ms, by benchmark@size
		untraced, tracedWall []float64
		uncovered            []float64
		passes               int
	)
	start := time.Now()
	stalled := false
	for pass := 0; !stalled && (pass == 0 || time.Since(start) < cfg.seconds); pass++ {
		passes++
		// A traced run alternates untraced and traced passes, so the two
		// can be compared for the tracing overhead.
		traced := cfg.trace && pass%2 == 1
		var sweep time.Duration
		var lo time.Duration
		if traced {
			lo = time.Since(tr.epoch)
		}
		for _, r := range savinaPass() {
			b := benches[r.name]
			// Collect the previous run's garbage first, so no run pays
			// for another's.
			goruntime.GC()
			sched := rt.NewScheduler(savinaWorkers, rt.PolicyDefault)
			id := -1
			if traced {
				name := "runtime.Run.light"
				if r.heavy {
					name = "runtime.Run." + r.name
				}
				id = tr.begin(name, -1, tr.newGroup())
			}
			cpu := selfCPU()
			t0 := time.Now()
			res, finished := runWithDeadline(b, sched, r.size)
			d := time.Since(t0)
			cpu = selfCPU() - cpu
			if traced {
				tr.end(id)
			}
			key := savinaKey(r.name, r.size)
			if !finished {
				// The stuck run's goroutines stay behind, so measuring on
				// would measure them too: count it and stop.
				g.op([]string{fmt.Sprintf("%s did not finish within %v", key, savinaTimeout)})
				stalled = true
				break
			}
			sweep += d
			var bad []string
			if cfg.writePins {
				if prev, seen := cfg.pins.Savina[key]; seen && prev != res.Messages {
					bad = append(bad, fmt.Sprintf("%s: %d messages, earlier %d", key, res.Messages, prev))
				}
				cfg.pins.Savina[key] = res.Messages
			} else if want, pinned := cfg.pins.Savina[key]; !pinned || want != res.Messages {
				bad = append(bad, fmt.Sprintf("%s: %d messages, want %d", key, res.Messages, want))
			}
			g.op(bad)
			perRun[key] = append(perRun[key], ms(cpu))
		}
		if traced {
			hi := time.Since(tr.epoch)
			tracedWall = append(tracedWall, sweep.Seconds())
			uncovered = append(uncovered, uncoveredShare(tr.snapshot(), lo, hi))
		} else {
			untraced = append(untraced, sweep.Seconds())
		}
	}
	var gcAfter goruntime.MemStats
	if cfg.trace {
		stopSampler()
		goruntime.ReadMemStats(&gcAfter)
	}
	// The delivery check comes after the measured passes, which the
	// memory figures describe: its wrapped continuations raise the
	// process's peak RSS by about a fifth.
	peakRSS := selfPeakRSSMB()
	if !stalled && !checkDelivery(cfg, g, benches) {
		return nil, fmt.Errorf("a Savina run did not finish within %v", savinaTimeout)
	}
	if cfg.trace {
		m := emptyPerLayer()
		spans := tr.snapshot()
		self := selfTimes(spans)
		tracedPasses := float64(len(tracedWall))
		if tracedPasses == 0 {
			tracedPasses = 1
		}
		for _, n := range savinaNames {
			m["runtime.run_ms."+n] = selfMS(spans, self, "runtime.Run."+n) / tracedPasses
		}
		m["runtime.gc_count"] = float64(gcAfter.NumGC-gcBefore.NumGC) / float64(passes)
		m["runtime.peak_heap_mb"] = float64(peakHeap) / (1 << 20)
		if err := writeSpans(cfg.spansPath, spans); err != nil {
			return nil, err
		}
		m["bench.sweep_wall_s"] = median(untraced)
		if len(tracedWall) > 0 {
			m["trace.overhead_ratio"] = median(tracedWall) / median(untraced)
			m["trace.uncovered_ratio"] = median(uncovered)
		}
		return m, nil
	}
	// The median pass: every run at its median CPU time (see runVerifier).
	return opMetrics(setups, medianOfLists(perRun), peakRSS), nil
}

// sampleHeap records the largest live-heap reading, sampled every 5 ms
// without stopping the world, until the returned stop function returns.
func sampleHeap(peak *uint64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > *peak {
				*peak = v
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// runWithDeadline runs one Savina benchmark and reports whether it
// returned within savinaTimeout. A run that does not return is left
// running: the runtime offers no way to stop it.
func runWithDeadline(b savina.Benchmark, e rt.Engine, size int) (savina.Result, bool) {
	done := make(chan savina.Result, 1)
	go func() { done <- b.Run(e, size) }()
	timer := time.NewTimer(savinaTimeout)
	defer timer.Stop()
	select {
	case res := <-done:
		return res, true
	case <-timer.C:
		return savina.Result{}, false
	}
}

// countingEngine wraps an engine and counts the sends whose
// continuation ran and the receives that got a value. Five of the seven
// Savina benchmarks (counting, fjc, fjt, ring, streamring) report a
// Messages worked out from their size, not counted, so the pinned
// Messages cannot catch a runtime that loses or duplicates messages;
// these counts can.
type countingEngine struct {
	rt.Engine
	sent, received atomic.Int64
}

func (e *countingEngine) Run(procs ...rt.Proc) {
	wrapped := make([]rt.Proc, len(procs))
	for i, p := range procs {
		wrapped[i] = e.wrap(p)
	}
	e.Engine.Run(wrapped...)
}

func (e *countingEngine) wrap(p rt.Proc) rt.Proc {
	switch p := p.(type) {
	case rt.Send:
		cont := p.Cont
		return rt.Send{Ch: p.Ch, Val: p.Val, Cont: func() rt.Proc {
			e.sent.Add(1)
			return e.wrap(cont())
		}}
	case rt.Recv:
		cont := p.Cont
		return rt.Recv{Ch: p.Ch, Cont: func(v any) rt.Proc {
			e.received.Add(1)
			return e.wrap(cont(v))
		}}
	case rt.Par:
		procs := make([]rt.Proc, len(p.Procs))
		for i, q := range p.Procs {
			procs[i] = e.wrap(q)
		}
		return rt.Par{Procs: procs}
	case rt.Eval:
		run := p.Run
		return rt.Eval{Run: func() rt.Proc { return e.wrap(run()) }}
	}
	return p
}

// checkDelivery runs every benchmark once at each size on a counting
// engine, untimed, and gates the delivered-message count: every message
// sent must have been received, and the count must equal its pin. It
// returns false when a run did not finish.
func checkDelivery(cfg config, g *gate, benches map[string]savina.Benchmark) bool {
	for _, r := range savinaPass() {
		key := savinaKey(r.name, r.size)
		goruntime.GC()
		e := &countingEngine{Engine: rt.NewScheduler(savinaWorkers, rt.PolicyDefault)}
		if _, ok := runWithDeadline(benches[r.name], e, r.size); !ok {
			g.op([]string{fmt.Sprintf("%s (counted) did not finish within %v", key, savinaTimeout)})
			return false
		}
		sent, received := e.sent.Load(), e.received.Load()
		var bad []string
		if sent != received {
			bad = append(bad, fmt.Sprintf("%s: %d messages sent, %d received", key, sent, received))
		}
		if cfg.writePins {
			cfg.pins.SavinaDelivered[key] = received
		} else if want, pinned := cfg.pins.SavinaDelivered[key]; !pinned || want != received {
			bad = append(bad, fmt.Sprintf("%s: %d messages delivered, want %d", key, received, want))
		}
		g.op(bad)
	}
	return true
}
