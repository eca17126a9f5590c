// Command effbench is the repository's benchmark: it runs one named
// workload with a seed, checks every output against the committed gate
// (pins.json), and prints its metrics as one JSON line. See README.md.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash effbench/run.sh --workload fig9-concrete --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"syscall"
	"time"
)

// config is what every workload receives.
type config struct {
	seed      uint64
	seconds   time.Duration
	trace     bool
	pins      *pinFile
	writePins bool
	effpid    string
	// spansPath is where a traced run writes its spans.
	spansPath string
}

var workloads = []string{"fig9-concrete", "fig9-reducers", "service-mix", "fig8-runtime"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "effbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: fig9-concrete, fig9-reducers, service-mix or fig8-runtime")
	seed := flag.Uint64("seed", 0, "workload seed (0 = the default seed recorded in the gate file)")
	seconds := flag.Int("seconds", 25, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	pinsPath := flag.String("pins", "effbench/pins.json", "output gate file")
	writePins := flag.Bool("write-pins", false, "record the run's outputs into the gate file instead of checking them")
	effpid := flag.String("effpid", ".bench_build/effpid", "effpid binary (service-mix)")
	capacity := flag.Bool("capacity", false, "measure the service's closed-loop capacity (the basis of its fixed rates) and exit")
	flag.Parse()
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	pins, err := loadPins(*pinsPath)
	if err != nil {
		return err
	}
	if *seed == 0 {
		*seed = pins.Seeds.Default
	}
	if *writePins {
		// Re-record the workload from scratch: the first pass of this run
		// sets each pin and later passes are compared with it.
		delete(pins.Rows, *workload)
		if *workload == "fig8-runtime" {
			pins.Savina = map[string]int64{}
			pins.SavinaDelivered = map[string]int64{}
		}
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		pins: pins, writePins: *writePins, effpid: *effpid,
		spansPath: fmt.Sprintf(".bench_build/spans-%s-seed%d.json", *workload, *seed)}
	stamp, err := json.Marshal(map[string]any{"stamp": map[string]any{
		"nproc": goruntime.NumCPU(), "gomaxprocs": goruntime.GOMAXPROCS(0), "go": goruntime.Version(),
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": cfg.trace,
		"effpid_flags": effpidFlags, "effpid_env": effpidGOGC, "light_rps": lightRPS, "heavy_rps": heavyRPS, "latency_limit_ms": ms(latencyLimit),
	}})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", stamp)

	ctx := context.Background()
	if *capacity {
		rps, err := measureCapacity(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("capacity %.1f requests/s from %d closed-loop connections\n", rps, connections)
		return nil
	}
	g := &gate{}
	var vals map[string]float64
	switch *workload {
	case "fig9-concrete":
		vals, err = runVerifier(ctx, verifierWorkload{name: *workload}, cfg, g)
	case "fig9-reducers":
		vals, err = runVerifier(ctx, verifierWorkload{name: *workload, reducers: true}, cfg, g)
	case "service-mix":
		vals, err = runService(ctx, cfg, g)
	case "fig8-runtime":
		vals, err = runSavina(cfg, g)
	default:
		return fmt.Errorf("unknown --workload %q (want one of %v)", *workload, workloads)
	}
	if err != nil {
		return err
	}
	for _, r := range g.reports {
		fmt.Fprintln(os.Stderr, "gate:", r)
	}
	if *writePins {
		if g.failed > 0 {
			return fmt.Errorf("not writing pins: %d of %d operations disagreed", g.failed, g.attempted)
		}
		if err := savePins(*pinsPath, pins); err != nil {
			return err
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := writeResult(os.Stdout, defs, vals, g); err != nil {
		return err
	}
	if g.failed > 0 {
		return fmt.Errorf("%d of %d operations failed the output gate", g.failed, g.attempted)
	}
	return nil
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
