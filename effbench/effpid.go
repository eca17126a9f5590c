package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"effpi"
)

// effpidFlags are the server settings (workers, exploration workers per
// job, queue depth, cache budget, drain window); -addr is added per
// launch. Each of the two jobs explores on one CPU: with the default of
// one exploration worker per CPU, a Dining(8) request took both CPUs
// and stalled the request on the other connection, which made the
// phases' latencies follow the machine's steal time.
//
// -pprof exposes the heap-profile handler, which the benchmark uses only
// to make the server collect its garbage between measured requests.
var effpidFlags = []string{"-workers", "2", "-par", "1", "-queue-depth", "64", "-cache-budget", "0", "-drain", "2s", "-pprof"}

// effpidGOGC is the server's garbage-collector target. The warm
// workspace keeps a large live heap, which every collection marks again;
// at the default of 100, collections took a third of a Go-source
// request's CPU time, and how much moved by up to a quarter from one run
// to the next with the host's load.
const effpidGOGC = "GOGC=400"

type effpidProc struct {
	cmd    *exec.Cmd
	url    string
	stderr *tailBuffer
	done   chan struct{}
	err    error
}

// tailBuffer keeps the last few KiB the server wrote to standard error.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startEffpid launches the server and returns once /readyz answers 200,
// with the CPU time the server used from exec to that answer.
func startEffpid(bin string) (*effpidProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	p := &effpidProc{url: "http://" + addr, stderr: &tailBuffer{}, done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, effpidFlags...)...)
	p.cmd.Stderr = p.stderr
	p.cmd.Env = append(os.Environ(), effpidGOGC)
	// If the benchmark itself is killed, the kernel stops the server too.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting effpid: %w", err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(p.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				cpu, err := processCPU(p.cmd.Process.Pid)
				if err != nil {
					p.stop()
					return nil, 0, err
				}
				return p, cpu, nil
			}
		}
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("effpid exited before it was ready: %v\n%s", p.err, p.stderr)
		case <-time.After(250 * time.Microsecond):
		}
		if time.Since(start) > 30*time.Second {
			p.stop()
			return nil, 0, errors.New("effpid was not ready within 30 s")
		}
	}
}

// stop sends SIGTERM, waits for the process to exit and returns its peak
// RSS in MiB.
func (p *effpidProc) stop() float64 {
	select {
	case <-p.done:
	default:
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(20 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// collect makes the server run a full garbage collection and waits for
// it to finish: the heap profile handler collects first when asked with
// gc=1 (the profile itself is discarded).
func (p *effpidProc) collect(client *http.Client) error {
	resp, err := client.Get(p.url + "/debug/pprof/heap?gc=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("collecting effpid's garbage: status %d", resp.StatusCode)
	}
	return nil
}

// wireResult is the part of an effpid result the gate compares.
type wireResult struct {
	Property        string             `json:"property"`
	Holds           bool               `json:"holds"`
	States          int                `json:"states"`
	StatesReduced   int                `json:"states_reduced"`
	StatesExplored  int                `json:"states_explored"`
	ProductStates   int                `json:"product_states"`
	AutomatonStates int                `json:"automaton_states"`
	Witness         *effpi.WitnessJSON `json:"witness"`
}

type wireResponse struct {
	Results    []wireResult `json:"results"`
	DurationMS float64      `json:"duration_ms"`
}

// reply is one request's outcome as the client saw it. The body is
// decoded only after the phase, so the client spends no CPU on it while
// the server is under load.
type reply struct {
	status int
	data   []byte
	sent   time.Time
	done   time.Time
	err    error
}

// post sends one request body.
func post(client *http.Client, url string, body []byte) reply {
	r := reply{sent: time.Now()}
	resp, err := client.Post(url+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err, r.done = err, time.Now()
		return r
	}
	r.data, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status = resp.StatusCode
	if r.err == nil && resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(r.data))
	}
	return r
}

// decode turns a 200 response into gated cells and the server-side
// duration.
func (r reply) decode() ([]cell, float64, error) {
	if r.err != nil {
		return nil, 0, r.err
	}
	var wr wireResponse
	if err := json.Unmarshal(r.data, &wr); err != nil {
		return nil, 0, fmt.Errorf("decoding response: %w", err)
	}
	cells := make([]cell, 0, len(wr.Results))
	for _, res := range wr.Results {
		c := cell{Property: res.Property, Holds: res.Holds, States: res.States, StatesExplored: res.StatesExplored,
			ReducedStates: res.StatesReduced, ProductStates: res.ProductStates, AutomatonStates: res.AutomatonStates}
		if c.StatesExplored == 0 {
			c.StatesExplored = c.States
		}
		if res.Witness != nil {
			var err error
			if c.WitnessSHA256, c.WitnessLen, err = digest(res.Witness); err != nil {
				return nil, 0, err
			}
		}
		cells = append(cells, c)
	}
	return cells, wr.DurationMS, nil
}

func fetchMetrics(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return out, nil
}
