package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"effpi"
)

// The service-mix request stream is drawn from this fixed universe. The
// seed picks, per request, the flavour, the row or program, the property
// subset, early_exit and the arrival offset; the server receives only the
// generated request bodies.

// smallRows are the named rows a request verifies in a few milliseconds.
var smallRows = []string{
	"Pay & audit + 8 clients", "Pay & audit + 10 clients", "Pay & audit + 12 clients",
	"Dining philos. (4, deadlock)", "Dining philos. (4, no deadlock)",
	"Dining philos. (5, deadlock)", "Dining philos. (5, no deadlock)",
	"Dining philos. (6, deadlock)", "Dining philos. (6, no deadlock)",
	"Ping-pong (6 pairs)", "Ping-pong (6 pairs, responsive)",
	"Ring (10 elements)", "Ring (15 elements)", "Ring (10 elements, 3 tokens)",
}

const heavyRow = "Dining philos. (8, deadlock)"

type bindSpec struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type propSpec struct {
	Kind     string   `json:"kind"`
	Channels []string `json:"channels,omitempty"`
	From     string   `json:"from,omitempty"`
	To       string   `json:"to,omitempty"`
	Open     bool     `json:"open,omitempty"`
}

// verifyBody is the subset of effpid's POST /v1/verify body the
// benchmark sends.
type verifyBody struct {
	Source     string     `json:"source,omitempty"`
	System     string     `json:"system,omitempty"`
	GoSource   string     `json:"go_source,omitempty"`
	Binds      []bindSpec `json:"binds,omitempty"`
	Properties []propSpec `json:"properties,omitempty"`
	EarlyExit  bool       `json:"early_exit,omitempty"`
}

// program is one source input kept under inputs/.
type program struct {
	file  string
	binds []bindSpec
	props []propSpec
	src   string
}

var epiPrograms = []program{
	{file: "stuck.epi", binds: []bindSpec{{"c", "Chan[Int]"}},
		props: []propSpec{{Kind: "deadlock-free", Channels: []string{"c"}}, {Kind: "ev-usage", Channels: []string{"c"}}, {Kind: "non-usage", Channels: []string{"c"}}}},
	{file: "relay.epi", binds: []bindSpec{{"i", "Chan[Int]"}, {"o", "Chan[Int]"}},
		props: []propSpec{{Kind: "deadlock-free", Channels: []string{"i", "o"}}, {Kind: "forwarding", From: "i", To: "o"}, {Kind: "ev-usage", Channels: []string{"o"}}, {Kind: "non-usage", Channels: []string{"o"}}}},
	{file: "pipeline.epi", binds: []bindSpec{{"out", "Chan[Int]"}},
		props: []propSpec{{Kind: "deadlock-free", Channels: []string{"out"}}, {Kind: "ev-usage", Channels: []string{"out"}}, {Kind: "non-usage", Channels: []string{"out"}}}},
}

var goPrograms = []program{
	{file: "quickstart.go.txt",
		props: []propSpec{{Kind: "deadlock-free"}, {Kind: "ev-usage", Channels: []string{"z"}}, {Kind: "non-usage", Channels: []string{"y"}}}},
	{file: "mobilecode.go.txt",
		props: []propSpec{{Kind: "deadlock-free"}, {Kind: "forwarding", From: "z1", To: "out"}, {Kind: "non-usage", Channels: []string{"z2"}}}},
}

// inputs holds the program sources read from the benchmark's directory.
type inputs struct {
	epi, gosrc []program
}

func loadInputs(dir string) (*inputs, error) {
	in := &inputs{}
	load := func(ps []program) ([]program, error) {
		out := append([]program(nil), ps...)
		for i := range out {
			data, err := os.ReadFile(filepath.Join(dir, out[i].file))
			if err != nil {
				return nil, fmt.Errorf("reading benchmark input: %w", err)
			}
			out[i].src = string(data)
		}
		return out, nil
	}
	var err error
	if in.epi, err = load(epiPrograms); err != nil {
		return nil, err
	}
	if in.gosrc, err = load(goPrograms); err != nil {
		return nil, err
	}
	return in, nil
}

// rowProps are a named row's six properties in wire form.
func rowProps(name string) []propSpec {
	row, ok := effpi.BenchSystemByName(name)
	if !ok {
		panic("unknown benchmark row " + name) // the row lists above are fixed
	}
	out := make([]propSpec, len(row.Props))
	for i, p := range row.Props {
		out[i] = propSpec{Kind: p.Kind.String(), Channels: p.Channels, From: p.From, To: p.To, Open: !p.Closed}
	}
	return out
}

// request is one generated service request.
type request struct {
	Phase   string        `json:"phase"`
	Due     time.Duration `json:"due_ns"` // offset from the phase start
	Flavour string        `json:"flavour"`
	Body    verifyBody    `json:"body"`
}

// flavourDeck fixes the open-loop mix's composition: every block of 50
// requests holds exactly these flavours, in a seeded order, so every
// seed offers the same share of slow requests. The shares are this
// benchmark's own choices, not taken from recorded traffic: no record of
// real effpid traffic exists. What each is for:
//   - heavy-row, 3 in 50: the one request that explores thousands of
//     states (~120 ms against ~10 ms for a small row). A phase of at
//     least 200 requests holds at least 12, more than the 5% beyond its
//     p95, so the p95 is a heavy-row latency plus its queueing rather
//     than the edge between two flavours.
//   - epi, 8 in 50: source programs, so that parsing and typechecking
//     are on the request path.
//   - row, the rest: small named rows, served mostly from the warm
//     workspace.
//
// Go-source requests (~500-700 ms, single-threaded extraction) are not in
// the open-loop stream: one in fifty of them made the phases' p95 swing
// by 2-3x between seeds through head-of-line blocking on the two
// connections. They run in the closed-loop sweep instead (sweepBodies),
// where sweep_cpu_s and op_cpu_geomean_ms carry their cost.
var flavourDeck = func() []string {
	var deck []string
	for i := 0; i < 3; i++ {
		deck = append(deck, "heavy-row")
	}
	for i := 0; i < 8; i++ {
		deck = append(deck, "epi")
	}
	for len(deck) < 50 {
		deck = append(deck, "row")
	}
	return deck
}()

// One small-row request in singleEvery asks for a single property, so
// that requests for less than a row's full six properties are on the
// request path too. The share is this benchmark's choice.
const singleEvery = 4

// shareEarly is the share of small-row and .epi requests that ask for
// early_exit, the on-the-fly path. The share is this benchmark's choice.
const shareEarly = 0.20

// deck deals the indices 0..n-1 in seeded order, reshuffling once all
// have been dealt, so every index recurs equally often.
type deck struct {
	n     int
	order []int
}

func (d *deck) deal(rng *rand.Rand) int {
	if len(d.order) == 0 {
		d.order = rng.Perm(d.n)
	}
	i := d.order[0]
	d.order = d.order[1:]
	return i
}

// drawer draws request bodies: the flavour from flavourDeck; for a small
// row, the row and whether it asks for all six properties or one, from
// a deck over both; the program and the single property uniformly.
type drawer struct {
	rng            *rand.Rand
	in             *inputs
	flavours, rows deck
}

func newDrawer(rng *rand.Rand, in *inputs) *drawer {
	return &drawer{rng: rng, in: in, flavours: deck{n: len(flavourDeck)}, rows: deck{n: singleEvery * len(smallRows)}}
}

func (d *drawer) draw() (string, verifyBody) {
	flavour := flavourDeck[d.flavours.deal(d.rng)]
	var b verifyBody
	switch flavour {
	case "heavy-row":
		return flavour, verifyBody{System: heavyRow}
	case "epi":
		p := d.in.epi[d.rng.IntN(len(d.in.epi))]
		b = verifyBody{Source: p.src, Binds: p.binds, Properties: p.props}
	default:
		k := d.rows.deal(d.rng)
		b = verifyBody{System: smallRows[k/singleEvery]}
		if k%singleEvery == 0 {
			props := rowProps(b.System)
			b.Properties = []propSpec{props[d.rng.IntN(len(props))]}
		}
	}
	b.EarlyExit = d.rng.Float64() < shareEarly
	return flavour, b
}

// minPhaseRequests makes every phase long enough for its p95 to have at
// least ten samples beyond it.
const minPhaseRequests = 200

// generate draws the two phases of the stream: arrivals at the light
// rate for lightDur, then at the heavy rate for heavyDur. A phase holds
// exactly rate×duration requests (at least minPhaseRequests, lengthening
// the phase if needed) at seeded uniform offsets — a Poisson process
// conditioned on its count, so every seed offers the same load and only
// the arrival pattern and the request order vary.
func generate(seed uint64, lightDur, heavyDur time.Duration, in *inputs) []request {
	var out []request
	for i, ph := range []struct {
		name string
		rate float64
		dur  time.Duration
	}{{"light", lightRPS, lightDur}, {"heavy", heavyRPS, heavyDur}} {
		dur := ph.dur
		rng := rand.New(rand.NewPCG(seed, uint64(i)))
		n := int(math.Round(ph.rate * dur.Seconds()))
		length := dur
		if n < minPhaseRequests {
			n = minPhaseRequests
			length = time.Duration(float64(n) / ph.rate * float64(time.Second))
		}
		dues := make([]time.Duration, n)
		for j := range dues {
			dues[j] = time.Duration(rng.Int64N(int64(length)))
		}
		slices.Sort(dues)
		d := newDrawer(rng, in)
		for _, due := range dues {
			flavour, body := d.draw()
			out = append(out, request{Phase: ph.name, Due: due, Flavour: flavour, Body: body})
		}
	}
	return out
}

// encodeStream is the stream's canonical byte form.
func encodeStream(reqs []request) ([]byte, error) { return json.Marshal(reqs) }
