package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"effpi"
)

// cell is the deterministic part of one property outcome: everything
// the output gate pins exactly. The timing is not part of it.
type cell struct {
	Property        string `json:"property"`
	Holds           bool   `json:"holds"`
	States          int    `json:"states"`
	StatesExplored  int    `json:"states_explored"`
	ReducedStates   int    `json:"reduced_states"`
	ProductStates   int    `json:"product_states"`
	AutomatonStates int    `json:"automaton_states"`
	WitnessSHA256   string `json:"witness_sha256,omitempty"`
	WitnessLen      int    `json:"witness_len,omitempty"`
}

// pinFile is the committed output gate (pins.json).
type pinFile struct {
	// Seeds are the service-mix seeds: Default is the one used while a
	// change is developed, HeldOut the unseen seed its claim must also
	// hold on.
	Seeds struct {
		Default uint64 `json:"default"`
		HeldOut uint64 `json:"held_out"`
	} `json:"seeds"`
	// Rows maps workload → row name → one cell per property.
	Rows map[string]map[string][]cell `json:"rows"`
	// Savina maps "benchmark@size" → the Messages the benchmark reports.
	Savina map[string]int64 `json:"savina"`
	// SavinaDelivered maps "benchmark@size" → messages the runtime
	// delivered, counted by the benchmark (see countingEngine).
	SavinaDelivered map[string]int64 `json:"savina_delivered"`
}

func loadPins(path string) (*pinFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading pins: %w", err)
	}
	var p pinFile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("decoding pins %s: %w", path, err)
	}
	if p.Rows == nil {
		p.Rows = map[string]map[string][]cell{}
	}
	if p.Savina == nil {
		p.Savina = map[string]int64{}
	}
	if p.SavinaDelivered == nil {
		p.SavinaDelivered = map[string]int64{}
	}
	return &p, nil
}

func savePins(path string, p *pinFile) error {
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// digest is the sha256 (hex) and length of a witness's wire encoding.
func digest(w *effpi.WitnessJSON) (string, int, error) {
	data, err := json.Marshal(w)
	if err != nil {
		return "", 0, err
	}
	sum, n := digestBytes(data)
	return sum, n, nil
}

// digestBytes is digest of an already encoded witness.
func digestBytes(data []byte) (string, int) {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), len(data)
}

// outcomeCell extracts the gated fields of a façade outcome, encoding
// (and thereby replaying) the witness of every LTL FAIL. sm is the
// source map of a Go-source session, nil otherwise.
func outcomeCell(o *effpi.Outcome, sm *effpi.SourceMap) (cell, error) {
	c := cell{
		Property:        o.Property.String(),
		Holds:           o.Holds,
		States:          o.States,
		StatesExplored:  o.StatesExplored,
		ReducedStates:   o.ReducedStates,
		ProductStates:   o.ProductStates,
		AutomatonStates: o.AutomatonStates,
	}
	if !o.Holds && o.Property.Kind != effpi.EventualOutput {
		w, err := effpi.WitnessToJSONMapped(o, sm)
		if err != nil {
			return c, err
		}
		if c.WitnessSHA256, c.WitnessLen, err = digest(w); err != nil {
			return c, err
		}
	}
	return c, nil
}

// gate counts attempted and failed operations and keeps the first few
// mismatch reports for standard error.
type gate struct {
	attempted, failed int
	reports           []string
}

// op records one attempted operation with its mismatches (none = OK).
func (g *gate) op(mismatches []string) bool {
	g.attempted++
	if len(mismatches) == 0 {
		return true
	}
	g.failed++
	if len(g.reports) < 20 {
		g.reports = append(g.reports, strings.Join(mismatches, "; "))
	}
	return false
}

// diffCells lists every field on which got differs from want.
func diffCells(what string, got, want []cell) []string {
	if len(got) != len(want) {
		return []string{fmt.Sprintf("%s: %d outcomes, want %d", what, len(got), len(want))}
	}
	var out []string
	for i := range got {
		if got[i] != want[i] {
			out = append(out, fmt.Sprintf("%s: %+v, want %+v", what, got[i], want[i]))
		}
	}
	return out
}
