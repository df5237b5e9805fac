package main

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// events summarizes the JSONL stream a prop.Tracer wrote for one call:
// the phase spans, pass events, flow rounds and delta applications the
// program emits (see internal/obs for the schema). Counts are float64 so a
// sum over repetitions scales to a per-repetition mean.
type events struct {
	phaseMS      map[string]float64 // summed wall time per phase name
	phaseN       map[string]float64 // span count per phase name
	propPasses   float64
	moves, kept  float64
	flowRounds   float64
	flowAdopted  float64
	deltaApplyMS float64
}

// traceLine is the union of the event fields the benchmark reads.
type traceLine struct {
	Ev      string  `json:"ev"`
	Name    string  `json:"name"`
	WallUS  float64 `json:"wall_us"`
	Algo    string  `json:"algo"`
	Moves   float64 `json:"moves"`
	Kept    float64 `json:"kept"`
	Adopted float64 `json:"adopted"`
	DurUS   float64 `json:"dur_us"`
}

func parseEvents(data []byte) (events, error) {
	ev := events{phaseMS: map[string]float64{}, phaseN: map[string]float64{}}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var t traceLine
		if err := json.Unmarshal(line, &t); err != nil {
			return events{}, fmt.Errorf("trace line %q: %w", line, err)
		}
		switch t.Ev {
		case "phase":
			ev.phaseMS[t.Name] += t.WallUS / 1000
			ev.phaseN[t.Name]++
		case "pass":
			if t.Algo == "prop" {
				ev.propPasses++
			}
			ev.moves += t.Moves
			ev.kept += t.Kept
		case "flow":
			ev.flowRounds++
			ev.flowAdopted += t.Adopted
		case "delta_apply":
			ev.deltaApplyMS += t.DurUS / 1000
		}
	}
	return ev, nil
}

// add accumulates o into e.
func (e *events) add(o events) {
	if e.phaseMS == nil {
		e.phaseMS, e.phaseN = map[string]float64{}, map[string]float64{}
	}
	for k, v := range o.phaseMS {
		e.phaseMS[k] += v
	}
	for k, v := range o.phaseN {
		e.phaseN[k] += v
	}
	e.propPasses += o.propPasses
	e.moves += o.moves
	e.kept += o.kept
	e.flowRounds += o.flowRounds
	e.flowAdopted += o.flowAdopted
	e.deltaApplyMS += o.deltaApplyMS
}

// scale multiplies every time and count by f.
func (e *events) scale(f float64) {
	for k := range e.phaseMS {
		e.phaseMS[k] *= f
	}
	for k := range e.phaseN {
		e.phaseN[k] *= f
	}
	e.propPasses *= f
	e.moves *= f
	e.kept *= f
	e.flowRounds *= f
	e.flowAdopted *= f
	e.deltaApplyMS *= f
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
