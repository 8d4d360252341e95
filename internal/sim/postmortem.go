package sim

import "math"

// ViolationReport describes one noise-margin violation burst and the
// context around it — the per-violation version of the Figure 4 analysis.
type ViolationReport struct {
	// StartCycle and EndCycle bound the burst (consecutive cycles the
	// machine flagged as violations, merged across gaps shorter than a
	// tenth of the lookback).
	StartCycle, EndCycle uint64
	// PeakDeviationV is the largest |deviation| inside the burst.
	PeakDeviationV float64
	// WarningLeadCycles is how many cycles before the burst the
	// resonant event count first reached the warning level within the
	// lookback window, or -1 if it never did (a violation faster than
	// detection).
	WarningLeadCycles int
	// ResponseLevelAtStart is the technique's response level when the
	// burst began (0 = none: the response lost the race).
	ResponseLevelAtStart int
	// SwingAmps is the peak-to-peak current swing over the lookback
	// window preceding the burst.
	SwingAmps float64
}

// Postmortem collects ViolationReports from a per-cycle trace. Install
// its Observe as (or inside) the simulator's trace callback.
type Postmortem struct {
	warningLevel int
	lookback     int
	mergeGap     int

	// history ring of the last lookback points.
	hist []TracePoint
	pos  int
	n    int

	inBurst  bool
	current  ViolationReport
	lastWarn int64 // absolute cycle of the last count >= warningLevel, -1 none
	lastViol int64

	reports []ViolationReport
}

// NewPostmortem returns an analyser. A cycle violates when its trace
// point carries the machine's violation decision (TracePoint.Violation),
// so every network kind and per-domain margin is judged exactly as
// Result.Violations counts it. warningLevel is the resonant event count
// treated as advance warning (2 in the paper); lookback bounds how far
// back warnings and current swings are attributed (use a few resonant
// periods).
func NewPostmortem(warningLevel, lookback int) *Postmortem {
	if lookback < 8 {
		lookback = 8
	}
	return &Postmortem{
		warningLevel: warningLevel,
		lookback:     lookback,
		mergeGap:     lookback / 10,
		hist:         make([]TracePoint, lookback),
		lastWarn:     -1,
		lastViol:     -1 << 40,
	}
}

// Observe consumes one trace point. Call once per cycle in order.
func (p *Postmortem) Observe(tp TracePoint) {
	p.hist[p.pos] = tp
	p.pos = (p.pos + 1) % p.lookback
	if p.n < p.lookback {
		p.n++
	}
	if tp.EventCount >= p.warningLevel {
		p.lastWarn = int64(tp.Cycle)
	}

	switch {
	case tp.Violation && !p.inBurst:
		// A short gap since the previous burst is the same event.
		if len(p.reports) > 0 && int64(tp.Cycle)-p.lastViol <= int64(p.mergeGap) {
			p.current = p.reports[len(p.reports)-1]
			p.reports = p.reports[:len(p.reports)-1]
		} else {
			p.current = ViolationReport{
				StartCycle:           tp.Cycle,
				WarningLeadCycles:    -1,
				ResponseLevelAtStart: tp.ResponseLevel,
				SwingAmps:            p.swing(),
			}
			if p.lastWarn >= 0 && int64(tp.Cycle)-p.lastWarn <= int64(p.lookback) {
				p.current.WarningLeadCycles = int(int64(tp.Cycle) - p.lastWarn)
			}
		}
		p.inBurst = true
		fallthrough
	case tp.Violation:
		p.current.EndCycle = tp.Cycle
		if a := math.Abs(tp.DeviationVolts); a > p.current.PeakDeviationV {
			p.current.PeakDeviationV = a
		}
		p.lastViol = int64(tp.Cycle)
	case p.inBurst:
		p.inBurst = false
		p.reports = append(p.reports, p.current)
	}
}

// swing returns the current peak-to-peak over the history window.
func (p *Postmortem) swing() float64 {
	if p.n == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < p.n; i++ {
		a := p.hist[i].TotalAmps
		lo = math.Min(lo, a)
		hi = math.Max(hi, a)
	}
	return hi - lo
}

// Reports returns the bursts collected so far (an open burst is included
// with its running extent).
func (p *Postmortem) Reports() []ViolationReport {
	out := append([]ViolationReport(nil), p.reports...)
	if p.inBurst {
		out = append(out, p.current)
	}
	return out
}

// Summary condenses the reports: burst count, mean warning lead among
// warned bursts, and how many bursts arrived with no warning at all.
func (p *Postmortem) Summary() (bursts int, meanLead float64, unwarned int) {
	reps := p.Reports()
	bursts = len(reps)
	warned := 0
	for _, r := range reps {
		if r.WarningLeadCycles >= 0 {
			meanLead += float64(r.WarningLeadCycles)
			warned++
		} else {
			unwarned++
		}
	}
	if warned > 0 {
		meanLead /= float64(warned)
	}
	return bursts, meanLead, unwarned
}
