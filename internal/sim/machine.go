package sim

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/power"
	"repro/internal/sensor"
)

// Machine is the technique-independent half of a simulation: the pipeline
// model, the power model, the supply circuit, and the current sensor,
// advanced together one cycle at a time. Step applies a throttle and a
// phantom request (whoever decides them — a Technique via Simulator, or a
// batch kernel's leader lane) and returns the cycle's Observation.
//
// Machine exists so the scalar Simulator and the lockstep batch kernel
// (internal/engine/batchkernel) share one copy of the per-cycle
// arithmetic: every operation in Step is performed in the same order as
// the original Simulator.StepCycle, so results are bit-identical to the
// pre-split loop (pinned by the kernel's differential harness).
type Machine struct {
	cfg  Config
	core *cpu.Core
	pwr  *power.Model
	net  circuit.Network
	sens *sensor.Current

	classAmps [cpu.NumClasses]float64
	// resolution caches the sensor quantisation step for the undelayed
	// fast path (sens is only instantiated when a reading delay makes real
	// history necessary).
	resolution float64

	// Per-domain state, one entry per supply domain of the PDN (nd of
	// them; a lumped or two-stage network is the nd = 1 case). draws and
	// devs are the buffers handed to net.Step, domJ receives a
	// multi-domain power model's per-domain cycle energies, domShare
	// splits phantom current across domains (1 on a single domain), and
	// margins holds each domain's noise margin.
	nd         int
	draws      []float64
	devs       []float64
	domJ       []float64
	domShare   []float64
	margins    []float64
	domViol    []uint64
	domPeak    []float64
	domSumAmps []float64

	// Multi-domain sensing, populated only when nd > 1: the per-rail
	// sensor bank, the rail SensedAmps reports, and the buffers behind
	// obs.PerDomain.
	sensorDomain int
	bank         *sensor.Bank
	domObs       DomainObservation

	act cpu.Activity // per-cycle activity buffer, reused to avoid copies
	obs Observation  // per-cycle observation buffer, reused likewise

	phantomJ  float64
	violation uint64
	peakDev   float64
	sumAmps   float64
	minAmps   float64
	maxAmps   float64
	cycles    uint64
}

// NewMachine builds the simulated system for the given configuration and
// instruction source.
func NewMachine(cfg Config, src cpu.Source) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pwr := power.New(cfg.Power, cfg.CPU)
	core := cpu.New(cfg.CPU, src)
	core.SetClassCurrentEstimates(pwr.ClassAmps())
	resolution := 1.0 // the paper's whole-amp sensors
	switch {
	case cfg.SensorResolutionAmps > 0:
		resolution = cfg.SensorResolutionAmps
	case cfg.SensorResolutionAmps < 0:
		resolution = 0 // exact
	}
	var sens *sensor.Current
	if cfg.SensorDelayCycles > 0 {
		sens = sensor.NewCurrentDelayed(cfg.SensorDelayCycles)
		sens.ResolutionAmps = resolution
	}

	m := &Machine{
		cfg:        cfg,
		core:       core,
		pwr:        pwr,
		sens:       sens,
		classAmps:  pwr.ClassAmps(),
		resolution: resolution,
		minAmps:    math.Inf(1),
		maxAmps:    math.Inf(-1),
	}
	if err := m.buildNetwork(); err != nil {
		return nil, err
	}
	return m, nil
}

// buildNetwork constructs the machine's PDN from the configuration's
// resolved network (Config.Network) through the network registry. A
// multi-domain network additionally splits the power model per domain
// (from the domains' PowerUnits lists) and instantiates per-rail sensors.
func (m *Machine) buildNetwork() error {
	ncfg, nd, err := m.cfg.Network().Resolve()
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	i0 := []float64{m.pwr.IdleAmps()}
	if nd > 1 {
		assign, err := domainAssignment(ncfg.MultiDomain)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		m.pwr.EnableDomains(nd, assign)
		i0 = make([]float64, nd)
		for d := range i0 {
			i0[d] = m.pwr.DomainIdleAmps(d)
		}
	}
	net, err := circuit.BuildNetwork(ncfg, i0)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	m.net = net
	m.nd = nd
	m.draws = make([]float64, nd)
	m.devs = make([]float64, nd)
	m.domJ = make([]float64, nd)
	m.domShare = make([]float64, nd)
	m.margins = make([]float64, nd)
	m.domViol = make([]uint64, nd)
	m.domPeak = make([]float64, nd)
	m.domSumAmps = make([]float64, nd)
	for d := 0; d < nd; d++ {
		m.domShare[d] = 1
		if nd > 1 {
			m.domShare[d] = m.pwr.DomainShare(d)
		}
		m.margins[d] = net.DomainInfo(d).NoiseMarginVolts
	}
	if nd > 1 {
		m.sensorDomain = m.cfg.SensorDomain
		m.bank = sensor.NewBank(nd, m.resolution, m.cfg.SensorDelayCycles)
		m.domObs = DomainObservation{
			SensedAmps:     make([]float64, nd),
			Amps:           make([]float64, nd),
			DeviationVolts: make([]float64, nd),
		}
	}
	return nil
}

// Fork returns a deep copy of the machine with a hard bit-identity
// contract: fork at any cycle, then step the original and the clone to
// completion with identical (throttle, phantom) sequences, and both
// produce identical per-cycle Observations (including the Activity
// buffer), trace-relevant values, and final Results. Every piece of
// mutable state is duplicated — core scheduler (ROB, wakeup lists,
// timing wheel, ready bitmap, fetch queue), instruction-source cursor
// (including generator RNG state), power model (spreading ring, memo,
// accumulators), supply circuit, sensor history, and the machine's own
// statistics counters — so the two machines share nothing written after
// the fork (domShare and margins are read-only after construction). The
// batch kernel uses this to resume diverged lanes from their observed
// prefix instead of re-running them from cycle zero; FuzzMachineFork and
// the kernel differential harness pin the contract.
//
// Fork fails when the instruction source cannot be forked (a source not
// implementing cpu.ForkableSource); callers fall back to re-running
// the diverging lane from cycle zero in that case.
func (m *Machine) Fork() (*Machine, error) {
	core, err := m.core.Fork()
	if err != nil {
		return nil, fmt.Errorf("sim: fork: %w", err)
	}
	f := *m
	f.core = core
	f.pwr = m.pwr.Fork()
	f.net = m.net.Fork()
	if m.sens != nil {
		f.sens = m.sens.Fork()
	}
	if m.bank != nil {
		f.bank = m.bank.Fork()
	}
	for _, buf := range []*[]float64{&f.draws, &f.devs, &f.domJ, &f.domPeak, &f.domSumAmps,
		&f.domObs.SensedAmps, &f.domObs.Amps, &f.domObs.DeviationVolts} {
		*buf = append([]float64(nil), *buf...)
	}
	f.domViol = append([]uint64(nil), m.domViol...)
	// The observation buffer's Activity and PerDomain pointers must aim
	// at the clone's own buffers, not the original's.
	if f.obs.Activity != nil {
		f.obs.Activity = &f.act
	}
	if f.obs.PerDomain != nil {
		f.obs.PerDomain = &f.domObs
	}
	return &f, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Power exposes the power model (for technique setup needing PhantomFire
// or mid-level amps, and for memoization statistics).
func (m *Machine) Power() *power.Model { return m.pwr }

// Core exposes the pipeline model.
func (m *Machine) Core() *cpu.Core { return m.core }

// Done reports whether the instruction stream is exhausted and the
// pipeline has drained.
func (m *Machine) Done() bool { return m.core.Done() }

// Cycles returns the number of cycles stepped so far.
func (m *Machine) Cycles() uint64 { return m.cycles }

// CycleLimit returns the configured MaxCycles bound, substituting the
// generous livelock guard when the configuration leaves it zero.
func (m *Machine) CycleLimit() uint64 {
	if m.cfg.MaxCycles == 0 {
		return 1 << 62
	}
	return m.cfg.MaxCycles
}

// Step advances the whole system one clock cycle under the given throttle
// and phantom request and returns the cycle's Observation. The returned
// pointer aims at a buffer Step reuses every cycle: read it before the
// next Step, copy it to retain it.
//
// The power model splits the cycle's energy per supply domain, each
// domain's draw (plus its budget-weighted share of any phantom current)
// drives the network, and each rail is checked against its own noise
// margin. A lumped or two-stage network is the one-domain case: the
// memoized single-rail power step stands in for the per-domain split,
// and the domain's draw equals the total current bit for bit (its
// phantom share is 1). The scalar Observation fields keep their
// aggregate meanings on every machine — TotalAmps is the summed draw,
// DeviationVolts the worst domain's deviation, SensedAmps the aggregate
// (or the SensorDomain rail's) reading — so domain-oblivious techniques
// keep working; domain-aware ones read Observation.PerDomain, which a
// multi-domain machine fills.
func (m *Machine) Step(throttle cpu.Throttle, ph Phantom) *Observation {
	act := &m.act
	m.core.StepInto(throttle, act)
	var coreAmps float64
	if m.nd == 1 {
		coreAmps = m.pwr.CurrentAmps(m.pwr.Step(act, 0))
		m.draws[0] = coreAmps
	} else {
		coreAmps = m.pwr.CurrentAmps(m.pwr.StepDomains(act, m.domJ))
		for d, j := range m.domJ {
			m.draws[d] = m.pwr.CurrentAmps(j)
		}
	}

	phantomAmps := 0.0
	switch {
	case ph.TargetAmps > 0 && coreAmps < ph.TargetAmps:
		phantomAmps = ph.TargetAmps - coreAmps
	case ph.FireAmps > 0:
		phantomAmps = ph.FireAmps
	}
	if phantomAmps > 0 {
		m.phantomJ += phantomAmps * m.cfg.Power.Vdd / m.cfg.Power.ClockHz
		for d := range m.draws {
			m.draws[d] += phantomAmps * m.domShare[d]
		}
	}
	totalAmps := coreAmps + phantomAmps
	m.net.Step(m.draws, m.devs)

	// Worst-domain deviation carries the scalar field; violations count
	// cycles on which any domain leaves its margin, so the aggregate
	// Result stays comparable across network kinds.
	worst, worstAbs := 0.0, -1.0
	violation := false
	for d := 0; d < m.nd; d++ {
		dev := m.devs[d]
		a := math.Abs(dev)
		if a > m.domPeak[d] {
			m.domPeak[d] = a
		}
		if a > m.margins[d] {
			m.domViol[d]++
			violation = true
		}
		if a > worstAbs {
			worstAbs, worst = a, dev
		}
		m.domSumAmps[d] += m.draws[d]
	}
	if worstAbs > m.peakDev {
		m.peakDev = worstAbs
	}
	if violation {
		m.violation++
	}

	est := 0.0
	for cl := cpu.Class(0); cl < cpu.NumClasses; cl++ {
		if n := act.Issued[cl]; n > 0 {
			est += float64(n) * m.classAmps[cl]
		}
	}
	m.obs = Observation{
		Cycle:          m.cycles,
		TotalAmps:      totalAmps,
		DeviationVolts: worst,
		Violation:      violation,
		IssuedEstAmps:  est,
		Activity:       act,
	}
	if m.bank != nil {
		for d := 0; d < m.nd; d++ {
			m.domObs.SensedAmps[d] = m.bank.Read(d, m.draws[d])
			m.domObs.Amps[d] = m.draws[d]
			m.domObs.DeviationVolts[d] = m.devs[d]
		}
		m.obs.PerDomain = &m.domObs
	}
	switch {
	case m.sensorDomain > 0:
		m.obs.SensedAmps = m.domObs.SensedAmps[m.sensorDomain-1]
	case m.sens != nil:
		m.obs.SensedAmps = m.sens.Read(totalAmps)
	case m.resolution > 0:
		// Same quantisation arithmetic as sensor.Current.Read, inlined
		// for the undelayed sensor the paper's evaluation uses.
		m.obs.SensedAmps = math.Round(totalAmps/m.resolution) * m.resolution
	default:
		m.obs.SensedAmps = totalAmps
	}

	m.sumAmps += totalAmps
	if totalAmps < m.minAmps {
		m.minAmps = totalAmps
	}
	if totalAmps > m.maxAmps {
		m.maxAmps = totalAmps
	}
	m.cycles++
	return &m.obs
}

// Network exposes the machine's power-delivery network.
func (m *Machine) Network() circuit.Network { return m.net }

// Domains returns the PDN's supply-domain count (one on lumped and
// two-stage machines).
func (m *Machine) Domains() int { return m.nd }

// DomainStat summarises one supply domain's run.
type DomainStat struct {
	// Name labels the domain (circuit.DomainInfo.Name).
	Name string
	// Violations counts cycles this domain left its noise margin.
	Violations uint64
	// PeakDeviationV is the domain's worst absolute deviation.
	PeakDeviationV float64
	// MeanAmps is the domain's average draw.
	MeanAmps float64
}

// DomainStats reports each supply domain's violation and current
// statistics; it returns nil on single-domain machines (the aggregate
// Result already tells the whole story there).
func (m *Machine) DomainStats() []DomainStat {
	if m.nd <= 1 {
		return nil
	}
	out := make([]DomainStat, m.nd)
	for d := 0; d < m.nd; d++ {
		out[d] = DomainStat{
			Name:           m.net.DomainInfo(d).Name,
			Violations:     m.domViol[d],
			PeakDeviationV: m.domPeak[d],
		}
		if m.cycles > 0 {
			out[d].MeanAmps = m.domSumAmps[d] / float64(m.cycles)
		}
	}
	return out
}

// Result summarises the run so far under the given labels. The Tech
// accounting is left zero; callers that ran a technique fill it in (see
// TechStatsOf).
func (m *Machine) Result(appName, techName string) Result {
	res := Result{
		App:            appName,
		Technique:      techName,
		Cycles:         m.cycles,
		Instructions:   m.core.Committed(),
		IPC:            m.core.IPC(),
		EnergyJ:        m.pwr.TotalJoules() + m.phantomJ,
		PhantomJ:       m.phantomJ,
		Violations:     m.violation,
		PeakDeviationV: m.peakDev,
	}
	if m.cycles > 0 {
		res.ViolationFraction = float64(m.violation) / float64(m.cycles)
		res.MeanAmps = m.sumAmps / float64(m.cycles)
		res.MinAmps = m.minAmps
		res.MaxAmps = m.maxAmps
	}
	return res
}

// TechStatsOf returns the controller accounting a technique reports, or a
// zero TechStats for techniques without any (and for the nil base
// technique).
func TechStatsOf(t Technique) TechStats {
	if ts, ok := t.(techStatser); ok {
		return ts.TechStats()
	}
	return TechStats{}
}
