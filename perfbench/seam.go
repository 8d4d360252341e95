package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/engine/batchkernel"
	"repro/internal/sensor"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The traced run is a seam replay. It records, for every spec a workload
// simulates, the traffic crossing each layer seam of the per-cycle loop
// — the technique's throttle/phantom decisions and the cycle's
// Observation (activity, core and per-domain currents, sensed amps,
// deviations) — and then replays each layer alone over its recorded
// input through that layer's public functions: cpu.Core.StepInto,
// power.Model.Step/StepDomains, circuit.Network.Step, sensor reads,
// Technique.Observe+Next, and sim.Machine.Step under the recorded
// decisions. Each replay must reproduce its recorded output bit for bit,
// so every per-layer time is known to time the real work. One span
// covers a whole replay loop: at 50–500 ns per call, reading the clock
// per call would swamp what it measures.
//
// Layers a workload's own specs never reach (the two-domain network on
// table3-cold, say) are probed instead, so every workload reports every
// per-layer metric: the benchmark records a spec that does reach the
// layer — the same application on that network, or under that technique
// in its default configuration — and replays the layer over that tape,
// checked bit for bit like every other replay. The report marks these
// metrics as probed: they time the layer's real work, but on specs the
// workload does not itself submit.

// traceSource describes what a workload's traced run measures.
type traceSource struct {
	// round runs one round of the workload's end-to-end work, untimed,
	// and returns the engine's counter deltas plus an engine whose
	// memory tier now holds every spec of corpus.
	round func() (engine.CacheStats, *engine.Engine, error)
	// corpus lists the specs the workload simulates; it is read after
	// round, which may extend it.
	corpus func() []engine.Spec
	// renders are the reports whose rendering cost is measured, over
	// renderEngine's memory-warm engine (the round's engine when nil).
	renders      []render
	renderEngine func() (*engine.Engine, error)
	// ref, when set, holds the reference digest of every corpus Result.
	ref map[string]string
	// diskDir is the workload's own disk tier (paper-warm); without one
	// the disk tier is probed with short copies of the corpus specs.
	diskDir string
}

// probeCycles is how many recorded cycles each off-path probe covers at
// least.
const probeCycles = 200_000

// probeInsts is the run length of the short spec copies that probe the
// disk tier, whose cost does not depend on it.
const probeInsts = 500

// decision is one cycle's technique output.
type decision struct {
	th cpu.Throttle
	ph sim.Phantom
}

// tape is one spec's recorded seam traffic.
type tape struct {
	nd  int
	dec []decision
	act []cpu.Activity
	obs []sim.Observation
	dom []float64 // per cycle: nd sensed, nd drawn, nd deviation values
	pd  []sim.DomainObservation
}

func (t *tape) reset(nd int) {
	t.nd = nd
	t.dec, t.act, t.obs, t.dom, t.pd = t.dec[:0], t.act[:0], t.obs[:0], t.dom[:0], t.pd[:0]
}

// seal points each recorded Observation at its own recorded buffers.
func (t *tape) seal() {
	for i := range t.obs {
		t.obs[i].Activity = &t.act[i]
	}
	if t.nd <= 1 {
		return
	}
	for i := range t.obs {
		row := t.dom[i*3*t.nd : (i+1)*3*t.nd]
		t.pd = append(t.pd, sim.DomainObservation{
			SensedAmps:     row[:t.nd],
			Amps:           row[t.nd : 2*t.nd],
			DeviationVolts: row[2*t.nd:],
		})
	}
	for i := range t.obs {
		t.obs[i].PerDomain = &t.pd[i]
	}
}

// recorder wraps a spec's technique and tapes every decision and
// observation that crosses it. A nil inner technique is the base
// machine: it decides exactly what the simulator decides without one.
type recorder struct {
	inner sim.Technique
	t     *tape
}

func (r *recorder) Name() string {
	if r.inner == nil {
		return string(engine.TechniqueNone)
	}
	return r.inner.Name()
}

func (r *recorder) Next() (cpu.Throttle, sim.Phantom) {
	th, ph := cpu.Unlimited, sim.Phantom{}
	if r.inner != nil {
		th, ph = r.inner.Next()
	}
	r.t.dec = append(r.t.dec, decision{th, ph})
	return th, ph
}

func (r *recorder) Observe(o *sim.Observation) {
	r.t.act = append(r.t.act, *o.Activity)
	c := *o
	c.Activity, c.PerDomain = nil, nil
	r.t.obs = append(r.t.obs, c)
	if pd := o.PerDomain; pd != nil {
		r.t.dom = append(r.t.dom, pd.SensedAmps...)
		r.t.dom = append(r.t.dom, pd.Amps...)
		r.t.dom = append(r.t.dom, pd.DeviationVolts...)
	}
	if r.inner != nil {
		r.inner.Observe(o)
	}
}

// TechStats forwards the wrapped technique's accounting into the Result.
func (r *recorder) TechStats() sim.TechStats { return sim.TechStatsOf(r.inner) }

// acc accumulates one layer's replay time over its replayed units.
type acc struct{ ns, n float64 }

func (a *acc) add(d time.Duration, n int) {
	a.ns += float64(d.Nanoseconds())
	a.n += float64(n)
}

func (a *acc) per() float64 {
	if a.n == 0 {
		return 0
	}
	return a.ns / a.n
}

// seam is the traced run's state.
type seam struct {
	b      *bench
	layers map[string]*acc // per-layer replay time per cycle (or per call)
	onPath map[string]bool // layers the workload's own specs exercise

	plain, recorded time.Duration // scalar runs without and with the recorder
	memo            struct{ hits, lookups uint64 }

	kernel        acc // batchkernel.Run time per machine step
	kernelGlue    float64
	kernelSteps   uint64
	laneCycles    uint64
	lanesForked   uint64
	cohortsForked uint64
	forkAt        map[int][]uint64 // corpus index → cycles its lane was forked at
	kernelRes     map[int]sim.Result
	stepsOf       map[int]uint64 // first corpus index of a lane group → its machine steps
	ref           map[string]string

	t                       tape
	outAct                  []cpu.Activity
	outF, outG              []float64
	outDec                  []decision
	outObs                  []sim.Observation
	probed                  map[string]int // cycles each probed layer has covered (a probed fork counts 1)
	specMachine, specTechNs map[int]float64
}

func (s *seam) layer(name string) *acc {
	a, ok := s.layers[name]
	if !ok {
		a = &acc{}
		s.layers[name] = a
	}
	return a
}

// traceRun runs the seam replay for src and records every per-layer
// metric.
func (b *bench) traceRun(src traceSource) error {
	var m0 [2]metrics.Sample
	m0[0].Name, m0[1].Name = "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"
	m1 := m0
	runtime.GC()
	metrics.Read(m0[:])
	t0 := time.Now()
	stats, eng, err := src.round()
	e2e := time.Since(t0)
	metrics.Read(m1[:])
	if err != nil {
		return err
	}
	report("trace.e2e_round_s", e2e.Seconds(), "s", "one untraced round of the workload, for scale")
	b.set("runtime.alloc_mb", float64(m1[0].Value.Uint64()-m0[0].Value.Uint64())/(1<<20), "MB")
	b.set("runtime.gc_cycles", float64(m1[1].Value.Uint64()-m0[1].Value.Uint64()), "count")
	b.set("engine.hits", float64(stats.Hits), "count")
	b.set("engine.disk_hits", float64(stats.DiskHits), "count")
	b.set("engine.misses", float64(stats.Misses), "count")

	corpus := src.corpus()
	s := &seam{
		b:           b,
		layers:      map[string]*acc{},
		onPath:      map[string]bool{},
		forkAt:      map[int][]uint64{},
		kernelRes:   map[int]sim.Result{},
		stepsOf:     map[int]uint64{},
		ref:         src.ref,
		probed:      map[string]int{},
		specMachine: map[int]float64{},
		specTechNs:  map[int]float64{},
	}
	if err := s.materialize(corpus); err != nil {
		return err
	}
	for _, sp := range corpus {
		layers, err := layersOf(sp)
		if err != nil {
			return err
		}
		for _, l := range layers {
			s.onPath[l] = true
		}
	}
	groups, err := machineGroups(corpus)
	if err != nil {
		return err
	}
	for _, g := range groups {
		if len(g) > 1 {
			if err := s.runKernel(corpus, g); err != nil {
				return err
			}
		}
	}
	for i, spec := range corpus {
		if err := s.replaySpec(i, spec); err != nil {
			return fmt.Errorf("%s: %w", label(spec), err)
		}
	}
	s.kernelGlueFrom(groups)
	if err := s.serviceProbes(src, eng, corpus); err != nil {
		return err
	}
	s.emit()
	return nil
}

// materialize times the trace store's materialization of every distinct
// stream of the corpus, outside the store.
func (s *seam) materialize(corpus []engine.Spec) error {
	type key struct {
		p workload.Params
		n uint64
	}
	seen := map[key]bool{}
	var a acc
	var bytes uint64
	for _, sp := range corpus {
		p, n, err := streamOf(sp)
		if err != nil {
			return err
		}
		if seen[key{p, n}] {
			continue
		}
		seen[key{p, n}] = true
		t0 := time.Now()
		tr := workload.Materialize(p, n)
		a.add(time.Since(t0), int(n))
		bytes += tr.SizeBytes()
	}
	s.b.set("workload.materialize_ns_per_inst", a.per(), "ns")
	s.b.set("workload.trace_bytes", float64(bytes), "bytes")
	return nil
}

// system resolves the simulated system a spec runs on.
func system(sp engine.Spec) sim.Config {
	cfg := sim.DefaultConfig()
	if sp.System != nil {
		cfg = *sp.System
	}
	if sp.PDN != nil {
		p := *sp.PDN
		cfg.PDN = &p
	}
	return cfg
}

// source returns a fresh instruction cursor for the spec's stream.
func source(sp engine.Spec) (cpu.Source, error) {
	p, n, err := streamOf(sp)
	if err != nil {
		return nil, err
	}
	return workload.SharedTraces().Source(p, n), nil
}

// appName is the label the engine gives a spec's results.
func appName(sp engine.Spec) string {
	if sp.App == "" && sp.Workload != nil {
		return sp.Workload.Name
	}
	return sp.App
}

func kindOf(sp engine.Spec) engine.TechniqueKind {
	if sp.Technique == "" {
		return engine.TechniqueNone
	}
	return sp.Technique
}

// template builds an unstepped machine for cfg, whose components are
// forked to obtain fresh, identically configured layers.
func template(cfg sim.Config, sp engine.Spec) (*sim.Machine, error) {
	src, err := source(sp)
	if err != nil {
		return nil, err
	}
	return sim.NewMachine(cfg, src)
}

// layersOf lists the replayed layers a spec's simulation exercises,
// besides the core and the machine step, which every spec does.
func layersOf(sp engine.Spec) ([]string, error) {
	cfg := system(sp)
	m, err := template(cfg, sp)
	if err != nil {
		return nil, err
	}
	layers := []string{"circuit." + m.Network().Kind()}
	if m.Domains() > 1 {
		layers = append(layers, "power.step_domains", "sensor.read")
	} else {
		layers = append(layers, "power.step")
		if cfg.SensorDelayCycles > 0 {
			layers = append(layers, "sensor.read")
		}
	}
	if k := kindOf(sp); k != engine.TechniqueNone {
		layers = append(layers, "technique."+string(k))
	}
	return layers, nil
}

// machineGroups partitions corpus indices by MachineKey in first
// appearance order, exactly as the engine packs a batch into lockstep
// lane groups.
func machineGroups(corpus []engine.Spec) ([][]int, error) {
	pos := map[engine.Key]int{}
	var groups [][]int
	for i, sp := range corpus {
		k, err := sp.MachineKey()
		if err != nil {
			return nil, err
		}
		if g, ok := pos[k]; ok {
			groups[g] = append(groups[g], i)
			continue
		}
		pos[k] = len(groups)
		groups = append(groups, []int{i})
	}
	return groups, nil
}

// runKernel times one lane group through batchkernel.Run, as the engine
// runs it, and keeps each lane's Result and first fork cycle.
func (s *seam) runKernel(corpus []engine.Spec, g []int) error {
	lanes := make([]batchkernel.Lane, len(g))
	for li, i := range g {
		tech, _, err := engine.BuildTechnique(corpus[i])
		if err != nil {
			return err
		}
		name := string(engine.TechniqueNone)
		if tech != nil {
			name = tech.Name()
		}
		lanes[li] = batchkernel.Lane{Tech: tech, TechName: name}
	}
	m, err := template(system(corpus[g[0]]), corpus[g[0]])
	if err != nil {
		return err
	}
	t0 := time.Now()
	outs, st := batchkernel.Run(m, appName(corpus[g[0]]), lanes)
	s.kernel.add(time.Since(t0), int(st.Steps))
	s.kernelSteps += st.Steps
	s.lanesForked += st.LanesForked
	s.cohortsForked += st.CohortsForked
	s.stepsOf[g[0]] = st.Steps
	for li, o := range outs {
		i := g[li]
		if o.Status != batchkernel.Finished {
			s.b.check(false, "%s: lane %s at cycle %d", label(corpus[i]), o.Status, o.DivergedAt)
			continue
		}
		s.kernelRes[i] = o.Result
		s.laneCycles += o.Result.Cycles
		if o.Forks > 0 {
			s.forkAt[i] = append(s.forkAt[i], o.FirstForkAt)
		}
	}
	return nil
}

// replaySpec records spec i's seam traffic and replays every layer of it.
func (s *seam) replaySpec(i int, sp engine.Spec) error {
	cfg := system(sp)
	name := string(engine.TechniqueNone)

	// The plain scalar run: the traced run's untraced reference.
	tech, _, err := engine.BuildTechnique(sp)
	if err != nil {
		return err
	}
	if tech != nil {
		name = tech.Name()
	}
	src, err := source(sp)
	if err != nil {
		return err
	}
	sm, err := sim.New(cfg, src, tech)
	if err != nil {
		return err
	}
	t0 := time.Now()
	plain := sm.Run(appName(sp), name)
	s.plain += time.Since(t0)

	res, d, err := s.record(sp, cfg)
	if err != nil {
		return err
	}
	s.recorded += d
	s.b.check(res == plain, "%s: recording changed the Result", label(sp))
	if s.ref != nil {
		k, err := sp.Key()
		if err != nil {
			return err
		}
		s.b.check(s.ref[k.Hex()] == digest(plain), "%s: result digest differs from reference.json", label(sp))
	}
	if kr, ok := s.kernelRes[i]; ok {
		s.b.check(kr == plain, "%s: lockstep lane Result differs from the scalar run", label(sp))
	}

	n := len(s.t.obs)
	s.grow(n)
	tmpl, err := template(cfg, sp)
	if err != nil {
		return err
	}
	layerNs := 0.0
	for _, f := range []func(*sim.Machine, sim.Config) (string, time.Duration, error){
		s.replayCPU, s.replayPower, s.replayCircuit, s.replaySensor,
	} {
		name, d, err := f(tmpl, cfg)
		if err != nil {
			return err
		}
		if name != "" {
			s.layer(name).add(d, n)
			layerNs += float64(d.Nanoseconds())
		}
	}
	if err := s.checkEnergy(tmpl, cfg, res); err != nil {
		return err
	}
	if d, ok, err := s.replayTechnique(sp); err != nil {
		return err
	} else if ok {
		s.layer("technique."+string(kindOf(sp))).add(d, n)
		s.specTechNs[i] = float64(d.Nanoseconds())
	}
	forks := s.forkAt[i]
	if i == 0 && s.lanesForked == 0 {
		forks = []uint64{uint64(n / 2)} // no lane forked: probe one fork
		s.probed["sim.fork"] = 1
	}
	if d, err = s.replayMachine(sp, cfg, res, forks); err != nil {
		return err
	}
	s.layer("sim.machine_step").add(d, n)
	s.layer("sim.glue").add(d-time.Duration(layerNs), n)
	s.specMachine[i] = float64(d.Nanoseconds()) / float64(n)
	return s.probe(sp)
}

// record runs sp with the recorder around its technique, which tapes the
// run's seam traffic into s.t, and returns its Result and host time.
func (s *seam) record(sp engine.Spec, cfg sim.Config) (sim.Result, time.Duration, error) {
	tech, _, err := engine.BuildTechnique(sp)
	if err != nil {
		return sim.Result{}, 0, err
	}
	name := string(engine.TechniqueNone)
	if tech != nil {
		name = tech.Name()
	}
	src, err := source(sp)
	if err != nil {
		return sim.Result{}, 0, err
	}
	sm, err := sim.New(cfg, src, &recorder{inner: tech, t: &s.t})
	if err != nil {
		return sim.Result{}, 0, err
	}
	s.t.reset(sm.Machine().Domains())
	t0 := time.Now()
	res := sm.Run(appName(sp), name)
	d := time.Since(t0)
	s.t.seal()
	return res, d, nil
}

func (s *seam) grow(n int) {
	if cap(s.outAct) < n {
		s.outAct = make([]cpu.Activity, n)
		s.outDec = make([]decision, n)
		s.outObs = make([]sim.Observation, n)
	}
	if cap(s.outF) < 4*n {
		s.outF = make([]float64, 4*n)
		s.outG = make([]float64, 4*n)
	}
}

// replayCPU steps a fresh core under the recorded throttles.
func (s *seam) replayCPU(tmpl *sim.Machine, _ sim.Config) (string, time.Duration, error) {
	core, err := tmpl.Core().Fork()
	if err != nil {
		return "", 0, err
	}
	t, out := &s.t, s.outAct[:len(s.t.act)]
	t0 := time.Now()
	for i := range out {
		core.StepInto(t.dec[i].th, &out[i])
	}
	d := time.Since(t0)
	for i := range out {
		if out[i] != t.act[i] {
			return "", 0, fmt.Errorf("cpu replay: activity differs at cycle %d", i)
		}
	}
	return "cpu.step", d, nil
}

// phantomAmps is the machine's phantom-current rule for one cycle.
func phantomAmps(ph sim.Phantom, coreAmps float64) float64 {
	switch {
	case ph.TargetAmps > 0 && coreAmps < ph.TargetAmps:
		return ph.TargetAmps - coreAmps
	case ph.FireAmps > 0:
		return ph.FireAmps
	}
	return 0
}

// replayPower steps a fresh power model over the recorded activity and
// checks the core current it implies (plus the recorded phantom request)
// against every recorded draw.
func (s *seam) replayPower(tmpl *sim.Machine, _ sim.Config) (string, time.Duration, error) {
	pm := tmpl.Power().Fork()
	t, nd := &s.t, s.t.nd
	n := len(t.act)
	out := s.outF[:n]
	var d time.Duration
	name := "power.step"
	if nd <= 1 {
		t0 := time.Now()
		for i := range out {
			out[i] = pm.Step(&t.act[i], 0)
		}
		d = time.Since(t0)
	} else {
		name = "power.step_domains"
		dom := s.outG[:n*nd]
		t0 := time.Now()
		for i := range out {
			out[i] = pm.StepDomains(&t.act[i], dom[i*nd:(i+1)*nd])
		}
		d = time.Since(t0)
		for i := range out {
			ph := phantomAmps(t.dec[i].ph, pm.CurrentAmps(out[i]))
			for k := 0; k < nd; k++ {
				if pm.CurrentAmps(dom[i*nd+k])+ph*pm.DomainShare(k) != t.pd[i].Amps[k] {
					return "", 0, fmt.Errorf("power replay: domain %d draw differs at cycle %d", k, i)
				}
			}
		}
	}
	for i := range out {
		core := pm.CurrentAmps(out[i])
		if core+phantomAmps(t.dec[i].ph, core) != t.obs[i].TotalAmps {
			return "", 0, fmt.Errorf("power replay: current differs at cycle %d", i)
		}
	}
	st := pm.MemoStats()
	s.memo.hits += st.Hits
	s.memo.lookups += st.Lookups()
	return name, d, nil
}

// checkEnergy recomputes the run's energy from the power replay: the
// model's total plus the recorded phantom energy must equal the Result.
func (s *seam) checkEnergy(tmpl *sim.Machine, cfg sim.Config, res sim.Result) error {
	pm := tmpl.Power().Fork()
	t := &s.t
	phantomJ := 0.0
	dom := make([]float64, max(t.nd, 1))
	for i := range t.act {
		var j float64
		if t.nd > 1 {
			j = pm.StepDomains(&t.act[i], dom)
		} else {
			j = pm.Step(&t.act[i], 0)
		}
		if ph := phantomAmps(t.dec[i].ph, pm.CurrentAmps(j)); ph > 0 {
			phantomJ += ph * cfg.Power.Vdd / cfg.Power.ClockHz
		}
	}
	if pm.TotalJoules()+phantomJ != res.EnergyJ || phantomJ != res.PhantomJ {
		return fmt.Errorf("power replay: energy %.9g J differs from the Result's %.9g J", pm.TotalJoules()+phantomJ, res.EnergyJ)
	}
	return nil
}

// replayCircuit steps a fresh network over the recorded draws.
func (s *seam) replayCircuit(tmpl *sim.Machine, _ sim.Config) (string, time.Duration, error) {
	net := tmpl.Network().Fork()
	t, nd := &s.t, s.t.nd
	n := len(t.obs)
	var d time.Duration
	if nd <= 1 {
		in, dev := make([]float64, 1), make([]float64, 1)
		out := s.outF[:n]
		t0 := time.Now()
		for i := range out {
			in[0] = t.obs[i].TotalAmps
			net.Step(in, dev)
			out[i] = dev[0]
		}
		d = time.Since(t0)
		for i := range out {
			if out[i] != t.obs[i].DeviationVolts {
				return "", 0, fmt.Errorf("circuit replay: deviation differs at cycle %d", i)
			}
		}
	} else {
		out := s.outF[:n*nd]
		t0 := time.Now()
		for i := 0; i < n; i++ {
			net.Step(t.pd[i].Amps, out[i*nd:(i+1)*nd])
		}
		d = time.Since(t0)
		for i := 0; i < n; i++ {
			for k := 0; k < nd; k++ {
				if out[i*nd+k] != t.pd[i].DeviationVolts[k] {
					return "", 0, fmt.Errorf("circuit replay: domain %d deviation differs at cycle %d", k, i)
				}
			}
		}
	}
	return "circuit." + net.Kind(), d, nil
}

// resolution is the machine's sensor quantisation step for cfg.
func resolution(cfg sim.Config) float64 {
	switch {
	case cfg.SensorResolutionAmps > 0:
		return cfg.SensorResolutionAmps
	case cfg.SensorResolutionAmps < 0:
		return 0
	}
	return 1
}

// replaySensor reads fresh sensors over the recorded draws, where the
// machine reads the sensor package: the per-rail bank of a multi-domain
// PDN, or a delayed core sensor.
func (s *seam) replaySensor(_ *sim.Machine, cfg sim.Config) (string, time.Duration, error) {
	t, nd := &s.t, s.t.nd
	n := len(t.obs)
	switch {
	case nd > 1:
		bank := sensor.NewBank(nd, resolution(cfg), cfg.SensorDelayCycles)
		out := s.outF[:n*nd]
		t0 := time.Now()
		for i := 0; i < n; i++ {
			for k := 0; k < nd; k++ {
				out[i*nd+k] = bank.Read(k, t.pd[i].Amps[k])
			}
		}
		d := time.Since(t0)
		for i := 0; i < n; i++ {
			for k := 0; k < nd; k++ {
				if out[i*nd+k] != t.pd[i].SensedAmps[k] {
					return "", 0, fmt.Errorf("sensor replay: domain %d reading differs at cycle %d", k, i)
				}
			}
		}
		return "sensor.read", d, nil
	case cfg.SensorDelayCycles > 0:
		c := sensor.NewCurrentDelayed(cfg.SensorDelayCycles)
		c.ResolutionAmps = resolution(cfg)
		out := s.outF[:n]
		t0 := time.Now()
		for i := range out {
			out[i] = c.Read(t.obs[i].TotalAmps)
		}
		d := time.Since(t0)
		for i := range out {
			if out[i] != t.obs[i].SensedAmps {
				return "", 0, fmt.Errorf("sensor replay: reading differs at cycle %d", i)
			}
		}
		return "sensor.read", d, nil
	}
	return "", 0, nil
}

// replayTechnique drives a fresh technique over the recorded
// observations and checks it re-derives every recorded decision.
func (s *seam) replayTechnique(sp engine.Spec) (time.Duration, bool, error) {
	tech, _, err := engine.BuildTechnique(sp)
	if err != nil || tech == nil {
		return 0, false, err
	}
	t := &s.t
	out := s.outDec[:len(t.obs)]
	t0 := time.Now()
	for i := range out {
		th, ph := tech.Next()
		out[i] = decision{th, ph}
		tech.Observe(&t.obs[i])
	}
	d := time.Since(t0)
	for i := range out {
		if out[i] != t.dec[i] {
			return 0, false, fmt.Errorf("technique replay: decision differs at cycle %d", i)
		}
	}
	return d, true, nil
}

// replayMachine steps a fresh machine under the recorded decisions,
// forking it (timed per fork) at the cycles where the lockstep kernel
// forked this spec's lane.
func (s *seam) replayMachine(sp engine.Spec, cfg sim.Config, res sim.Result, forks []uint64) (time.Duration, error) {
	m, err := template(cfg, sp)
	if err != nil {
		return 0, err
	}
	t := &s.t
	out := s.outObs[:len(t.obs)]
	fi := 0
	var forkTime time.Duration
	t0 := time.Now()
	for i := range out {
		if fi < len(forks) && forks[fi] == uint64(i) {
			f0 := time.Now()
			_, err := m.Fork()
			fd := time.Since(f0)
			if err != nil {
				return 0, err
			}
			forkTime += fd
			s.layer("sim.fork").add(fd, 1)
			fi++
		}
		out[i] = *m.Step(t.dec[i].th, t.dec[i].ph)
	}
	d := time.Since(t0) - forkTime
	for i := range out {
		o, w := out[i], t.obs[i]
		if o.Cycle != w.Cycle || o.TotalAmps != w.TotalAmps || o.DeviationVolts != w.DeviationVolts ||
			o.SensedAmps != w.SensedAmps || o.IssuedEstAmps != w.IssuedEstAmps {
			return 0, fmt.Errorf("machine replay: observation differs at cycle %d", i)
		}
	}
	got := m.Result(res.App, res.Technique)
	got.Tech = res.Tech
	if got != res {
		return 0, fmt.Errorf("machine replay: Result differs")
	}
	return d, nil
}

// probeSpecs are the specs whose simulations reach each layer a
// workload may leave off its path: sp's application on every network
// kind, and under every technique kind in its default configuration, on
// the network the serving population runs that kind on.
func probeSpecs(sp engine.Spec) []engine.Spec {
	base := engine.Spec{App: sp.App, Workload: sp.Workload, Instructions: sp.Instructions}
	var out []engine.Spec
	for _, kind := range []string{circuit.NetworkLumped, circuit.NetworkTwoStage, circuit.NetworkMultiDomain} {
		p := base
		p.PDN = &circuit.NetworkConfig{Kind: kind}
		out = append(out, p)
	}
	for _, kind := range engine.Kinds() {
		if kind == engine.TechniqueNone {
			continue
		}
		p := base
		p.Technique = kind
		for _, k := range serveKinds {
			if k.kind == kind && k.pdn != "" {
				p.PDN = &circuit.NetworkConfig{Kind: k.pdn}
			}
		}
		out = append(out, p)
	}
	return out
}

// probe covers the layers the workload's own specs never reach: for each
// one that has not yet covered probeCycles cycles, it records a probe
// spec of sp's application that reaches the layer and replays the layer
// over that tape, which must reproduce it bit for bit.
func (s *seam) probe(sp engine.Spec) error {
	want := func(layer string) bool { return !s.onPath[layer] && s.probed[layer] < probeCycles }
	memo := s.memo // probe traffic does not count toward the workload's memo
	defer func() { s.memo = memo }()
	for _, p := range probeSpecs(sp) {
		layers, err := layersOf(p)
		if err != nil {
			return err
		}
		if !slices.ContainsFunc(layers, want) {
			continue
		}
		cfg := system(p)
		if _, _, err := s.record(p, cfg); err != nil {
			return err
		}
		n := len(s.t.obs)
		s.grow(n)
		tmpl, err := template(cfg, p)
		if err != nil {
			return err
		}
		for _, f := range []func(*sim.Machine, sim.Config) (string, time.Duration, error){
			s.replayPower, s.replayCircuit, s.replaySensor,
		} {
			name, d, err := f(tmpl, cfg)
			if err != nil {
				return fmt.Errorf("%s probe: %w", label(p), err)
			}
			if name != "" && want(name) {
				s.layer(name).add(d, n)
				s.probed[name] += n
			}
		}
		if layer := "technique." + string(kindOf(p)); want(layer) {
			d, ok, err := s.replayTechnique(p)
			if err != nil {
				return fmt.Errorf("%s probe: %w", label(p), err)
			}
			if ok {
				s.layer(layer).add(d, n)
				s.probed[layer] += n
			}
		}
	}
	return nil
}

// kernelGlueFrom derives the kernel's own per-step cost: its time minus
// the machine steps (at each group's replayed machine cost per cycle)
// and minus every lane's technique time.
func (s *seam) kernelGlueFrom(groups [][]int) {
	rest := s.kernel.ns
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		var machine, cycles float64
		for _, i := range g {
			c := float64(s.kernelRes[i].Cycles)
			machine += s.specMachine[i] * c
			cycles += c
			rest -= s.specTechNs[i]
		}
		// The group's steps ran at its lanes' mean machine cost.
		if cycles > 0 {
			rest -= machine / cycles * float64(s.stepsOf[g[0]])
		}
	}
	if s.kernelSteps > 0 {
		s.kernelGlue = rest / float64(s.kernelSteps)
	}
}

// serviceProbes measures the request-path layers over the corpus: content
// keying, memory-tier hits, the HTTP handler, the disk tier, and report
// rendering.
func (s *seam) serviceProbes(src traceSource, eng *engine.Engine, corpus []engine.Spec) error {
	ctx := context.Background()
	keys, err := specKeys(corpus)
	if err != nil {
		return err
	}
	reps := max(1, 20_000/len(corpus))
	calls := float64(reps * len(corpus))

	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, sp := range corpus {
			sp.Key()
		}
	}
	keyUs := us(time.Since(t0)) / calls

	before := eng.CacheStats()
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for i, sp := range corpus {
			eng.RunKeyed(ctx, keys[i], sp)
		}
	}
	hitUs := us(time.Since(t0)) / calls
	after := eng.CacheStats()
	s.b.check(after.Misses == before.Misses && after.Hits-before.Hits == uint64(calls),
		"memory-tier probe: %d misses, %d hits for %.0f calls", after.Misses-before.Misses, after.Hits-before.Hits, calls)

	h := server.New(server.Options{Engine: eng}).Handler()
	bodies := make([][]byte, len(corpus))
	for i, sp := range corpus {
		r, err := newRequest(sp, false)
		if err != nil {
			return err
		}
		bodies[i] = r.body
	}
	w := &respWriter{h: http.Header{}}
	var handler time.Duration
	reqs := make([]*http.Request, len(corpus))
	for r := 0; r < reps; r++ {
		for i, body := range bodies {
			if reqs[i], err = http.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)); err != nil {
				return err
			}
		}
		bad := 0
		t0 := time.Now()
		for _, req := range reqs {
			w.reset()
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				bad++
			}
		}
		handler += time.Since(t0)
		s.b.check(bad == 0, "handler probe: %d non-200 responses", bad)
	}
	handlerUs := us(handler) / calls
	s.b.set("engine.key_us", keyUs, "us")
	s.b.set("engine.mem_hit_us", hitUs, "us")
	s.b.set("server.handler_us", handlerUs, "us")
	s.b.set("server.self_us", handlerUs-keyUs-hitUs, "us")

	if err := s.diskProbes(src, corpus); err != nil {
		return err
	}

	reng := eng
	if src.renderEngine != nil {
		if reng, err = src.renderEngine(); err != nil {
			return err
		}
	}
	before = reng.CacheStats()
	t0 = time.Now()
	for _, r := range src.renders {
		if _, err := runReport(reng, r); err != nil {
			return err
		}
	}
	d := time.Since(t0)
	after = reng.CacheStats()
	s.b.check(after.Misses == before.Misses, "render probe simulated %d specs", after.Misses-before.Misses)
	engineUs := float64(after.Hits-before.Hits) * hitUs
	s.b.set("experiments.render_ms", (us(d)-engineUs)/1e3/float64(len(src.renders)), "ms")
	return nil
}

// diskProbes measures the disk tier: hits on the workload's own tier
// when it has one, and writes (plus hits, without a tier of its own)
// with short copies of the corpus specs, whose disk entries are the same
// size. A write costs the difference between a cold batch on an engine
// with a disk tier and the same batch without one; each side keeps the
// faster of two runs.
func (s *seam) diskProbes(src traceSource, corpus []engine.Spec) error {
	ctx := context.Background()
	short := make([]engine.Spec, len(corpus))
	for i, sp := range corpus {
		sp.Instructions = probeInsts
		short[i] = sp
	}
	if err := warmTraces(short); err != nil {
		return err
	}
	batch := func(dir string) (time.Duration, engine.CacheStats, error) {
		eng := engine.New(engine.Options{Parallelism: 1, DiskCacheDir: dir})
		t0 := time.Now()
		_, err := eng.RunAll(ctx, short, nil)
		return time.Since(t0), eng.CacheStats(), err
	}
	var plain, written time.Duration
	var dir string
	var writes uint64
	for r := 0; r < 2; r++ {
		d, _, err := batch("")
		if err != nil {
			return err
		}
		if r == 0 || d < plain {
			plain = d
		}
		if dir, err = os.MkdirTemp(s.b.work, "probe-"); err != nil {
			return err
		}
		d, st, err := batch(dir)
		if err != nil {
			return err
		}
		if r == 0 || d < written {
			written = d
		}
		writes = st.DiskWrites
	}
	s.b.check(writes > 0, "disk probe wrote nothing")
	s.b.set("engine.disk_write_us", us(written-plain)/float64(max(writes, 1)), "us")

	hitDir := dir
	hitSpecs := short
	if src.diskDir != "" {
		hitDir, hitSpecs = src.diskDir, corpus
	}
	eng := engine.New(engine.Options{Parallelism: 1, DiskCacheDir: hitDir})
	t0 := time.Now()
	_, err := eng.RunAll(ctx, hitSpecs, nil)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	st := eng.CacheStats()
	s.b.check(st.Misses == 0 && st.DiskHits > 0, "disk-hit probe: %d misses, %d disk hits", st.Misses, st.DiskHits)
	s.b.set("engine.disk_hit_us", us(d)/float64(max(st.DiskHits, 1)), "us")
	return nil
}

// warmTraces materializes the specs' streams into the shared store
// without evicting what it already holds.
func warmTraces(specs []engine.Spec) error {
	for _, sp := range specs {
		p, n, err := streamOf(sp)
		if err != nil {
			return err
		}
		workload.SharedTraces().Get(p, n)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// emit records every per-layer metric.
func (s *seam) emit() {
	set, ns := s.b.set, func(layer string) float64 { return s.layer(layer).per() }
	set("cpu.step_ns_per_cycle", ns("cpu.step"), "ns")
	set("power.step_ns_per_cycle", ns("power.step"), "ns")
	set("power.step_domains_ns_per_cycle", ns("power.step_domains"), "ns")
	set("power.memo_lookups", float64(s.memo.lookups), "count")
	set("power.memo_hit_ratio", float64(s.memo.hits)/float64(max(s.memo.lookups, 1)), "ratio")
	for _, kind := range []string{circuit.NetworkLumped, circuit.NetworkTwoStage, circuit.NetworkMultiDomain} {
		set("circuit."+kind+"_ns_per_cycle", ns("circuit."+kind), "ns")
	}
	set("sensor.read_ns_per_cycle", ns("sensor.read"), "ns")
	for _, kind := range engine.Kinds() {
		if kind != engine.TechniqueNone {
			set("technique."+string(kind)+"_ns_per_cycle", ns("technique."+string(kind)), "ns")
		}
	}
	set("sim.machine_step_ns_per_cycle", ns("sim.machine_step"), "ns")
	set("sim.glue_ns_per_cycle", ns("sim.glue"), "ns")
	set("sim.fork_us", ns("sim.fork")/1e3, "us")
	set("batchkernel.ns_per_step", s.kernel.per(), "ns")
	set("batchkernel.glue_ns_per_step", s.kernelGlue, "ns")
	set("batchkernel.sharing_factor", float64(s.laneCycles)/float64(max(s.kernelSteps, 1)), "ratio")
	set("batchkernel.steps", float64(s.kernelSteps), "count")
	set("batchkernel.lanes_forked", float64(s.lanesForked), "count")
	set("batchkernel.cohorts_forked", float64(s.cohortsForked), "count")
	set("trace.overhead_pct", 100*(s.recorded-s.plain).Seconds()/s.plain.Seconds(), "%")
	for _, name := range sortedKeys(s.b.metrics) {
		m := s.b.metrics[name]
		note := ""
		if s.probed[strings.TrimSuffix(strings.TrimSuffix(name, "_ns_per_cycle"), "_us")] > 0 {
			note = "probed: the workload never reaches this layer"
		}
		report(name, m.Value, m.Unit, note)
	}
}
