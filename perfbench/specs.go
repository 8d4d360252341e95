package main

import (
	"math"

	"repro/internal/baselines/convctl"
	"repro/internal/baselines/voltctl"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// The spec sets below restate, through public constructors only, the
// specs the experiments package submits for Table 3 and the related,
// lowfreq and multidomain reports. They are not trusted: every cold run
// renders the real experiments over the engine that just ran these
// specs and requires zero new misses and zero new cache entries, so a
// drift between this file and internal/experiments fails the benchmark
// instead of silently measuring different work.

// table3Specs is Table 3's set: every application under the base
// machine and the six resonance-tuning variants (initial response
// 75..200 cycles, plus 100 cycles behind a 5-cycle response delay),
// in the order experiments.Table3 submits them.
func table3Specs(insts uint64) []engine.Spec {
	type sweep struct{ initial, delay int }
	sweeps := []sweep{{75, 0}, {100, 0}, {125, 0}, {150, 0}, {200, 0}, {100, 5}}
	variants := []engine.Spec{{}}
	for _, sw := range sweeps {
		cfg := engine.DefaultTuningConfig(sw.initial)
		cfg.ResponseDelayCycles = sw.delay
		variants = append(variants, engine.Spec{Technique: engine.TechniqueTuning, Tuning: &cfg})
	}
	var specs []engine.Spec
	for _, v := range variants {
		for _, name := range workload.Names() {
			s := v
			s.App = name
			s.Instructions = insts
			specs = append(specs, s)
		}
	}
	return specs
}

// relatedApps is the frequently violating subset the related-work
// comparison runs on.
var relatedApps = []string{"lucas", "swim", "bzip", "parser"}

// relatedSpecs is the related-work comparison: the base machine and six
// technique configurations over relatedApps.
func relatedSpecs(insts uint64) []engine.Spec {
	supply := circuit.Table1()
	paperCfg := engine.DefaultTuningConfig(100)
	paperCfg.PhantomTargetAmps = 0 // resolved to the mid current level
	voltCfg := voltctl.Config{TargetThresholdVolts: 0.020, SensorNoiseVolts: 0.010, SensorDelayCycles: 5, Seed: 777}
	dampCfg := engine.DampingConfig{WindowCycles: 50, DeltaAmps: 16, Scale: 0.5}
	convPerfect := convctl.Config{Supply: supply}
	convNoisy := convctl.Config{Supply: supply, EstimateErrorAmps: 10, Seed: 99}
	techs := []engine.Spec{
		{},
		{Technique: engine.TechniqueTuning, Tuning: &paperCfg},
		{Technique: engine.TechniqueVoltageControl, VoltageControl: &voltCfg},
		{Technique: engine.TechniqueDamping, Damping: &dampCfg},
		{Technique: engine.TechniqueConvolution, Convolution: &convPerfect},
		{Technique: engine.TechniqueConvolution, Convolution: &convNoisy},
		{Technique: engine.TechniqueWavelet},
	}
	var specs []engine.Spec
	for _, t := range techs {
		for _, app := range relatedApps {
			s := t
			s.App = app
			s.Instructions = insts
			specs = append(specs, s)
		}
	}
	return specs
}

// lowFreqSpecs is Section 2.2's demonstration on the two-stage supply: a
// workload oscillating at the low-frequency resonance under the base
// machine, medium-band tuning, and dual-band tuning.
func lowFreqSpecs(insts uint64) []engine.Spec {
	supply := circuit.Table1TwoStage()
	lowPeak, _ := supply.Peaks()
	lowPeriod := supply.ClockHz / supply.LowStage().ResonantFrequency()
	app := workload.Params{
		Name: "lowosc", Seed: 42,
		Mix:     workload.Mix{IntALU: 0.5, FPALU: 0.15, Load: 0.22, Store: 0.08, Branch: 0.05},
		DepProb: 0.55, DepMean: 4,
		MispredictRate: 0.005, L1MissRate: 0.002, L2MissRate: 0.1,
		Burst: workload.Burst{
			Enabled:     true,
			BurstInsts:  int(1.6*lowPeriod/2) * 5,
			StallMisses: int(1.6 * lowPeriod / 2 / 90),
			StallLevel:  cpu.MemMain,
			JitterFrac:  0.05,
			EpisodeProb: 0.033, EpisodeLen: 8,
			EpisodeBurstInsts:  int(lowPeriod/2) * 5,
			EpisodeStallMisses: int(lowPeriod / 2 / 90),
		},
	}
	cfg := sim.DefaultConfig()
	cfg.TwoStageSupply = &supply

	const factor = 25
	lowHalf := int(math.Round(lowPeriod / 2 / factor))
	medium := engine.DefaultTuningConfig(100)
	low := tuning.Config{
		Detector: tuning.DetectorConfig{
			HalfPeriodLo:           lowHalf * 8 / 10,
			HalfPeriodHi:           lowHalf * 12 / 10,
			ThresholdAmps:          math.Floor(supply.NoiseMarginVolts() / lowPeak.Ohms),
			MaxRepetitionTolerance: 4,
		},
		InitialResponseThreshold: 2,
		SecondResponseThreshold:  3,
		InitialResponseCycles:    100,
		SecondResponseCycles:     35,
		ReducedIssueWidth:        4,
		ReducedCachePorts:        1,
		PhantomTargetAmps:        70,
	}
	dual := engine.DualBandConfig{Medium: medium, Low: low, DecimationFactor: factor}
	base := engine.Spec{Workload: &app, System: &cfg, Instructions: insts}
	med, db := base, base
	med.Technique, med.Tuning = engine.TechniqueTuning, &medium
	db.Technique, db.DualBand = engine.TechniqueDualBand, &dual
	return []engine.Spec{base, med, db}
}

// multiDomainSpecs is the two-domain PDN demonstration: a workload
// oscillating at the shared package resonance on the lumped network, on
// the two-domain network, and on the two-domain network under
// per-domain tuning.
func multiDomainSpecs(insts uint64) []engine.Spec {
	pdn := circuit.Table1TwoDomain()
	pkgRes := pdn.PackageResonantFrequency()
	pkgPeriod := pdn.ClockHz / pkgRes
	peaks := circuit.LocalPeaks(pdn.ImpedanceSweep(0, 5e5, 1e9, 600))
	pkgPeak := peaks[0]
	for _, p := range peaks {
		if math.Abs(math.Log(p.FrequencyHz/pkgRes)) < math.Abs(math.Log(pkgPeak.FrequencyHz/pkgRes)) {
			pkgPeak = p
		}
	}
	epStall := int(pkgPeriod / 2 / 12)
	epBurst := (int(pkgPeriod) - 12*epStall) * 5
	app := workload.Params{
		Name: "pkgosc", Seed: 11,
		Mix:     workload.Mix{IntALU: 0.3, FPALU: 0.18, FPMul: 0.05, Load: 0.25, Store: 0.1, Branch: 0.12},
		DepProb: 0.5, DepMean: 4,
		MispredictRate: 0.005, L1MissRate: 0.001, L2MissRate: 0.05,
		Burst: workload.Burst{
			Enabled:     true,
			BurstInsts:  4_000,
			StallMisses: 1,
			StallLevel:  cpu.MemL2,
			JitterFrac:  0.2,
			EpisodeProb: 0.2, EpisodeLen: 10,
			EpisodeBurstInsts:  epBurst,
			EpisodeStallMisses: epStall,
		},
	}
	half := int(math.Round(pkgPeriod / 2))
	domCfgs := make([]tuning.Config, len(pdn.Domains))
	for d := range pdn.Domains {
		margin := pdn.Domains[d].Vdd * pdn.Domains[d].NoiseMargin
		c := engine.DefaultTuningConfig(half * 20)
		c.SecondResponseCycles = half * 4
		c.Detector.HalfPeriodLo = half * 8 / 10
		c.Detector.HalfPeriodHi = half * 12 / 10
		c.Detector.ThresholdAmps = math.Floor(margin / pkgPeak.Ohms)
		domCfgs[d] = c
	}
	netCfg := circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain, MultiDomain: &pdn}
	lumped := engine.Spec{Workload: &app, Instructions: insts}
	multi, tuned := lumped, lumped
	multi.PDN = &netCfg
	tuned.PDN = &netCfg
	tuned.Technique = engine.TechniqueDomainTuning
	tuned.DomainTuning = &engine.DomainTuningConfig{Domains: domCfgs}
	return []engine.Spec{lumped, multi, tuned}
}
