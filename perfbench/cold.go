package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

// table3Insts is table3-cold's per-application instruction count: Table 3
// at the experiments' default 1M takes about a minute on one worker,
// too long for one round.
const table3Insts = 30_000

// The pdn-techniques-cold sizes are the ones the experiments package
// pins, so its rendered reports are byte-compared against testdata.
const (
	relatedInsts     = 60_000
	lowFreqInsts     = 120_000
	multiDomainInsts = 30_000
)

// render is one experiment report a workload renders over its engine.
type render struct {
	id    string
	insts uint64
	pin   string // report pinned in the checkout, relative to its root; "" for none
}

func table3ColdSpecs() []engine.Spec { return table3Specs(table3Insts) }

func pdnColdSpecs() []engine.Spec {
	specs := relatedSpecs(relatedInsts)
	specs = append(specs, lowFreqSpecs(lowFreqInsts)...)
	return append(specs, multiDomainSpecs(multiDomainInsts)...)
}

// runTable3Cold is the table3-cold workload: Table 3's 182 specs as one
// RunAll on a fresh one-worker engine without a disk tier, per round.
func runTable3Cold(b *bench) error {
	return b.runCold(table3ColdSpecs(), []render{{id: "table3", insts: table3Insts}})
}

// runPDNCold is the pdn-techniques-cold workload: the related, lowfreq
// and multidomain spec sets as one RunAll on a fresh one-worker engine,
// per round. Together they cover every technique kind and every network
// kind.
func runPDNCold(b *bench) error {
	return b.runCold(pdnColdSpecs(), []render{
		{id: "related", insts: relatedInsts, pin: "internal/experiments/testdata/rewire/related.txt"},
		{id: "lowfreq", insts: lowFreqInsts, pin: "internal/experiments/testdata/rewire/lowfreq.txt"},
		{id: "multidomain", insts: multiDomainInsts, pin: "internal/experiments/testdata/golden/multidomain.txt"},
	})
}

// runCold measures a cold batch workload: set-up materializes the
// instruction traces; every round submits the whole spec list as one
// RunAll to a fresh one-worker engine and checks every Result against
// the committed reference digests. After the rounds the experiments
// render over the last engine, which must need no simulation at all.
func (b *bench) runCold(specs []engine.Spec, renders []render) error {
	ref, err := loadReference(b.root)
	if err != nil {
		return err
	}
	keys, err := specKeys(specs)
	if err != nil {
		return err
	}
	if err := b.setup(func() error { return materialize(specs) }); err != nil {
		return err
	}
	if b.trace {
		return b.traceRun(b.coldSource(specs, keys, renders, ref))
	}

	var last *engine.Engine
	var insts []float64
	rs, err := b.rounds(func(timed func(func() int)) error {
		eng := engine.New(engine.Options{Parallelism: 1})
		var res []sim.Result
		var err error
		timed(func() int {
			res, err = eng.RunAll(context.Background(), specs, nil)
			return len(specs)
		})
		if err != nil {
			return err
		}
		b.checkDigests(specs, keys, res, ref)
		n := 0.0
		for _, r := range res {
			n += float64(r.Instructions)
		}
		insts = append(insts, n)
		last = eng
		return nil
	})
	if err != nil {
		return err
	}
	report("sim_minst_per_s", medianRate(rs, func(i int) float64 { return insts[i] / 1e6 }), "Minst/s",
		fmt.Sprintf("sum of Result.Instructions / wall s, %d specs", len(specs)))
	b.renderAll(last, renders)
	return nil
}

// checkDigests counts every Result as one operation, failed unless its
// digest matches the reference.
func (b *bench) checkDigests(specs []engine.Spec, keys []engine.Key, res []sim.Result, ref map[string]string) {
	for i, r := range res {
		want, ok := ref[keys[i].Hex()]
		b.op(ok && digest(r) == want, "%s: result digest differs from reference.json", label(specs[i]))
	}
}

// coldSource is a cold workload's traced run: one round, then the seam
// replay over its spec list. Rendering cost is measured on the reports
// whose rows all come from the engine (multidomain's per-domain rows
// re-simulate outside it).
func (b *bench) coldSource(specs []engine.Spec, keys []engine.Key, renders []render, ref map[string]string) traceSource {
	var timed []render
	for _, r := range renders {
		if r.id != "multidomain" {
			timed = append(timed, r)
		}
	}
	return traceSource{
		round: func() (engine.CacheStats, *engine.Engine, error) {
			eng := engine.New(engine.Options{Parallelism: 1})
			res, err := eng.RunAll(context.Background(), specs, nil)
			if err != nil {
				return engine.CacheStats{}, nil, err
			}
			b.checkDigests(specs, keys, res, ref)
			return eng.CacheStats(), eng, nil
		},
		corpus:  func() []engine.Spec { return specs },
		renders: timed,
		ref:     ref,
	}
}

// renderAll renders each report over eng, which already holds every spec
// the reports need, and returns the texts by id. It checks that the
// renders simulated nothing new (so the workload's spec list is exactly
// the experiments' set) and that pinned reports match their pins byte for
// byte.
func (b *bench) renderAll(eng *engine.Engine, renders []render) map[string]string {
	before := eng.CacheStats()
	texts := map[string]string{}
	for _, r := range renders {
		text, err := runReport(eng, r)
		if err != nil {
			b.check(false, "render %s: %v", r.id, err)
			continue
		}
		texts[r.id] = text
		if r.pin != "" {
			want, err := os.ReadFile(filepath.Join(b.root, r.pin))
			b.check(err == nil && string(want) == text, "report %s@%d differs from %s", r.id, r.insts, r.pin)
		}
	}
	after := eng.CacheStats()
	b.check(after.Misses == before.Misses && after.Entries == before.Entries,
		"rendering %d reports simulated %d new specs: the workload's spec list differs from the experiments'",
		len(renders), after.Misses-before.Misses)
	return texts
}

// runReport renders one report over eng.
func runReport(eng *engine.Engine, r render) (string, error) {
	exp, err := experiments.ByID(r.id)
	if err != nil {
		return "", err
	}
	rep, err := exp.Run(experiments.Options{Engine: eng, Instructions: r.insts})
	return rep.Text, err
}

// materialize is a cold workload's set-up: it empties the shared trace
// store and materializes every instruction trace the specs replay.
func materialize(specs []engine.Spec) error {
	st := workload.SharedTraces()
	st.SetBudget(1) // evicts everything
	st.SetBudget(0)
	for _, s := range specs {
		p, n, err := streamOf(s)
		if err != nil {
			return err
		}
		st.Get(p, n)
	}
	return nil
}

// streamOf resolves the instruction stream a spec replays.
func streamOf(s engine.Spec) (workload.Params, uint64, error) {
	n := s.Instructions
	if n == 0 {
		n = engine.DefaultInstructions
	}
	if s.Workload != nil {
		return *s.Workload, n, nil
	}
	app, err := workload.ByName(s.App)
	return app.Params, n, err
}

func specKeys(specs []engine.Spec) ([]engine.Key, error) {
	keys := make([]engine.Key, len(specs))
	for i, s := range specs {
		k, err := s.Key()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label(s), err)
		}
		keys[i] = k
	}
	return keys, nil
}

// label names a spec in messages.
func label(s engine.Spec) string {
	app := s.App
	if app == "" && s.Workload != nil {
		app = s.Workload.Name
	}
	tech := string(s.Technique)
	if tech == "" {
		tech = string(engine.TechniqueNone)
	}
	return fmt.Sprintf("%s/%s@%d", app, tech, s.Instructions)
}
