package main

import (
	"fmt"
	"maps"
	"os"

	"repro/internal/engine"
)

// warmInsts is paper-warm's per-application instruction count. A disk
// entry's size does not depend on it, so a small count keeps the
// cache-populating set-up short without changing the measured path.
const warmInsts = 10_000

// warmReplays is how many fresh-engine replays one paper-warm round
// makes: one replay takes about 10 ms, too short a round to time on its
// own against the untimed heap reset before every round.
const warmReplays = 20

// warmRenders are the reports paper-warm replays: Table 3 and the related
// suite, the path of a warm CI run and of a sharded sweep's merge.
var warmRenders = []render{{id: "table3", insts: warmInsts}, {id: "related", insts: warmInsts}}

func paperWarmSpecs() []engine.Spec {
	return append(table3Specs(warmInsts), relatedSpecs(warmInsts)...)
}

// runPaperWarm is the paper-warm workload: set-up renders the reports on
// a cold engine over an empty disk cache, which populates it; every round
// renders them warmReplays times, each on a fresh engine over that cache,
// which must serve
// every spec without simulating and reproduce the cold reports byte for
// byte.
func runPaperWarm(b *bench) error {
	specs := paperWarmSpecs()
	var dir string
	var cold map[string]string
	if err := b.setup(func() error {
		if err := materialize(specs); err != nil {
			return err
		}
		d, err := os.MkdirTemp(b.work, "disk-")
		if err != nil {
			return err
		}
		eng := engine.New(engine.Options{Parallelism: 1, DiskCacheDir: d})
		texts := map[string]string{}
		for _, r := range warmRenders {
			if texts[r.id], err = runReport(eng, r); err != nil {
				return err
			}
		}
		if st := eng.CacheStats(); st.DiskWrites != st.Misses || st.Misses == 0 {
			return fmt.Errorf("populating the disk cache wrote %d of %d results", st.DiskWrites, st.Misses)
		}
		if dir == "" {
			dir, cold = d, texts
			return nil
		}
		// A repeated set-up leaves the rounds' cache in place. Its own
		// cache is removed with the work directory at exit, outside any
		// timed span.
		b.check(maps.Equal(texts, cold), "a repeated cold render differs from the first")
		return nil
	}); err != nil {
		return err
	}
	if b.trace {
		return b.traceRun(warmSource(b, specs, dir, cold))
	}

	var served []float64
	rs, err := b.rounds(func(timed func(func() int)) error {
		engs := make([]*engine.Engine, warmReplays)
		for i := range engs {
			engs[i] = engine.New(engine.Options{Parallelism: 1, DiskCacheDir: dir})
		}
		texts := make([]map[string]string, warmReplays)
		timed(func() int {
			for i, eng := range engs {
				texts[i] = b.replayWarm(eng)
			}
			return warmReplays * len(specs)
		})
		n := 0.0
		for i, eng := range engs {
			n += float64(b.checkWarm(eng, texts[i], cold).DiskHits)
		}
		served = append(served, n)
		return nil
	})
	if err != nil {
		return err
	}
	report("warm_specs_per_s", medianRate(rs, func(i int) float64 { return served[i] }), "1/s",
		fmt.Sprintf("disk-tier specs per wall s, %d per fresh-engine replay", int(served[0])/warmReplays))
	return nil
}

// warmSource is paper-warm's traced run: one warm replay, then the seam
// replay over the specs it serves, with disk hits measured on the tier
// set-up populated.
func warmSource(b *bench, specs []engine.Spec, dir string, cold map[string]string) traceSource {
	return traceSource{
		round: func() (engine.CacheStats, *engine.Engine, error) {
			eng := engine.New(engine.Options{Parallelism: 1, DiskCacheDir: dir})
			return b.checkWarm(eng, b.replayWarm(eng), cold), eng, nil
		},
		corpus:  func() []engine.Spec { return specs },
		renders: warmRenders,
		diskDir: dir,
	}
}

// checkWarm checks a finished warm replay: every spec it served is one
// operation, failed if the replay simulated anything or its reports
// differ from the cold render.
func (b *bench) checkWarm(eng *engine.Engine, texts, cold map[string]string) engine.CacheStats {
	st := eng.CacheStats()
	ok := st.Misses == 0 && len(texts) == len(cold)
	for id, t := range cold {
		ok = ok && texts[id] == t
	}
	for i := uint64(0); i < st.Hits+st.DiskHits+st.Misses; i++ {
		b.op(ok, "warm replay: %d misses, reports equal to the cold render: %v", st.Misses, ok)
	}
	return st
}

// replayWarm renders the warm reports over eng and returns their texts.
func (b *bench) replayWarm(eng *engine.Engine) map[string]string {
	texts := map[string]string{}
	for _, r := range warmRenders {
		rep, err := runReport(eng, r)
		if err != nil {
			b.check(false, "warm %s: %v", r.id, err)
			continue
		}
		texts[r.id] = rep
	}
	return texts
}
