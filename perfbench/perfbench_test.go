package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
)

// testBench is a bench over the repository checkout one directory up.
func testBench(t *testing.T, trace bool) *bench {
	t.Helper()
	return &bench{seed: 1, seconds: 1, trace: trace, root: "..", work: t.TempDir(), metrics: map[string]metric{}}
}

func requireClean(t *testing.T, b *bench) {
	t.Helper()
	for _, p := range b.problems {
		t.Error(p)
	}
	if b.failed != 0 {
		t.Errorf("%d of %d operations failed", b.failed, b.attempted)
	}
}

// smallSpecs covers every technique kind and every network kind at a
// size that keeps the tests fast.
func smallSpecs() []engine.Spec {
	specs := relatedSpecs(3_000)
	specs = append(specs, lowFreqSpecs(6_000)...)
	return append(specs, multiDomainSpecs(3_000)...)
}

func referenceFor(t *testing.T, specs []engine.Spec) ([]engine.Key, map[string]string) {
	t.Helper()
	keys, err := specKeys(specs)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]string{}
	for i, s := range specs {
		res, err := engine.Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		ref[keys[i].Hex()] = digest(res)
	}
	return keys, ref
}

// exactCounters are the traced run's metrics that count work rather than
// time it; a deterministic simulator must repeat them exactly.
var exactCounters = []string{
	"power.memo_lookups", "power.memo_hit_ratio",
	"batchkernel.steps", "batchkernel.lanes_forked", "batchkernel.cohorts_forked", "batchkernel.sharing_factor",
	"engine.hits", "engine.disk_hits", "engine.misses",
	"workload.trace_bytes",
}

// TestTraceCountersRepeat runs the seam replay twice over the same specs:
// every replay check must pass and every exact counter must repeat.
func TestTraceCountersRepeat(t *testing.T) {
	specs := smallSpecs()
	keys, ref := referenceFor(t, specs)
	var runs [2]map[string]metric
	for r := range runs {
		b := testBench(t, true)
		if err := b.traceRun(b.coldSource(specs, keys, []render{{id: "related", insts: 3_000}}, ref)); err != nil {
			t.Fatal(err)
		}
		requireClean(t, b)
		runs[r] = b.metrics
	}
	for _, name := range exactCounters {
		a, ok := runs[0][name]
		if !ok {
			t.Errorf("traced run did not report %s", name)
			continue
		}
		if b := runs[1][name]; a != b {
			t.Errorf("%s: %v then %v", name, a.Value, b.Value)
		}
	}
	if runs[0]["batchkernel.lanes_forked"].Value == 0 || runs[0]["engine.misses"].Value != float64(len(specs)) {
		t.Errorf("counters do not describe a cold lockstep run: %v", runs[0])
	}
}

// benchmarkMetrics lists the names of one metric section of the
// repository's BENCHMARK.json.
func benchmarkMetrics(t *testing.T, section string) []string {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	return names
}

// TestTraceReportsEveryLayer requires one value per per-layer metric of
// BENCHMARK.json from a traced run.
func TestTraceReportsEveryLayer(t *testing.T) {
	specs := table3Specs(2_000)[:26*2] // base and one tuning variant
	keys, ref := referenceFor(t, specs)
	b := testBench(t, true)
	if err := b.traceRun(b.coldSource(specs, keys, nil, ref)); err != nil {
		t.Fatal(err)
	}
	requireClean(t, b)
	for _, name := range benchmarkMetrics(t, "per_layer") {
		if _, ok := b.metrics[name]; !ok {
			t.Errorf("traced run did not report %s", name)
		}
	}
	if len(b.metrics) != len(benchmarkMetrics(t, "per_layer")) {
		t.Errorf("traced run reported %d metrics, BENCHMARK.json lists %d", len(b.metrics), len(benchmarkMetrics(t, "per_layer")))
	}
}

// TestSpecSetsMatchExperiments renders each report over an engine that
// ran only the benchmark's restated spec set: the render must find every
// spec cached, or the restatement drifted from internal/experiments.
func TestSpecSetsMatchExperiments(t *testing.T) {
	const n = 2_000
	for _, c := range []struct {
		id    string
		specs []engine.Spec
	}{
		{"table3", table3Specs(n)},
		{"related", relatedSpecs(n)},
		{"lowfreq", lowFreqSpecs(n)},
		{"multidomain", multiDomainSpecs(n)},
	} {
		eng := engine.New(engine.Options{})
		if _, err := eng.RunAll(context.Background(), c.specs, nil); err != nil {
			t.Fatal(err)
		}
		b := testBench(t, false)
		b.renderAll(eng, []render{{id: c.id, insts: n}})
		for _, p := range b.problems {
			t.Errorf("%s: %s", c.id, p)
		}
	}
}

// TestReferenceCoversColdSpecs requires a reference digest for every spec
// of the cold workloads.
func TestReferenceCoversColdSpecs(t *testing.T) {
	ref, err := loadReference("..")
	if err != nil {
		t.Fatal(err)
	}
	specs := append(table3ColdSpecs(), pdnColdSpecs()...)
	keys, err := specKeys(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if _, ok := ref[k.Hex()]; !ok {
			t.Errorf("%s has no reference digest", label(specs[i]))
		}
	}
}

// TestServeSequenceIsSeeded requires equal seeds to give equal request
// sequences and different seeds different ones.
func TestServeSequenceIsSeeded(t *testing.T) {
	pop := make([]*request, len(servePopulation()))
	for i, s := range servePopulation() {
		r, err := newRequest(s, false)
		if err != nil {
			t.Fatal(err)
		}
		pop[i] = r
	}
	keys := func(seed int64) []string {
		reqs, err := newSequence(seed, pop).round(3 * serveMissEvery)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		misses := 0
		for _, r := range reqs {
			out = append(out, r.key)
			if r.miss {
				misses++
			}
		}
		if misses != 3 {
			t.Errorf("seed %d: %d never-seen specs in %d requests, want 3", seed, misses, len(reqs))
		}
		return out
	}
	a, b, c := keys(7), keys(7), keys(8)
	if !slices.Equal(a, b) {
		t.Error("one seed gave two different sequences")
	}
	if slices.Equal(a, c) {
		t.Error("two seeds gave the same sequence")
	}
}

// TestMissSpecsSimulateAlike requires never-seen specs on one application
// to have distinct keys but the same Result, so a run's misses cost the
// same however many came before them.
func TestMissSpecsSimulateAlike(t *testing.T) {
	a, b := missSpec("swim", 1), missSpec("swim", 900)
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Fatal("two never-seen specs share a key")
	}
	ra, err := engine.Execute(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := engine.Execute(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Errorf("never-seen specs simulate differently: %+v vs %+v", ra, rb)
	}
}

// TestSetupRepeatsAcrossRounds requires a run to repeat its set-up
// setupReps times in all, and to report setup_s.
func TestSetupRepeatsAcrossRounds(t *testing.T) {
	b := testBench(t, false)
	b.seconds = 0.05
	setups := 0
	if err := b.setup(func() error { setups++; return nil }); err != nil {
		t.Fatal(err)
	}
	_, err := b.rounds(func(timed func(func() int)) error {
		timed(func() int { time.Sleep(time.Millisecond); return 1 })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if setups != setupReps || len(b.setups) != setupReps {
		t.Errorf("%d set-ups, %d timed, want %d", setups, len(b.setups), setupReps)
	}
	if _, ok := b.metrics["setup_s"]; !ok {
		t.Error("no setup_s")
	}
}
