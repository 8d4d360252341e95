package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baselines/voltctl"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// serve-zipf shape: a prewarmed population of small single-spec requests
// — every application under every technique kind, dual-band on the
// two-stage network and domain tuning on the two-domain one — requested
// with Zipf(s = 1.1) popularity, plus one never-seen spec at a fixed,
// seeded position in every serveMissEvery requests. A round is one
// never-seen spec on every application, in a seeded order.
const (
	servePopInsts   = 3_000
	serveMissInsts  = 5_000
	serveMissEvery  = 1_600
	serveClients    = 1
	serveZipfS      = 1.1
	serveMaxSamples = 64 // results re-executed through engine.Execute per run
	serveRankSeed   = 1  // fixes which population spec has which popularity rank
)

// serveKinds are the technique kinds of the population, each with the
// network it runs on.
var serveKinds = []struct {
	kind engine.TechniqueKind
	pdn  string
}{
	{engine.TechniqueNone, ""},
	{engine.TechniqueTuning, ""},
	{engine.TechniqueVoltageControl, ""},
	{engine.TechniqueDamping, ""},
	{engine.TechniqueConvolution, ""},
	{engine.TechniqueWavelet, ""},
	{engine.TechniqueDualBand, circuit.NetworkTwoStage},
	{engine.TechniqueDomainTuning, circuit.NetworkMultiDomain},
}

// serveRoundReqs is the length of a round: serveMissEvery requests per
// application.
var serveRoundReqs = serveMissEvery * len(workload.Names())

// servePopulation is the prewarmed request population.
func servePopulation() []engine.Spec {
	var specs []engine.Spec
	for _, k := range serveKinds {
		for _, app := range workload.Names() {
			s := engine.Spec{App: app, Instructions: servePopInsts, Technique: k.kind}
			if k.pdn != "" {
				s.PDN = &circuit.NetworkConfig{Kind: k.pdn}
			}
			specs = append(specs, s)
		}
	}
	return specs
}

// request is one prepared POST /v1/run.
type request struct {
	body []byte
	key  string // expected content address
	spec engine.Spec
	miss bool
}

func newRequest(s engine.Spec, miss bool) (*request, error) {
	w := engine.WireSpec(s)
	body, err := json.Marshal(server.RunRequest{Spec: &w})
	if err != nil {
		return nil, err
	}
	k, err := s.Key()
	if err != nil {
		return nil, err
	}
	return &request{body: body, key: k.Hex(), spec: s, miss: miss}, nil
}

// sequence generates the seeded request stream: Zipf ranks over a fixed
// permutation of the population, and never-seen specs (see missSpec) at
// a seeded offset within every serveMissEvery requests. Each run of
// len(workload.Names()) never-seen specs covers every application once,
// in a seeded order: with a miss costing a few hundred hits and
// applications differing in cost, a seeded draw of applications made the
// seed choose how much simulation a round did.
// The popularity ranking is the same for every seed: a request's cost
// depends on its spec (keying a spec with a large configuration section
// costs several times more), so a seeded ranking would make the seed
// choose how much work a run does.
type sequence struct {
	pop      []*request
	zipf     *rand.Zipf
	perm     []int
	appRng   *rand.Rand
	missApps []string // this cycle's applications, in order
	missAt   int
	next     int // global index of the next request
	nMissed  int
	appNames []string
}

func newSequence(seed int64, pop []*request) *sequence {
	r := rand.New(rand.NewSource(seed))
	return &sequence{
		pop:      pop,
		zipf:     rand.NewZipf(r, serveZipfS, 1, uint64(len(pop)-1)),
		perm:     rand.New(rand.NewSource(serveRankSeed)).Perm(len(pop)),
		missAt:   r.Intn(serveMissEvery),
		appRng:   rand.New(rand.NewSource(seed ^ 0x5eed)),
		appNames: workload.Names(),
	}
}

func (q *sequence) round(n int) ([]*request, error) {
	out := make([]*request, n)
	for i := range out {
		if q.next%serveMissEvery == q.missAt {
			if q.nMissed%len(q.appNames) == 0 {
				q.missApps = slices.Clone(q.appNames)
				q.appRng.Shuffle(len(q.missApps), func(i, j int) {
					q.missApps[i], q.missApps[j] = q.missApps[j], q.missApps[i]
				})
			}
			s := missSpec(q.missApps[q.nMissed%len(q.appNames)], q.nMissed+1)
			q.nMissed++
			r, err := newRequest(s, true)
			if err != nil {
				return nil, err
			}
			out[i] = r
		} else {
			out[i] = q.pop[q.perm[q.zipf.Uint64()]]
		}
		q.next++
	}
	return out, nil
}

// missSpec is the i-th never-seen spec of a run, on app: voltage control
// ([10]'s 20 mV threshold and 5-cycle delay) behind a noiseless sensor
// with noise seed i. The seed only drives the sensor-noise generator,
// which a noiseless sensor never draws from, so it makes the spec new
// without changing what gets simulated: a miss on an application costs
// the same however many misses came before it.
func missSpec(app string, i int) engine.Spec {
	cfg := voltctl.Config{TargetThresholdVolts: 0.020, SensorDelayCycles: 5, Seed: uint64(i)}
	return engine.Spec{
		App:            app,
		Instructions:   serveMissInsts,
		Technique:      engine.TechniqueVoltageControl,
		VoltageControl: &cfg,
	}
}

// respWriter is a reusable in-process http.ResponseWriter.
type respWriter struct {
	h    http.Header
	buf  bytes.Buffer
	code int
}

func (w *respWriter) Header() http.Header { return w.h }
func (w *respWriter) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
}
func (w *respWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(p)
}

// Flush lets the handler take its streaming path, as on a real connection.
func (w *respWriter) Flush() {}
func (w *respWriter) reset() {
	clear(w.h)
	w.buf.Reset()
	w.code = 0
}

// do serves one request in process and returns its latency and raw
// NDJSON response line; err describes a failed request: a non-200
// status, or a line that is not exactly the spec's key with a result.
// The line is only fully decoded for sampled requests (see decode), so
// the client stays cheap next to the handler it drives.
func (w *respWriter) do(h http.Handler, r *request) (time.Duration, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	w.reset()
	t0 := time.Now()
	h.ServeHTTP(w, req)
	lat := time.Since(t0)
	line := w.buf.Bytes()
	if w.code != http.StatusOK {
		return lat, nil, fmt.Errorf("status %d: %s", w.code, bytes.TrimSpace(line))
	}
	prefix := `{"index":0,"key":"` + r.key + `","result":{`
	if !bytes.HasPrefix(line, []byte(prefix)) || !bytes.HasSuffix(line, []byte("}}\n")) || bytes.Count(line, []byte("\n")) != 1 {
		return lat, nil, fmt.Errorf("response is not one result line for key %s: %.200s", r.key, line)
	}
	return lat, line, nil
}

// decode parses a response line's Result.
func decode(line []byte) (sim.Result, error) {
	var l server.RunLine
	if err := json.Unmarshal(line, &l); err != nil || l.Result == nil {
		return sim.Result{}, fmt.Errorf("undecodable response line: %v", err)
	}
	return *l.Result, nil
}

// serveState is serve-zipf's set-up product: an engine with one worker
// behind the resonanced handler, prewarmed with the population.
type serveState struct {
	eng *engine.Engine
	h   http.Handler
}

func prewarm(pop []engine.Spec) (serveState, error) {
	eng := engine.New(engine.Options{Parallelism: 1})
	h := server.New(server.Options{Engine: eng}).Handler()
	wires := make([]server.SpecRequest, len(pop))
	for i, s := range pop {
		wires[i] = engine.WireSpec(s)
	}
	body, err := json.Marshal(server.RunRequest{Specs: wires})
	if err != nil {
		return serveState{}, err
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	if err != nil {
		return serveState{}, err
	}
	w := &respWriter{h: http.Header{}}
	h.ServeHTTP(w, req)
	lines := bytes.Count(w.buf.Bytes(), []byte("\n"))
	if w.code != http.StatusOK || lines != len(pop) || eng.CacheStats().Misses != uint64(len(pop)) {
		return serveState{}, fmt.Errorf("prewarm: status %d, %d lines for %d specs", w.code, lines, len(pop))
	}
	return serveState{eng: eng, h: h}, nil
}

// roundBuf is one round's per-request outcomes. Rounds reuse one, so the
// benchmark's own bookkeeping adds no per-request garbage to the process
// whose memory it measures.
type roundBuf struct {
	keep []bool          // requests whose response line to keep
	lats []time.Duration // latency of each request
	errs []error         // failure of each request, nil if it succeeded
	kept [][]byte        // a copy of each kept response line
}

func (rb *roundBuf) reset(n int) {
	if cap(rb.lats) < n {
		*rb = roundBuf{keep: make([]bool, n), lats: make([]time.Duration, n), errs: make([]error, n), kept: make([][]byte, n)}
	}
	rb.keep, rb.lats, rb.errs, rb.kept = rb.keep[:n], rb.lats[:n], rb.errs[:n], rb.kept[:n]
	clear(rb.keep)
	clear(rb.errs)
	clear(rb.kept)
}

// serveRound serves reqs through h from serveClients closed-loop clients
// and fills rb (reset to reqs, with keep set by the caller) with each
// request's latency and failure, plus a copy of every kept response line.
func serveRound(h http.Handler, reqs []*request, rb *roundBuf) {
	lats, errs, kept, keep := rb.lats, rb.errs, rb.kept, rb.keep
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &respWriter{h: http.Header{}}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				lat, line, err := w.do(h, reqs[i])
				lats[i], errs[i] = lat, err
				if err == nil && keep[i] {
					kept[i] = append([]byte(nil), line...)
				}
			}
		}()
	}
	wg.Wait()
}

// serveSource is serve-zipf's traced run: one round of the request
// sequence, then the seam replay over the population and that round's
// never-seen specs. Reports are rendered over an engine warmed with the
// related suite at the population's size, since serving renders none.
func serveSource(b *bench, st serveState, seq *sequence) traceSource {
	var misses []engine.Spec
	return traceSource{
		round: func() (engine.CacheStats, *engine.Engine, error) {
			reqs, err := seq.round(serveRoundReqs)
			if err != nil {
				return engine.CacheStats{}, nil, err
			}
			before := st.eng.CacheStats()
			var rb roundBuf
			rb.reset(len(reqs))
			serveRound(st.h, reqs, &rb)
			for i, r := range reqs {
				b.op(rb.errs[i] == nil, "request %s: %v", label(r.spec), rb.errs[i])
				if r.miss {
					misses = append(misses, r.spec)
				}
			}
			return delta(st.eng.CacheStats(), before), st.eng, nil
		},
		corpus:  func() []engine.Spec { return append(servePopulation(), misses...) },
		renders: []render{{id: "related", insts: servePopInsts}},
		renderEngine: func() (*engine.Engine, error) {
			eng := engine.New(engine.Options{Parallelism: 1})
			_, err := eng.RunAll(context.Background(), relatedSpecs(servePopInsts), nil)
			return eng, err
		},
	}
}

// delta is the per-tier traffic between two counter snapshots.
func delta(after, before engine.CacheStats) engine.CacheStats {
	return engine.CacheStats{
		Hits:     after.Hits - before.Hits,
		DiskHits: after.DiskHits - before.DiskHits,
		Misses:   after.Misses - before.Misses,
	}
}

// runServeZipf is the serve-zipf workload: the resonanced handler driven
// in process by serveClients closed-loop clients over the seeded request
// sequence, serveRoundReqs requests per round.
func runServeZipf(b *bench) error {
	popSpecs := servePopulation()
	pop := make([]*request, len(popSpecs))
	for i, s := range popSpecs {
		r, err := newRequest(s, false)
		if err != nil {
			return err
		}
		pop[i] = r
	}
	var st serveState
	if err := b.setup(func() error {
		if err := materialize(popSpecs); err != nil {
			return err
		}
		s, err := prewarm(popSpecs)
		if st.eng == nil {
			st = s // a repeated set-up leaves the serving engine in place
		}
		return err
	}); err != nil {
		return err
	}
	seq := newSequence(b.seed, pop)
	if b.trace {
		return b.traceRun(serveSource(b, st, seq))
	}

	// Latency quantiles are taken per timed round and reported as their
	// median over rounds, like ops_per_cpu_s: a run keeps no per-request
	// samples, whose growth would show in max_rss_mb.
	var hitP50, hitP99, missP50 []float64
	var samples []*request
	var sampled [][]byte
	sampleRng := rand.New(rand.NewSource(b.seed ^ 0x5a3e))
	before := st.eng.CacheStats()
	var hits, misses int
	var rb roundBuf
	var hitUs, missUs []float64
	calls := 0
	rs, err := b.rounds(func(timed func(func() int)) error {
		calls++
		reqs, err := seq.round(serveRoundReqs)
		if err != nil {
			return err
		}
		// Sample (outside the timed span) every never-seen spec and a
		// seeded share of the rest, up to serveMaxSamples per run.
		rb.reset(len(reqs))
		quota := serveMaxSamples - len(samples)
		for i, r := range reqs {
			if quota > 0 && calls > 1 && (r.miss || sampleRng.Intn(4096) == 0) {
				rb.keep[i] = true
				quota--
			}
		}
		timed(func() int {
			serveRound(st.h, reqs, &rb)
			return len(reqs)
		})
		hitUs, missUs = hitUs[:0], missUs[:0]
		for i, r := range reqs {
			b.op(rb.errs[i] == nil, "request %s: %v", label(r.spec), rb.errs[i])
			if calls == 1 {
				continue // the warm-up round is checked but not sampled
			}
			us := float64(rb.lats[i].Nanoseconds()) / 1e3
			if r.miss {
				missUs = append(missUs, us)
			} else {
				hitUs = append(hitUs, us)
			}
			if rb.kept[i] != nil {
				samples = append(samples, r)
				sampled = append(sampled, rb.kept[i])
			}
		}
		if calls > 1 {
			hits, misses = hits+len(hitUs), misses+len(missUs)
			hitP50 = append(hitP50, nearestRank(hitUs, 0.50))
			hitP99 = append(hitP99, nearestRank(hitUs, 0.99))
			missP50 = append(missP50, nearestRank(missUs, 0.50))
		}
		return nil
	})
	if err != nil {
		return err
	}
	after := st.eng.CacheStats()
	served := after.Hits - before.Hits + after.Misses - before.Misses
	b.check(after.Misses-before.Misses == uint64(seq.nMissed) && served == uint64(seq.next),
		"engine counted %d misses / %d requests, sequence sent %d never-seen specs / %d requests",
		after.Misses-before.Misses, served, seq.nMissed, seq.next)
	for i, r := range samples {
		got, err := decode(sampled[i])
		want, xerr := engine.Execute(r.spec)
		b.check(err == nil && xerr == nil && want == got, "%s: served result differs from engine.Execute", label(r.spec))
	}
	report("req_per_s", medianRate(rs, func(i int) float64 { return float64(rs[i].ops) }), "1/s",
		fmt.Sprintf("per wall second, %d closed-loop client, in process", serveClients))
	perRound := func(n int, what string) string {
		return fmt.Sprintf("median over %d rounds of the nearest rank; %d %s in all", len(hitP50), n, what)
	}
	report("hit_p50_us", median(hitP50), "us", perRound(hits, "cached requests"))
	report("hit_p99_us", median(hitP99), "us", perRound(hits, "cached requests"))
	report("miss_p50_ms", median(missP50)/1e3, "ms", perRound(misses, "never-seen specs"))
	return nil
}
