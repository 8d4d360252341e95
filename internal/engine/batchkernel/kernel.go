// Package batchkernel steps K simulations in lockstep over one shared
// machine; it is the engine's only simulation loop. A single spec is a
// K=1 run, and the engine's batch path packs specs whose
// technique-independent halves are identical (same application stream,
// same simulated system — see Spec.MachineKey) into the lanes of one
// group. Per-lane state is kept in parallel arrays (the lanes and their
// per-cycle decisions), while the expensive machine state — core
// scheduler, power accumulators, supply circuit — exists once per
// cohort.
//
// The kernel is speculative: each cycle every live lane's technique
// decides its (throttle, phantom) pair, and as long as the decisions
// agree the cohort advances with one machine step instead of K. A lane
// whose decision differs from the leader's has, from that cycle on, a
// genuinely different trajectory — but the prefix it observed is exactly
// its own scalar prefix, so divergence is a fork, not a discard: the
// shared machine is deep-copied at the pre-step state (sim.Machine.Fork)
// and the lane resumes on the copy from the divergence cycle. Lanes that
// diverge at the same cycle with the same decision ride one fork together
// as a fresh lockstep cohort, and a cohort can split again, so a K-lane
// group decays into a tree of smaller cohorts instead of K scalar
// re-runs from cycle zero. Lanes that survive to the end of whichever
// cohort they inhabit are bit-identical to their scalar runs by
// induction: equal decisions every cycle mean the cohort trajectory is
// each lane's own, and the fork contract makes the copy's trajectory
// indistinguishable from the original's. The scalar loop (sim.Simulator)
// stays frozen as the differential reference; internal/engine's
// differential harness pins the equivalence per cycle over every
// registered technique kind, including forked and re-forked lanes.
//
// A lane whose technique or trace callback panics fails alone: each
// cohort loop runs under one recover, which marks the lane in flight
// Failed and resumes the cohort without it. A panic in the machine's
// own step propagates to the caller, since every lane of the cohort
// shares that machine.
package batchkernel

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/power"
	"repro/internal/sim"
)

// Status classifies how a lane's run ended.
type Status uint8

// Lane outcomes.
const (
	// Finished lanes ran to the end of the stream — in the original
	// cohort or on a forked machine; either way their Result is
	// bit-identical to a scalar run of the same spec.
	Finished Status = iota
	// Diverged lanes decided differently from their cohort leader at
	// DivergedAt on a machine that could not be forked (an unforkable
	// instruction source); no machine step was taken for them at that
	// cycle, and the caller must re-run them alone, from a fresh
	// technique, as K=1 runs.
	Diverged
	// Failed lanes panicked in their technique or trace callback; Err
	// carries the recovered panic. The rest of the cohort is unaffected.
	Failed
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Finished:
		return "finished"
	case Diverged:
		return "diverged"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Lane is one simulation in a Run: the technique (with its own
// controller state) plus the optional per-cycle trace hooks, mirroring
// sim.Simulator.SetTrace. Its Next and Observe calls, and the trace
// callbacks, run under the cohort loop's recover (see Failed).
type Lane struct {
	// Tech decides the lane's per-cycle control; nil is the base
	// (uncontrolled) machine.
	Tech sim.Technique
	// TechName labels the lane's Result; empty defaults to Tech.Name()
	// (or "base" for a nil Tech).
	TechName string
	// Trace, when non-nil, receives the lane's per-cycle waveform.
	Trace func(sim.TracePoint)
	// EventCount and Level fill TracePoint's technique columns.
	EventCount func() int
	Level      func() int
}

// name returns the lane's result label.
func (l *Lane) name() string {
	if l.TechName != "" {
		return l.TechName
	}
	if l.Tech != nil {
		return l.Tech.Name()
	}
	return "base"
}

// deliver hands the cycle's observation to the lane's technique and
// trace callback.
func (l *Lane) deliver(obs *sim.Observation) {
	if l.Tech != nil {
		l.Tech.Observe(obs)
	}
	if l.Trace != nil {
		tp := sim.TracePoint{Cycle: obs.Cycle, TotalAmps: obs.TotalAmps, DeviationVolts: obs.DeviationVolts, Violation: obs.Violation}
		if l.EventCount != nil {
			tp.EventCount = l.EventCount()
		}
		if l.Level != nil {
			tp.ResponseLevel = l.Level()
		}
		l.Trace(tp)
	}
}

// Outcome describes how one lane ended.
type Outcome struct {
	Status Status
	// DivergedAt is the cycle whose decision differed from the leader's
	// on an unforkable machine (Diverged) or whose technique panicked
	// (Failed). The lane observed every cycle before DivergedAt and none
	// from it on.
	DivergedAt uint64
	// Err is the recovered panic of a Failed lane.
	Err error
	// Result is the lane's summary (Finished lanes only).
	Result sim.Result
	// Forks counts how many times the lane moved onto a forked machine
	// on its way to its outcome; FirstForkAt is the cycle of the first
	// such move (meaningful only when Forks > 0). A finished lane with
	// Forks == 0 rode the original machine the whole way.
	Forks       int
	FirstForkAt uint64
}

// Stats aggregates a Run's divergence handling, the counters
// engine.CacheStats and resonanced's /metrics export.
type Stats struct {
	// LanesForked counts lane moves onto a forked machine (a lane that
	// re-forks in a cascade counts once per move); CohortsForked counts
	// the forked machines created, each seeding one new lockstep cohort.
	LanesForked   uint64
	CohortsForked uint64
	// CyclesSaved is the speculative prefix retained by forking: the sum
	// over lanes of the lane's cycle position at its *first* fork —
	// exactly the per-lane prefix the pre-fork kernel discarded and
	// re-simulated from cycle zero.
	CyclesSaved uint64
	// Steps counts machine steps executed across the whole cohort tree;
	// the sum of the lanes' cycle counts divided by Steps is the
	// lockstep sharing factor actually achieved (K for a group that
	// never diverges, approaching 1 as lanes fork off early).
	Steps uint64
	// PowerMemo sums the power model's Step-memoization traffic over the
	// root machine and every fork (each Step is counted on exactly one
	// machine; see power.Model.Fork).
	PowerMemo power.MemoStats
}

// decision is one lane's control output for a cycle. Comparability is
// what makes lockstep checking one struct compare per lane per cycle.
type decision struct {
	th cpu.Throttle
	ph sim.Phantom
}

// cohort is one set of lanes advancing in lockstep on one machine. The
// root cohort owns the caller's machine; every split creates a new
// cohort on a fork. pending carries the split cycle's already-made
// decisions (parallel to live): a technique's Next has side effects and
// ran before the split was detected, so the new cohort's first step must
// consume the stored decisions rather than ask again.
type cohort struct {
	m       *sim.Machine
	live    []int
	pending []decision
}

// Run steps the machine with all lanes in lockstep until the instruction
// stream drains (or the machine's cycle limit), forking diverging lanes
// onto machine copies that resume in place — lanes splitting at the same
// cycle with the same decision share one fork as a fresh cohort, and
// cohorts split recursively — and returns one Outcome per lane plus the
// divergence statistics. appName labels the results. The leader — the
// first live lane of a cohort — drives that cohort's machine; when it is
// removed the next live lane is promoted. Run consumes the machine: it
// must be freshly built and not shared. A K=1 Run never forks, so its
// lane ends on the machine passed in, which the caller may then inspect.
func Run(m *sim.Machine, appName string, lanes []Lane) ([]Outcome, Stats) {
	k := &kernel{lanes: lanes, decisions: make([]decision, len(lanes)), out: make([]Outcome, len(lanes))}
	root := cohort{m: m, live: make([]int, len(lanes))}
	for i := range lanes {
		root.live[i] = i
	}
	// Depth-first over the cohort tree: a split pushes the new cohort
	// and the current one keeps running; order does not affect results
	// (cohorts share nothing after the fork) but LIFO keeps the warm
	// machine state cache-resident.
	k.stack = []cohort{root}
	for len(k.stack) > 0 {
		k.cohort = k.stack[len(k.stack)-1]
		k.stack = k.stack[:len(k.stack)-1]
		for !k.advance() {
		}
		for _, i := range k.live {
			res := k.m.Result(appName, lanes[i].name())
			res.Tech = sim.TechStatsOf(lanes[i].Tech)
			k.out[i].Status = Finished
			k.out[i].Result = res
		}
		ms := k.m.Power().MemoStats()
		k.stats.PowerMemo.Hits += ms.Hits
		k.stats.PowerMemo.Misses += ms.Misses
		k.stats.PowerMemo.Bypasses += ms.Bypasses
	}
	return k.out, k.stats
}

// laneCall says whose code a cohort loop is running, so the loop's one
// recover can tell a lane's panic (fail that lane, resume the cohort)
// from the machine's own (fail the whole Run).
type laneCall uint8

const (
	inMachine laneCall = iota
	inNext
	inObserve
)

// kernel is one Run's state: the lanes and their per-lane arrays, the
// cohorts still to run, and the loop state of the cohort running now.
// The loop state lives outside the loop so that after a lane panics the
// loop resumes where it stopped: at position pos of live, in the decide
// pass (call == inNext) or the observe pass (call == inObserve).
type kernel struct {
	lanes     []Lane
	decisions []decision
	out       []Outcome
	stats     Stats
	stack     []cohort

	cohort
	call laneCall
	pos  int
	obs  *sim.Observation
}

// advance runs the current cohort until the stream drains (true) or a
// lane panics (false: the lane is failed and removed, and the next
// advance resumes the interrupted pass). One recover per advance, rather
// than one per lane call, keeps the per-cycle cost that of the plain
// Next → Step → Observe sequence.
func (k *kernel) advance() (done bool) {
	defer func() {
		if p := recover(); p != nil {
			k.failLane(p)
		}
	}()
	switch k.call {
	case inNext:
		k.decide()
		k.step()
	case inObserve:
		k.observe()
	}
	m := k.m
	limit := m.CycleLimit()
	for len(k.live) > 0 && !m.Done() && m.Cycles() < limit {
		if k.pending == nil && len(k.live) == 1 {
			// Sole survivor: no lockstep check to run, so skip the
			// decision bookkeeping and run to the end — this is the
			// common state once a cohort has shed its other lanes, and
			// every K=1 run.
			l := &k.lanes[k.live[0]]
			for !m.Done() && m.Cycles() < limit {
				th, ph := cpu.Unlimited, sim.Phantom{}
				if l.Tech != nil {
					k.call = inNext
					th, ph = l.Tech.Next()
				}
				k.call = inMachine
				obs := m.Step(th, ph)
				k.stats.Steps++
				k.call = inObserve
				l.deliver(obs)
				k.call = inMachine
			}
			break
		}
		// Decide: every live lane's control for this cycle — the
		// decisions stored by the split that created this cohort, or
		// fresh ones from each technique.
		if k.pending != nil {
			for j, i := range k.live {
				k.decisions[i] = k.pending[j]
			}
			k.pending = nil
		} else {
			k.decide()
		}
		k.step()
	}
	return true
}

// failLane marks the lane whose Next or Observe panicked Failed at the
// cycle it was deciding or observing and drops it from the cohort. A
// panic in the machine's own code is re-raised: every lane shares that
// machine, so the caller fails the whole Run.
func (k *kernel) failLane(p any) {
	var at uint64
	var where string
	switch k.call {
	case inNext:
		at, where = k.m.Cycles(), "Next"
	case inObserve:
		at, where = k.m.Cycles()-1, "Observe"
	default:
		panic(p)
	}
	i := k.live[k.pos]
	k.out[i].Status, k.out[i].DivergedAt = Failed, at
	k.out[i].Err = fmt.Errorf("batchkernel: technique %s panicked in %s: %v", k.lanes[i].name(), where, p)
	k.live = append(k.live[:k.pos], k.live[k.pos+1:]...)
}

// decide asks each live lane from pos on for its decision.
func (k *kernel) decide() {
	k.call = inNext
	for ; k.pos < len(k.live); k.pos++ {
		i := k.live[k.pos]
		d := decision{th: cpu.Unlimited}
		if t := k.lanes[i].Tech; t != nil {
			d.th, d.ph = t.Next()
		}
		k.decisions[i] = d
	}
	k.pos, k.call = 0, inMachine
}

// step checks lockstep, steps the machine once for every lane still in
// the cohort, and delivers the observation. Followers whose decision
// differs from the leader's leave the cohort *before* the machine steps,
// so the trajectory they observed so far is exactly their scalar prefix.
func (k *kernel) step() {
	if len(k.live) == 0 {
		return
	}
	if len(k.live) > 1 {
		lead := k.decisions[k.live[0]]
		n := 1
		var split []int
		for _, i := range k.live[1:] {
			if k.decisions[i] == lead {
				k.live[n] = i
				n++
				continue
			}
			split = append(split, i)
		}
		k.live = k.live[:n]
		if split != nil {
			k.fork(split)
		}
	}
	d := k.decisions[k.live[0]]
	k.obs = k.m.Step(d.th, d.ph)
	k.stats.Steps++
	k.observe()
}

// observe delivers the cycle's observation to each live lane from pos on.
func (k *kernel) observe() {
	k.call = inObserve
	for ; k.pos < len(k.live); k.pos++ {
		k.lanes[k.live[k.pos]].deliver(k.obs)
	}
	k.pos, k.call = 0, inMachine
}

// fork regroups the lanes that just left the current cohort: lanes
// sharing a decision ride one machine fork together as a fresh lockstep
// cohort (first-appearance order, so regrouping is deterministic) pushed
// on the stack. When the machine cannot be forked the affected lanes
// come back Diverged for the caller to re-run alone — the pre-fork
// behaviour.
func (k *kernel) fork(split []int) {
	at := k.m.Cycles()
	for len(split) > 0 {
		d0 := k.decisions[split[0]]
		grp := []int{split[0]}
		rest := split[1:]
		n := 0
		for _, i := range rest {
			if k.decisions[i] == d0 {
				grp = append(grp, i)
			} else {
				rest[n] = i
				n++
			}
		}
		rest = rest[:n]
		split = rest

		fm, err := k.m.Fork()
		if err != nil {
			for _, i := range grp {
				k.out[i].Status, k.out[i].DivergedAt = Diverged, at
			}
			continue
		}
		k.stats.CohortsForked++
		k.stats.LanesForked += uint64(len(grp))
		pend := make([]decision, len(grp))
		for j, i := range grp {
			pend[j] = k.decisions[i]
			if k.out[i].Forks == 0 {
				k.out[i].FirstForkAt = at
				k.stats.CyclesSaved += at
			}
			k.out[i].Forks++
		}
		k.stack = append(k.stack, cohort{m: fm, live: grp, pending: pend})
	}
}
