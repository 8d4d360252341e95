package engine

import (
	"context"
	"fmt"

	"repro/internal/engine/batchkernel"
	"repro/internal/sim"
)

// MachineKey returns the content key of the technique-independent half
// of the spec: the application stream, the run length, and the simulated
// system, with the technique and every technique section stripped. Two
// specs with equal MachineKeys simulate identical machines over
// identical instruction streams — the compatibility predicate the batch
// packer groups lanes by.
func (s Spec) MachineKey() (Key, error) {
	m := s
	m.Technique = TechniqueNone
	clearSections(&m)
	m.Trace = nil
	return m.Key()
}

// laneGroup is one packed work item: the indices (into the batch's spec
// slice) of the specs sharing a machine, run as the lanes of one
// batchkernel.Run.
type laneGroup struct {
	indices []int
}

// packGroups partitions the given spec indices into lane groups by
// MachineKey. Every index appears in exactly one group; specs that
// cannot be keyed (invalid technique) and traced specs become singleton
// groups, so a trace callback only ever paces its own run. Group order
// follows first appearance, and indices within a group stay in caller
// order, so packing is deterministic.
func packGroups(specs []Spec, indices []int) []laneGroup {
	byKey := make(map[Key]int) // machine key -> position in groups
	var groups []laneGroup
	for _, i := range indices {
		if specs[i].Trace != nil {
			groups = append(groups, laneGroup{indices: []int{i}})
			continue
		}
		mk, err := specs[i].MachineKey()
		if err != nil {
			groups = append(groups, laneGroup{indices: []int{i}})
			continue
		}
		if g, ok := byKey[mk]; ok {
			groups[g].indices = append(groups[g].indices, i)
			continue
		}
		byKey[mk] = len(groups)
		groups = append(groups, laneGroup{indices: []int{i}})
	}
	return groups
}

// runGroup executes one group as a batchkernel.Run over its lanes —
// diverging lanes resume on forked machines inside the kernel, and a
// lane whose machine could not be forked re-runs alone as a K=1 group —
// and reports every spec through finish exactly once. Each lane is
// prepared exactly as Execute prepares a spec, so a lane that cannot be
// built fails with Execute's error. report receives the kernel's
// divergence and power-memoization counters.
func runGroup(ctx context.Context, specs []Spec, g laneGroup, finish func(i int, res sim.Result, err error), report func(batchkernel.Stats)) {
	// Every lane in the group resolves to the same machine by MachineKey
	// equality; the first lane that prepares supplies it.
	var first prepared
	lanes := make([]batchkernel.Lane, 0, len(g.indices))
	laneIdx := make([]int, 0, len(g.indices))
	for _, i := range g.indices {
		p, err := prepare(specs[i])
		if err != nil {
			finish(i, sim.Result{}, err)
			continue
		}
		if len(lanes) == 0 {
			first = p
		}
		lanes = append(lanes, p.lane)
		laneIdx = append(laneIdx, i)
	}
	if len(lanes) == 0 {
		return
	}
	outcomes, stats, err := runLanes(first, lanes, nil)
	if err != nil {
		for _, i := range laneIdx {
			finish(i, sim.Result{}, err)
		}
		return
	}
	report(stats)
	for li, out := range outcomes {
		i := laneIdx[li]
		switch {
		case out.Status == batchkernel.Finished:
			finish(i, out.Result, nil)
		case out.Status == batchkernel.Failed:
			finish(i, sim.Result{}, out.Err)
		case ctx.Err() != nil:
			finish(i, sim.Result{}, ctx.Err())
		default: // Diverged on an unforkable machine: re-run alone (K=1 cannot diverge)
			runGroup(ctx, specs, laneGroup{indices: []int{i}}, finish, report)
		}
	}
}

// runLanes builds a group's shared machine and steps its lanes through
// the lockstep kernel. A panic while building or stepping the machine —
// which every lane shares — fails the whole group with an error; a
// lane's own panic fails only that lane (see batchkernel.Failed). built,
// when non-nil, receives the machine before the run: a K=1 run never
// forks, so that is the machine its lane ends on. runLanes itself keeps
// no reference past the start of the run, so a multi-lane group's root
// machine is freed once its own cohort finishes, while forks still run.
func runLanes(p prepared, lanes []batchkernel.Lane, built func(*sim.Machine)) (out []batchkernel.Outcome, st batchkernel.Stats, err error) {
	defer recoverPanic(&err)
	m, err := sim.NewMachine(*p.n.System, p.source())
	if err != nil {
		return nil, st, err
	}
	if built != nil {
		built(m)
	}
	out, st = batchkernel.Run(m, p.n.App, lanes)
	return out, st, nil
}

// recoverPanic, deferred, turns a panic escaping a simulation's
// construction or run into its error. The engine must resolve every
// claimed cache entry and release its worker slot on every path out of
// a simulation; a panic unwinding a long-running server's worker would
// instead strand waiters on never-closed entries.
func recoverPanic(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("simulation panic: %v", r)
	}
}
