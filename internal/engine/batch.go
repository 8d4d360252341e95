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
// slice) of the specs sharing a machine. A group of one runs scalar.
type laneGroup struct {
	indices []int
}

// packGroups partitions the given spec indices into lane groups by
// MachineKey. Every index appears in exactly one group; specs that
// cannot be keyed (invalid technique) and traced specs become singleton
// groups, since a traced run must go through the scalar path's
// always-simulate semantics. Group order follows first appearance, and
// indices within a group stay in caller order, so packing is
// deterministic.
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

// runGroup executes one multi-lane group through the lockstep kernel —
// diverging lanes resume on forked machines inside the kernel, and only
// lanes whose machine could not be forked re-run on the scalar path —
// and reports every spec through finish exactly once. Each lane is
// prepared exactly as Execute prepares a spec, so a lane that cannot be
// built fails with Execute's error. report receives the kernel's
// divergence and power-memoization counters (scalar runs report memo
// traffic only).
func runGroup(ctx context.Context, specs []Spec, g laneGroup, finish func(i int, res sim.Result, err error), report func(batchkernel.Stats)) {
	scalar := func(indices []int) {
		for _, i := range indices {
			if err := ctx.Err(); err != nil {
				finish(i, sim.Result{}, err)
				continue
			}
			res, st, err := executeSafe(specs[i])
			report(batchkernel.Stats{PowerMemo: st})
			finish(i, res, err)
		}
	}
	if len(g.indices) < 2 {
		scalar(g.indices)
		return
	}

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
		lanes = append(lanes, batchkernel.Lane{Tech: p.tech, TechName: p.techName()})
		laneIdx = append(laneIdx, i)
	}
	if len(lanes) == 0 {
		return
	}
	outcomes, stats, err := runLanes(first, lanes)
	if err != nil {
		for _, i := range laneIdx {
			finish(i, sim.Result{}, err)
		}
		return
	}
	report(stats)
	var rerun []int
	for li, out := range outcomes {
		switch out.Status {
		case batchkernel.Finished:
			finish(laneIdx[li], out.Result, nil)
		case batchkernel.Failed:
			finish(laneIdx[li], sim.Result{}, out.Err)
		default: // Diverged on an unforkable machine: scalar fallback
			rerun = append(rerun, laneIdx[li])
		}
	}
	scalar(rerun)
}

// runLanes builds a group's shared machine and steps its lanes through
// the lockstep kernel. A panic while building or stepping the machine —
// which every lane shares — fails the whole group with an error, as
// executeSafe does for a scalar run, instead of unwinding the worker.
func runLanes(p prepared, lanes []batchkernel.Lane) (out []batchkernel.Outcome, st batchkernel.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("simulation panic: %v", r)
		}
	}()
	m, err := sim.NewMachine(*p.n.System, p.source())
	if err != nil {
		return nil, batchkernel.Stats{}, err
	}
	out, st = batchkernel.Run(m, p.n.App, lanes)
	return out, st, nil
}
