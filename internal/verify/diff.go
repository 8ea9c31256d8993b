package verify

import (
	"symnet/internal/core"
	"symnet/internal/dist"
)

// Report diffing: the churn serving layer publishes a new immutable
// AllPairsReport per absorbed delta batch, and watch clients consume the
// transitions between consecutive versions. CloneShallow gives the writer a
// copy-on-write snapshot to splice re-verified rows into; DiffReports
// computes which (source, target) cells changed between two snapshots of the
// same query.

// CellDelta records one (source, target) reachability cell that differs
// between two reports of the same all-pairs query.
type CellDelta struct {
	// Src and Dst index the reports' Sources and Targets.
	Src, Dst int
	// FromReachable/ToReachable are the cell's old and new verdicts.
	FromReachable, ToReachable bool
	// FromPaths/ToPaths are the old and new delivered-path counts.
	FromPaths, ToPaths int
}

// Flipped reports whether the cell's reachability verdict changed (as
// opposed to only its delivered-path count).
func (d CellDelta) Flipped() bool { return d.FromReachable != d.ToReachable }

// CloneShallow returns a copy-on-write snapshot of the report: fresh outer
// slices whose rows alias the original's. A writer may replace whole rows on
// the clone (Splice) without disturbing readers of the original; rows
// themselves must be treated as immutable after publication.
func (r *AllPairsReport) CloneShallow() *AllPairsReport {
	return &AllPairsReport{
		Sources:   r.Sources,
		Targets:   r.Targets,
		Reachable: append([][]bool(nil), r.Reachable...),
		PathCount: append([][]int(nil), r.PathCount...),
		Results:   append([]*core.Result(nil), r.Results...),
		Summaries: append([]*dist.Summary(nil), r.Summaries...),
	}
}

// DiffReports returns every cell whose reachability verdict or delivered-path
// count differs between two reports of the same query, in row-major
// (source, target) order. Both reports must answer the same sources and
// targets; reports of different shapes yield no defined diff and return nil.
func DiffReports(old, new *AllPairsReport) []CellDelta {
	if old == nil || new == nil ||
		len(old.Reachable) != len(new.Reachable) || len(old.Targets) != len(new.Targets) {
		return nil
	}
	var out []CellDelta
	for s := range new.Reachable {
		or, nr := old.Reachable[s], new.Reachable[s]
		oc, nc := old.PathCount[s], new.PathCount[s]
		if len(or) != len(nr) {
			return nil
		}
		// Rows alias each other across copy-on-write snapshots unless the
		// writer replaced them; skip shared rows without scanning.
		if len(nr) > 0 && &or[0] == &nr[0] {
			continue
		}
		for t := range nr {
			if or[t] != nr[t] || oc[t] != nc[t] {
				out = append(out, CellDelta{
					Src: s, Dst: t,
					FromReachable: or[t], ToReachable: nr[t],
					FromPaths: oc[t], ToPaths: nc[t],
				})
			}
		}
	}
	return out
}
