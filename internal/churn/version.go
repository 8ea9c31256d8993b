package churn

import (
	"symnet/internal/verify"
)

// PublishedReport is one immutable version of the resident all-pairs report.
// The single writer publishes a fresh copy-on-write snapshot per absorbed
// batch; any number of readers hold and traverse a published version without
// locks, while the writer patches the next one. A published report is never
// mutated again — re-verified rows are spliced into a CloneShallow copy.
type PublishedReport struct {
	// Version increases by exactly one per published snapshot (restores
	// included), starting at 1 for the initial verification.
	Version uint64
	// DeltasApplied counts the rule deltas absorbed into this version.
	DeltasApplied uint64
	// Report is the immutable all-pairs snapshot. Byte-identity to a
	// from-scratch verification of the rule set at this version is the
	// pinned invariant (see the differential tests).
	Report *verify.AllPairsReport
}

// current returns the latest published report version, lock-free. It is nil
// until Init has run.
func (s *Service) current() *PublishedReport {
	return s.cur.Load()
}

// publish installs rep as the next report version and fans the transitions
// against the previous version out to watchers. Only the single writer calls
// it; rep must not be mutated afterwards.
func (s *Service) publish(rep *verify.AllPairsReport, deltas int) *PublishedReport {
	ver, total := uint64(1), uint64(deltas)
	if prev := s.cur.Load(); prev != nil {
		ver = prev.Version + 1
		total = prev.DeltasApplied + uint64(deltas)
	}
	return s.publishAs(rep, ver, total)
}

// publishAs is publish with an explicit version and cumulative delta count
// (restoreState lifts the version past the snapshot's to keep the counter
// monotone).
func (s *Service) publishAs(rep *verify.AllPairsReport, ver, deltasTotal uint64) *PublishedReport {
	prev := s.cur.Load()
	next := &PublishedReport{Version: ver, DeltasApplied: deltasTotal, Report: rep}
	var flips []verify.CellDelta
	if prev != nil {
		flips = verify.DiffReports(prev.Report, rep)
	}
	s.cur.Store(next)
	s.report = rep
	s.versionGauge.Set(int64(next.Version))
	s.hub.broadcast(s.newEvent(next, flips))
	return next
}
