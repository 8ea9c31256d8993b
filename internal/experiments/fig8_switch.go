// Package experiments reproduces every table and figure of the paper's
// evaluation (§8). Each experiment builds its workload through
// internal/datasets, runs the systems under test, and returns rows shaped
// like the paper's tables so cmd/symbench can print them side by side.
package experiments

import (
	"fmt"
	"time"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/models"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// SwitchRow is one measurement of Fig. 8: symbolic execution of a switch
// model at a given table size.
type SwitchRow struct {
	Style     models.Style
	Entries   int
	Paths     int
	Time      time.Duration
	SolverOps int // conditions asserted
	SatChecks int
}

// RunSwitchModel builds a switch with the given MAC-table size and style,
// injects a packet with a symbolic destination MAC, and measures wall-clock
// verification time and path counts — one point of Fig. 8.
func RunSwitchModel(entries, numPorts int, style models.Style, seed int64) (SwitchRow, error) {
	tbl := datasets.SwitchTable(entries, numPorts, seed)
	net := core.NewNetwork()
	sw := net.AddElement("SW", "switch", 1, numPorts)
	if err := models.Switch(sw, tbl, style); err != nil {
		return SwitchRow{}, err
	}
	stats := &solver.Stats{}
	start := time.Now()
	res, err := core.Run(net, core.PortRef{Elem: "SW", Port: 0}, sefl.NewEthernetPacket(), core.Options{Stats: stats})
	if err != nil {
		return SwitchRow{}, err
	}
	elapsed := time.Since(start)
	return SwitchRow{
		Style:     style,
		Entries:   entries,
		Paths:     res.Stats.Paths,
		Time:      elapsed,
		SolverOps: stats.Adds,
		SatChecks: stats.SatChecks,
	}, nil
}

// fig8Sizes is the sweep of MAC-table sizes, following the paper's 440 to
// 500,000 range.
var fig8Sizes = []int{440, 1000, 5000, 20000, 100000, 480000}

// fig8Limit bounds the workload per style: the Basic model explodes (one
// path per entry — the paper ran out of 8 GB of RAM beyond 1,000 entries)
// and Ingress grows quadratically in constraints (2 minutes at 480k in the
// paper), so the sweep caps them to keep the benchmark finite, mirroring
// the paper's DNF entries. Egress scales to the whole sweep; its cap is the
// caller's.
func fig8Limit(style models.Style, egressMax int) int {
	switch style {
	case models.Basic:
		return 5000
	case models.Ingress:
		return 100000
	}
	return egressMax
}

// Fig8 runs the sweep and returns rows grouped per style, Egress up to
// egressMax entries (480000 covers the paper's range).
func Fig8(numPorts int, seed int64, egressMax int) ([]SwitchRow, error) {
	var rows []SwitchRow
	for _, style := range []models.Style{models.Basic, models.Ingress, models.Egress} {
		for _, n := range fig8Sizes {
			if n > fig8Limit(style, egressMax) {
				continue
			}
			row, err := RunSwitchModel(n, numPorts, style, seed)
			if err != nil {
				return nil, fmt.Errorf("fig8 %v/%d: %w", style, n, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
