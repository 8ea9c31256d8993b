package experiments

import (
	"fmt"
	"time"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/models"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// routerRow is one cell of Table 2: symbolic execution of a core-router
// model at a given prefix count. DNF marks combinations the sweep skips
// because the model style cannot complete them in reasonable resources
// (mirroring the paper's DNF entries).
type routerRow struct {
	Style      models.Style
	Prefixes   int
	Paths      int
	Time       time.Duration
	GenTime    time.Duration // model generation (LPM compilation) time
	Exclusions int
	DNF        bool
}

// table2Sizes follows the paper's 1%, 33%, 100% sweep of the 188,500-entry
// RouteViews snapshot.
var table2Sizes = []int{1600, 62500, 188500}

// table2Limits mirrors the paper's DNF entries: Basic only copes with the
// 1% table, Ingress gives up at 100%.
var table2Limits = map[models.Style]int{
	models.Basic:   1600,
	models.Ingress: 62500,
	models.Egress:  188500,
}

// RunRouterModel builds a router from the first n routes of fib and runs a
// packet with a symbolic destination address through it.
func RunRouterModel(fib tables.FIB, n, numPorts int, style models.Style) (routerRow, error) {
	sub := datasets.Subsample(fib, n)
	net := core.NewNetwork()
	r := net.AddElement("R", "router", 1, numPorts)
	genStart := time.Now()
	if err := models.Router(r, sub, style); err != nil {
		return routerRow{}, err
	}
	genTime := time.Since(genStart)
	start := time.Now()
	res, err := core.Run(net, core.PortRef{Elem: "R", Port: 0}, sefl.NewIPPacket(), core.Options{})
	if err != nil {
		return routerRow{}, err
	}
	return routerRow{
		Style:      style,
		Prefixes:   n,
		Paths:      res.Stats.Paths,
		Time:       time.Since(start),
		GenTime:    genTime,
		Exclusions: tables.NumExclusions(tables.CompileLPM(sub)),
	}, nil
}

// Table2 runs the full router sweep over a synthetic core FIB.
func Table2(numPorts int, seed int64) ([]routerRow, error) {
	fib := datasets.CoreFIB(table2Sizes[len(table2Sizes)-1], numPorts, seed)
	var rows []routerRow
	for _, style := range []models.Style{models.Basic, models.Ingress, models.Egress} {
		for _, n := range table2Sizes {
			if n > table2Limits[style] {
				rows = append(rows, routerRow{Style: style, Prefixes: n, DNF: true})
				continue
			}
			row, err := RunRouterModel(fib, n, numPorts, style)
			if err != nil {
				return nil, fmt.Errorf("table2 %v/%d: %w", style, n, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
