package symnet

import (
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/models"
)

// coldAllocsPerRoute is the committed budget of TestColdCompileAllocBudget:
// 1.25 times the 2.80 allocations per route measured when the cold path
// became a sweep (it was 19.98 before). Most of what is left is the SEFL
// Or the router model still writes: one object per route, two per exclusion.
const coldAllocsPerRoute = 3.5

// TestColdCompileAllocBudget keeps the cold path linear without reading a
// clock: modelling a 20,000-route egress router and compiling it must stay
// under a fixed number of allocations per route. Anything that goes back to
// a set, a map entry or a condition node per exclusion shows here.
func TestColdCompileAllocBudget(t *testing.T) {
	const routes = 20000
	fib := datasets.CoreFIB(routes, 16, 1)
	avg := testing.AllocsPerRun(3, func() {
		net := core.NewNetwork()
		if err := models.Router(net.AddElement("R", "router", 1, 16), fib, models.Egress); err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(net, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	perRoute := avg / routes
	t.Logf("cold model + Compile: %.0f allocations for %d routes, %.2f per route (budget %.2f)", avg, routes, perRoute, coldAllocsPerRoute)
	if perRoute > coldAllocsPerRoute {
		t.Fatalf("%.2f allocations per route, budget %.2f", perRoute, coldAllocsPerRoute)
	}
}
