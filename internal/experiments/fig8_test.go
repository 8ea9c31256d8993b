package experiments

import (
	"testing"

	"symnet/internal/models"
)

func TestFig8ShapeSmall(t *testing.T) {
	// At a modest size all three styles terminate; path counts must follow
	// the paper: Basic ≈ one path per entry, Ingress/Egress ≈ one per port.
	const entries, ports = 1000, 20
	basic, err := runSwitchModel(entries, ports, models.Basic, 1)
	if err != nil {
		t.Fatal(err)
	}
	ingress, err := runSwitchModel(entries, ports, models.Ingress, 1)
	if err != nil {
		t.Fatal(err)
	}
	egress, err := runSwitchModel(entries, ports, models.Egress, 1)
	if err != nil {
		t.Fatal(err)
	}
	if basic.Paths < entries {
		t.Fatalf("basic paths = %d, want >= %d (one per entry)", basic.Paths, entries)
	}
	if ingress.Paths > ports+1 || egress.Paths > ports+1 {
		t.Fatalf("grouped styles must have ~port-count paths: ingress=%d egress=%d", ingress.Paths, egress.Paths)
	}
	// Egress must not be slower than Basic at equal size.
	if egress.Time > basic.Time*2 {
		t.Fatalf("egress (%v) should not be much slower than basic (%v)", egress.Time, basic.Time)
	}
}

func TestFig8EgressScales(t *testing.T) {
	if testing.Short() {
		t.Skip("large sweep")
	}
	row, err := runSwitchModel(480000, 20, models.Egress, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("egress 480k: %v, %d paths, %d solver ops", row.Time, row.Paths, row.SolverOps)
	if row.Paths != 20 {
		t.Fatalf("egress 480k paths = %d, want 20", row.Paths)
	}
}
