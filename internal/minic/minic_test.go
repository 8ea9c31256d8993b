package minic

import (
	"testing"

	"symnet/internal/expr"
)

func TestConcreteExecution(t *testing.T) {
	// x = 3; y = x + 4; if (y > 5) r = 1 else r = 2; return r.
	prog := &program{
		Vars: map[string]uint64{"x": 3, "y": 0, "r": 0},
		Body: []stmt{
			assign{Name: "y", E: add(ref("x"), num(4))},
			ifStmt{Cond: gt(ref("y"), num(5)), Then: []stmt{assign{Name: "r", E: num(1)}}, Else: []stmt{assign{Name: "r", E: num(2)}}},
			returnStmt{E: ref("r")},
		},
	}
	res := Run(prog, Limits{}, nil)
	if len(res.Paths) != 1 {
		t.Fatalf("concrete program must have one path, got %d", len(res.Paths))
	}
	if res.Paths[0].Status != Returned {
		t.Fatalf("status %v", res.Paths[0].Status)
	}
	if v, _ := res.Paths[0].Ret.ConstVal(); v != 1 {
		t.Fatalf("returned %d", v)
	}
}

func TestSymbolicBranchForks(t *testing.T) {
	prog := &program{
		Arrays:         map[string]int{"a": 1},
		SymbolicArrays: []string{"a"},
		Vars:           map[string]uint64{"x": 0},
		Body: []stmt{
			assign{Name: "x", E: at("a", num(0))},
			ifStmt{Cond: gt(ref("x"), num(10)), Then: []stmt{returnStmt{E: num(1)}}, Else: []stmt{returnStmt{E: num(0)}}},
		},
	}
	res := Run(prog, Limits{}, nil)
	if len(res.Paths) != 2 {
		t.Fatalf("symbolic branch must fork into 2 paths, got %d", len(res.Paths))
	}
	rets := map[uint64]bool{}
	for _, p := range res.Paths {
		v, _ := p.Ret.ConstVal()
		rets[v] = true
	}
	if !rets[0] || !rets[1] {
		t.Fatalf("returns %v", rets)
	}
}

func TestConcreteLoop(t *testing.T) {
	// sum = 0; i = 0; while (i < 5) { sum += i; i++ } — single path.
	prog := &program{
		Vars: map[string]uint64{"sum": 0, "i": 0},
		Body: []stmt{
			while{Cond: lt(ref("i"), num(5)), Body: []stmt{
				assign{Name: "sum", E: add(ref("sum"), ref("i"))},
				assign{Name: "i", E: add(ref("i"), num(1))},
			}},
			returnStmt{E: ref("sum")},
		},
	}
	res := Run(prog, Limits{}, nil)
	if len(res.Paths) != 1 {
		t.Fatalf("paths = %d", len(res.Paths))
	}
	if v, _ := res.Paths[0].Ret.ConstVal(); v != 10 {
		t.Fatalf("sum = %d", v)
	}
}

func TestOutOfBoundsDetected(t *testing.T) {
	prog := &program{
		Arrays:         map[string]int{"a": 4},
		SymbolicArrays: []string{"a"},
		Vars:           map[string]uint64{"i": 0},
		Body: []stmt{
			assign{Name: "i", E: at("a", num(0))}, // i in [0,255]
			store{Array: "a", Idx: ref("i"), E: num(7)},
			returnStmt{E: num(0)},
		},
	}
	res := Run(prog, Limits{}, nil)
	var mem, ok int
	for _, p := range res.Paths {
		switch p.Status {
		case MemError:
			mem++
		case Returned:
			ok++
		}
	}
	if mem != 1 {
		t.Fatalf("memory-error paths = %d, want 1 (index can exceed bounds)", mem)
	}
	if ok != 4 {
		t.Fatalf("in-bounds paths = %d, want 4 (one per feasible index)", ok)
	}
}

func TestSwitchForks(t *testing.T) {
	prog := &program{
		Arrays:         map[string]int{"a": 1},
		SymbolicArrays: []string{"a"},
		Vars:           map[string]uint64{"x": 0},
		Body: []stmt{
			assign{Name: "x", E: at("a", num(0))},
			switchStmt{E: ref("x"),
				Cases: []switchCase{
					{Val: 0, Body: []stmt{returnStmt{E: num(10)}}},
					{Val: 1, Body: []stmt{returnStmt{E: num(11)}}},
				},
				Default: []stmt{returnStmt{E: num(12)}},
			},
		},
	}
	res := Run(prog, Limits{}, nil)
	if len(res.Paths) != 3 {
		t.Fatalf("switch must fork 3 ways, got %d", len(res.Paths))
	}
}

// TestTable1PathCounts reproduces the path-count column of Table 1: the
// number of Klee paths on the Fig. 1 options-parsing code for option-field
// lengths 1..7 (3, 8, 19, 45, 106, 248, 510 in the paper).
func TestTable1PathCounts(t *testing.T) {
	want := map[int]int{1: 3, 2: 8, 3: 19}
	for length := 1; length <= 3; length++ {
		res := Run(OptionsProgram(length, DefaultASAConfig()), Limits{}, nil)
		if res.Exhausted {
			t.Fatalf("length %d exhausted budget", length)
		}
		if got := len(res.Paths); got != want[length] {
			t.Errorf("length %d: paths = %d, want %d", length, got, want[length])
		}
	}
}

func TestTable1Growth(t *testing.T) {
	if testing.Short() {
		t.Skip("exponential growth check")
	}
	var prev int
	for length := 1; length <= 7; length++ {
		res := Run(OptionsProgram(length, DefaultASAConfig()), Limits{}, nil)
		got := len(res.Paths)
		t.Logf("length %d: %d paths, %d steps", length, got, res.TotalSteps)
		if length > 2 && got < prev*2 {
			t.Errorf("length %d: growth stalled (%d -> %d), expected ~exponential", length, prev, got)
		}
		prev = got
	}
}

func TestOptionsMemorySafety(t *testing.T) {
	// The parsing code itself never reads out of the 40-byte buffer for
	// small lengths: Klee "proves that the parsing code is memory safe ...
	// when options length is less than or equal to six".
	res := Run(OptionsProgram(4, DefaultASAConfig()), Limits{}, nil)
	for _, p := range res.Paths {
		if p.Status == MemError {
			t.Fatal("options parsing must be memory-safe at length 4")
		}
	}
}

func TestOptionsDropPath(t *testing.T) {
	// With an MD5 option (kind 19, DROP class), some path must return 0.
	res := Run(OptionsProgram(2, DefaultASAConfig()), Limits{}, nil)
	dropped := false
	for _, p := range res.Paths {
		if p.Status == Returned {
			if v, isConst := p.Ret.ConstVal(); isConst && v == 0 {
				dropped = true
				// The dropping path must have opcode == 19 feasible.
				op := p.Vars["opcode"]
				if !p.Ctx.Domain(op).Contains(OptMD5) {
					t.Fatal("drop path must be the MD5 option")
				}
			}
		}
	}
	if !dropped {
		t.Fatal("no drop path found")
	}
}

func TestConcreteOptionsModel(t *testing.T) {
	res := Run(OptionsProgram(2, DefaultASAConfig()), Limits{}, nil)
	okPaths := 0
	for _, p := range res.Paths {
		if p.Status != Returned && p.Status != OffEnd {
			continue
		}
		buf, ok := ConcreteOptions(p)
		if !ok {
			t.Fatal("model generation failed on a feasible path")
		}
		if len(buf) != optionsBufLen {
			t.Fatalf("buffer length %d", len(buf))
		}
		okPaths++
	}
	if okPaths == 0 {
		t.Fatal("no feasible paths")
	}
}

func TestKilledOnBudget(t *testing.T) {
	// Unbounded loop must be killed by the step budget, not hang.
	prog := &program{
		Vars: map[string]uint64{"i": 0},
		Body: []stmt{
			while{Cond: bin{Op: opGe, L: ref("i"), R: num(0)}, Body: []stmt{
				assign{Name: "i", E: add(ref("i"), num(1))},
			}},
		},
	}
	res := Run(prog, Limits{MaxSteps: 100, TotalSteps: 1000}, nil)
	if !res.Exhausted {
		t.Fatal("budget must be marked exhausted")
	}
	sawKilled := false
	for _, p := range res.Paths {
		if p.Status == killed {
			sawKilled = true
		}
	}
	if !sawKilled {
		t.Fatal("some path must be killed")
	}
}

func TestParseOptionsHelper(t *testing.T) {
	buf := []uint64{1, 1, 2, 4, 0, 0, 8, 10}
	// NOP NOP MSS(len4: bytes 2-5) then EOL at index... MSS occupies 2,3,4,5;
	// index 6 is kind 8 len 10 but length runs out.
	kinds := ParseOptions(buf, 8)
	if len(kinds) != 1 || kinds[0] != 2 {
		t.Fatalf("kinds = %v", kinds)
	}
	var mask expr.Lin // silence unused import if expr usage changes
	_ = mask
}
