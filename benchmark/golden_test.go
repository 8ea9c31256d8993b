package main

import (
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/allpairs_dept.golden from the reference recomputation")

// TestDeptGolden pins the department's all-pairs answer. The matrix is
// written by source and target name, so one file serves every seed.
func TestDeptGolden(t *testing.T) {
	for _, seed := range []int64{11, 12} {
		var x dept
		if err := x.generate(seed); err != nil {
			t.Fatal(err)
		}
		m, err := x.recompute()
		if err != nil {
			t.Fatal(err)
		}
		got := goldenText(x.sources, x.targets, m)
		if *update {
			if err := os.WriteFile("testdata/allpairs_dept.golden", []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			deptGolden = got
			continue
		}
		if got != deptGolden {
			t.Errorf("seed %d: recomputed matrix differs from testdata/allpairs_dept.golden (run go test -update to rewrite)", seed)
		}
	}
}
