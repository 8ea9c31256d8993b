package main

import (
	"strings"
	"testing"
)

// TestParseRunsValid: every advertised experiment name parses, alone and in
// comma-separated lists, case-insensitively and with stray spaces.
func TestParseRunsValid(t *testing.T) {
	for _, name := range validExperiments() {
		sel, err := parseRuns(name)
		if err != nil {
			t.Fatalf("parseRuns(%q): %v", name, err)
		}
		if !sel[name] {
			t.Fatalf("parseRuns(%q) did not select it: %v", name, sel)
		}
	}
	sel, err := parseRuns(" Table1 , SPLITTCP ,dept")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "splittcp", "dept"} {
		if !sel[want] {
			t.Fatalf("list parse missed %q: %v", want, sel)
		}
	}
}

// TestParseRunsUnknown: an unknown name errors out (instead of silently
// running nothing) and the message lists the valid vocabulary. The timing
// experiments are not part of it.
func TestParseRunsUnknown(t *testing.T) {
	for _, spec := range []string{"tabel1", "dept,bogus", "table1,,nope", "allpairs", "churn"} {
		_, err := parseRuns(spec)
		if err == nil {
			t.Fatalf("parseRuns(%q) accepted an unknown experiment", spec)
		}
		msg := err.Error()
		if !strings.Contains(msg, "unknown experiment") {
			t.Fatalf("parseRuns(%q) error lacks diagnosis: %v", spec, err)
		}
		for _, name := range []string{"table1", "splittcp", "dept", "all"} {
			if !strings.Contains(msg, name) {
				t.Fatalf("parseRuns(%q) error does not list valid name %q: %v", spec, name, err)
			}
		}
	}
	if _, err := parseRuns(" , "); err == nil {
		t.Fatal("empty -run list accepted")
	}
}
