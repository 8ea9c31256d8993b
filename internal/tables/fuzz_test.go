package tables

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"symnet/internal/expr"
)

// checkRejected holds a rejected snapshot's error to naming a line of the
// input: "tables: <what> line N: ..." with 1 <= N <= the number of lines.
// Only a line longer than the scanner's 16 MiB cap is rejected without one.
func checkRejected(t *testing.T, data []byte, what string, err error) {
	t.Helper()
	if errors.Is(err, bufio.ErrTooLong) {
		return
	}
	var line int
	if _, serr := fmt.Sscanf(err.Error(), "tables: "+what+" line %d:", &line); serr != nil {
		t.Fatalf("error %q names no line", err)
	}
	if lines := bytes.Count(data, []byte{'\n'}) + 1; line < 1 || line > lines {
		t.Fatalf("error %q names line %d of %d", err, line, lines)
	}
}

// FuzzParseFIB: ParseFIB never panics; every route it accepts is a prefix of
// length 0 to 32 with its host bits zero and a port that is not negative;
// what it accepts writes back (FIB.WriteTo) to text that parses to the same
// routes; and what it rejects it rejects naming a line of the input.
func FuzzParseFIB(f *testing.F) {
	for _, s := range []string{
		"10.0.0.0/8 0\n192.168.0.0/24 1\n0.0.0.0/0 2\n",
		"\t010.001.0.0/16\t 3 # core\r\n",
		"10.0.0.0/+8 1\n10.0.0.0/-0 2\n10.1.0.0/-1 3\n",
		"10.0.0.0/8 2147483647\n10.0.0.0/8 2147483648\n",
		"# comment only\n\n   \n",
		"10.0.0.0/33 1", "10.0.0.256/8 1", "10.0.0.0/8", "10.0.0.0/8 +1",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fib, err := ParseFIB(bytes.NewReader(data))
		if err != nil {
			checkRejected(t, data, "fib", err)
			return
		}
		for i, r := range fib {
			if r.Len < 0 || r.Len > 32 || r.Prefix&^expr.PrefixMask(r.Len, 32) != 0 || r.Port < 0 {
				t.Fatalf("route %d accepted as %+v", i, r)
			}
		}
		var buf bytes.Buffer
		if _, err := fib.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ParseFIB(&buf)
		if err != nil || !slices.Equal(back, fib) {
			t.Fatalf("WriteTo → ParseFIB: %v, %v; want %v", back, err, fib)
		}
	})
}

// FuzzParseMACTable: the same four properties for MAC tables — every entry
// it accepts has a 48-bit address and a VLAN and port that are not negative.
func FuzzParseMACTable(f *testing.F) {
	for _, s := range []string{
		"# vlan mac port\n302 00:1a:2b:3c:4d:5e 7\n304 00:1a:2b:3c:4d:5f 2  # lab host\n",
		"302 00:1A:2b:3:4d:5E 7\r\n",
		"1 ff:ff:ff:ff:ff:ff 2147483647\n1 00:00:00:00:00:00 2147483648\n",
		"1 00:1a::3c:4d:5e 7", "1 00:1a:2b:3c:4d:100 7", "-1 00:1a:2b:3c:4d:5e 7", "1 00:1a:2b:3c:4d:5e",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ParseMACTable(bytes.NewReader(data))
		if err != nil {
			checkRejected(t, data, "mac table", err)
			return
		}
		for i, e := range tbl {
			if e.MAC > expr.Mask(48) || e.VLAN < 0 || e.Port < 0 {
				t.Fatalf("entry %d accepted as %+v", i, e)
			}
		}
		var buf bytes.Buffer
		if _, err := tbl.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ParseMACTable(&buf)
		if err != nil || !slices.Equal(back, tbl) {
			t.Fatalf("WriteTo → ParseMACTable: %v, %v; want %v", back, err, tbl)
		}
	})
}
