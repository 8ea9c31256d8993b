package tables

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
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
// routes; what it rejects it rejects naming a line of the input; every line
// the one-pass reader takes, the tokenizer reads as the same route; and,
// when its ports are below 64, each port's span table from LPMRows's sweep
// is the set its rows stand for, subtracted naively (naiveRowSpans).
func FuzzParseFIB(f *testing.F) {
	for _, s := range []string{
		"10.0.0.0/8 0\n192.168.0.0/24 1\n0.0.0.0/0 2\n",
		"\t010.001.0.0/16\t 3 # core\r\n",
		"10.0.0.0/+8 1\n10.0.0.0/-0 2\n10.1.0.0/-1 3\n",
		"10.0.0.0/8 2147483647\n10.0.0.0/8 2147483648\n",
		"# comment only\n\n   \n",
		"10.0.0.0/33 1", "10.0.0.256/8 1", "10.0.0.0/8", "10.0.0.0/8 +1",
		"010.1.2.3/08 007\n",
		"10.0.0.0/8\t1\r\n10.1.0.0/16 2\r\n",
		"10.0.0.0/8 1 # core\n10.0.0.0/8 1#core\n",
		"0.0.0.0/0 2147483647\n255.255.255.255/32 1234567890\n",
		"10.0.0.0/8 9999999999\n",
		"0.0.0.0/0 1\n10.0.0.0/8 2\n10.1.0.0/16 1\n10.1.2.0/24 3\n10.1.3.0/24 3\n11.0.0.0/8 2\n255.255.255.255/32 0\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			line := sc.Bytes()
			if f := bytes.Fields(bytes.SplitN(line, []byte{'#'}, 2)[0]); len(f) > 0 {
				pfx, plen, err := ParsePrefix(f[0])
				wpfx, wplen, werr := prefixOracle(string(f[0]))
				if pfx != wpfx || plen != wplen || fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("ParsePrefix(%q) = %#x/%d, %v; want %#x/%d, %v", f[0], pfx, plen, err, wpfx, wplen, werr)
				}
			}
			r, ok := routeLine(line)
			if !ok {
				continue
			}
			// A leading tab sends the line to the tokenizer.
			got, err := ParseFIB(bytes.NewReader(append([]byte{'\t'}, line...)))
			if err != nil || len(got) != 1 || got[0] != r {
				t.Fatalf("line %q: one pass reads %v, the tokenizer %v, %v", line, r, got, err)
			}
		}
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
		if ports := fib.Ports(); len(ports) == 0 || ports[len(ports)-1] < 64 {
			nports := 1
			if len(ports) > 0 {
				nports = ports[len(ports)-1] + 1
			}
			rows, spans := LPMRows(fib, nports)
			for p := range nports {
				want := expr.NewSpanTable(32, naiveRowSpans(rows[p]))
				if spans[p].Width() != want.Width() || !slices.Equal(spans[p].Spans(), want.Spans()) {
					t.Fatalf("port %d of %v: the sweep's spans %v, the rows' %v", p, fib, spans[p].Spans(), want.Spans())
				}
			}
		}
	})
}

// naiveRowSpans is the address set of a port's rows: each row's head range
// minus its exclusions, subtracted one at a time from a list of spans, the
// rows' lists appended.
func naiveRowSpans(rows []expr.GuardRow) []expr.Span {
	prefix := func(v uint64, plen int) expr.Span {
		return expr.Span{Lo: v, Hi: v | expr.Mask(32)&^expr.PrefixMask(plen, 32)}
	}
	var out []expr.Span
	for _, r := range rows {
		set := []expr.Span{prefix(r.V, r.Len)}
		for _, e := range r.Excl {
			x := prefix(e.V, e.Len)
			var rest []expr.Span
			for _, s := range set {
				if x.Hi < s.Lo || x.Lo > s.Hi {
					rest = append(rest, s)
					continue
				}
				if s.Lo < x.Lo {
					rest = append(rest, expr.Span{Lo: s.Lo, Hi: x.Lo - 1})
				}
				if x.Hi < s.Hi {
					rest = append(rest, expr.Span{Lo: x.Hi + 1, Hi: s.Hi})
				}
			}
			set = rest
		}
		out = append(out, set...)
	}
	return out
}

// prefixOracle is ParsePrefix read field by field with the standard library:
// the slash, the length as strconv.Atoi reads it, then the address.
func prefixOracle(s string) (uint64, int, error) {
	addr, length, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("missing / in prefix %q", s)
	}
	plen, err := strconv.Atoi(length)
	if err != nil || plen < 0 || plen > 32 {
		return 0, 0, fmt.Errorf("bad prefix length in %q", s)
	}
	v, err := ParseIPv4(addr)
	if err != nil {
		return 0, 0, err
	}
	return v & expr.PrefixMask(plen, 32), plen, nil
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
