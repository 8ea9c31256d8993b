package tables

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"symnet/internal/sefl"
)

func TestParseMACTable(t *testing.T) {
	in := `# vlan mac port
302 00:1a:2b:3c:4d:5e 7
304 00:1a:2b:3c:4d:5f 2  # lab host
`
	tbl, err := ParseMACTable(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl) != 2 {
		t.Fatalf("entries = %d", len(tbl))
	}
	if tbl[0].VLAN != 302 || tbl[0].Port != 7 || tbl[0].MAC != sefl.MACToNumber("00:1a:2b:3c:4d:5e") {
		t.Fatalf("entry 0: %+v", tbl[0])
	}
	ports := tbl.Ports()
	if len(ports) != 2 || ports[0] != 2 || ports[1] != 7 {
		t.Fatalf("ports: %v", ports)
	}
}

func TestParseMACTableErrors(t *testing.T) {
	if _, err := ParseMACTable(strings.NewReader("302 00:1a:2b:3c:4d:5e")); err == nil {
		t.Fatal("missing field must error")
	}
	if _, err := ParseMACTable(strings.NewReader("x 00:1a:2b:3c:4d:5e 1")); err == nil {
		t.Fatal("bad vlan must error")
	}
}

// TestParsersRejectBadInput: malformed addresses used to panic inside
// sefl.IPToNumber/MACToNumber and negative ports parsed; both are errors
// that name the line.
func TestParsersRejectBadInput(t *testing.T) {
	fibs := []string{
		"10.0.0/8 1", "10.0.0.0.0/8 1", "10.0.0.256/8 1", "10..0.0/8 1", "10.0.0.x/8 1", "/8 1",
		"10.0.0.0/33 1", "10.0.0.0 1", "10.0.0.0/8 -1", "10.0.0.0/8 x", "10.0.0.0/8",
	}
	for _, in := range fibs {
		_, err := ParseFIB(strings.NewReader("0.0.0.0/0 0\n# comment\n" + in + "\n"))
		if err == nil || !strings.Contains(err.Error(), "fib line 3") {
			t.Errorf("ParseFIB(%q) = %v, want an error naming line 3", in, err)
		}
	}
	macs := []string{
		"1 00:1a:2b:3c:4d 7", "1 00:1a:2b:3c:4d:5e:6f 7", "1 00:1a:2b:3c:4d:5g 7", "1 00:1a:2b:3c:4d:100 7",
		"1 00:1a::3c:4d:5e 7", "-1 00:1a:2b:3c:4d:5e 7", "1 00:1a:2b:3c:4d:5e -7", "1 00:1a:2b:3c:4d:5e",
	}
	for _, in := range macs {
		_, err := ParseMACTable(strings.NewReader("\n" + in + "\n"))
		if err == nil || !strings.Contains(err.Error(), "mac table line 2") {
			t.Errorf("ParseMACTable(%q) = %v, want an error naming line 2", in, err)
		}
	}
	// What the panicking parsers accepted still parses: leading zeros, upper
	// case, tabs and trailing comments.
	fib, err := ParseFIB(strings.NewReader("\t010.001.0.0/16\t 3 # core\r\n"))
	if err != nil || len(fib) != 1 || fib[0] != (Route{Prefix: 10<<24 | 1<<16, Len: 16, Port: 3}) {
		t.Fatalf("lenient FIB line: %v %v", fib, err)
	}
	mt, err := ParseMACTable(strings.NewReader("302 00:1A:2b:3:4d:5E 7"))
	if err != nil || len(mt) != 1 || mt[0].MAC != 0x001a2b034d5e {
		t.Fatalf("lenient MAC line: %v %v", mt, err)
	}
}

// TestParseFIBAllocations: the parser allocates per table, not per line —
// no string per line or field, no octet slices, and the result grows in
// chunks that are copied once.
func TestParseFIBAllocations(t *testing.T) {
	var sb strings.Builder
	const lines = 1000
	for i := 0; i < lines; i++ {
		sb.WriteString("10.1.2.0/24 5\n")
	}
	in := sb.String()
	avg := testing.AllocsPerRun(5, func() {
		if _, err := ParseFIB(strings.NewReader(in)); err != nil {
			t.Fatal(err)
		}
	})
	// The scanner and its buffer, five chunks and their list, the copy.
	t.Logf("ParseFIB: %.0f allocations for %d lines", avg, lines)
	if avg > 20 {
		t.Fatalf("ParseFIB allocated %.0f times for %d lines", avg, lines)
	}
}

func TestParseFIB(t *testing.T) {
	in := `10.0.0.0/8 0
192.168.0.0/24 1
0.0.0.0/0 2
`
	fib, err := ParseFIB(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(fib) != 3 {
		t.Fatalf("routes = %d", len(fib))
	}
	if fib[0].Prefix != sefl.IPToNumber("10.0.0.0") || fib[0].Len != 8 {
		t.Fatalf("route 0: %+v", fib[0])
	}
	if fib[2].Len != 0 || fib[2].Prefix != 0 {
		t.Fatalf("default route: %+v", fib[2])
	}
}

func TestParsePrefixMasksHostBits(t *testing.T) {
	pfx, plen, err := ParsePrefix("10.1.2.3/8")
	if err != nil {
		t.Fatal(err)
	}
	if plen != 8 || pfx != sefl.IPToNumber("10.0.0.0") {
		t.Fatalf("prefix %x/%d; host bits must be masked", pfx, plen)
	}
	if _, _, err := ParsePrefix("10.0.0.0/33"); err == nil {
		t.Fatal("prefix length 33 must error")
	}
	if _, _, err := ParsePrefix("10.0.0.0"); err == nil {
		t.Fatal("missing length must error")
	}
}

func TestCompileLPM(t *testing.T) {
	// The paper's §7 example table.
	fib := FIB{
		{Prefix: sefl.IPToNumber("192.168.0.1"), Len: 32, Port: 0},
		{Prefix: sefl.IPToNumber("10.0.0.0"), Len: 8, Port: 0},
		{Prefix: sefl.IPToNumber("192.168.0.0"), Len: 24, Port: 1},
		{Prefix: sefl.IPToNumber("10.10.0.1"), Len: 32, Port: 1},
	}
	cs := CompileLPM(fib)
	if len(cs) != 4 {
		t.Fatalf("compiled routes = %d", len(cs))
	}
	// Most specific first.
	if cs[0].Len != 32 || cs[1].Len != 32 {
		t.Fatalf("ordering: %+v", cs)
	}
	byStr := map[string]CompiledRoute{}
	for _, c := range cs {
		byStr[c.Route.String()] = c
	}
	// 10/8 must exclude 10.10.0.1/32.
	ten := byStr["10.0.0.0/8->0"]
	if len(ten.Exclusions) != 1 || ten.Exclusions[0].Len != 32 {
		t.Fatalf("10/8 exclusions: %+v", ten.Exclusions)
	}
	// 192.168.0.0/24 must exclude 192.168.0.1/32.
	net24 := byStr["192.168.0.0/24->1"]
	if len(net24.Exclusions) != 1 || net24.Exclusions[0].Prefix != sefl.IPToNumber("192.168.0.1") {
		t.Fatalf("/24 exclusions: %+v", net24.Exclusions)
	}
	// Host routes have no exclusions.
	if len(byStr["192.168.0.1/32->0"].Exclusions) != 0 {
		t.Fatal("host route must have no exclusions")
	}
	if got := NumExclusions(cs); got != 2 {
		t.Fatalf("total exclusions = %d", got)
	}
}

func TestCompileLPMChain(t *testing.T) {
	// Nested prefixes: /8 ⊃ /16 ⊃ /24; the /8 excludes both, /16 excludes
	// the /24.
	fib := FIB{
		{Prefix: sefl.IPToNumber("10.0.0.0"), Len: 8, Port: 0},
		{Prefix: sefl.IPToNumber("10.1.0.0"), Len: 16, Port: 1},
		{Prefix: sefl.IPToNumber("10.1.2.0"), Len: 24, Port: 2},
	}
	cs := CompileLPM(fib)
	byLen := map[int]CompiledRoute{}
	for _, c := range cs {
		byLen[c.Len] = c
	}
	if len(byLen[8].Exclusions) != 2 {
		t.Fatalf("/8 exclusions: %+v", byLen[8].Exclusions)
	}
	if len(byLen[16].Exclusions) != 1 {
		t.Fatalf("/16 exclusions: %+v", byLen[16].Exclusions)
	}
	if len(byLen[24].Exclusions) != 0 {
		t.Fatalf("/24 exclusions: %+v", byLen[24].Exclusions)
	}
}

func TestCompileLPMDeduplicates(t *testing.T) {
	fib := FIB{
		{Prefix: sefl.IPToNumber("10.0.0.0"), Len: 8, Port: 0},
		{Prefix: sefl.IPToNumber("10.0.0.0"), Len: 8, Port: 1}, // duplicate, dropped
	}
	cs := CompileLPM(fib)
	if len(cs) != 1 || cs[0].Port != 0 {
		t.Fatalf("dedup: %+v", cs)
	}
}

func TestMACTableRoundTrip(t *testing.T) {
	in := MACTable{
		{MAC: 0x001a2b3c4d5e, VLAN: 302, Port: 7},
		{MAC: 0xaabbccddeeff, VLAN: 1, Port: 0},
	}
	var buf strings.Builder
	if _, err := in.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ParseMACTable(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("entry %d: %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestFIBRoundTrip(t *testing.T) {
	in := FIB{
		{Prefix: 0x0a000000, Len: 8, Port: 0},
		{Prefix: 0xc0a80100, Len: 24, Port: 3},
		{Prefix: 0xc0a80101, Len: 32, Port: 5},
	}
	var buf strings.Builder
	if _, err := in.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ParseFIB(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("route %d: %+v, want %+v", i, out[i], in[i])
		}
	}
}

// portsByMap is FIB.Ports and MACTable.Ports as they were: a set in a map,
// then sorted.
func portsByMap(ports []int) []int {
	seen := map[int]bool{}
	for _, p := range ports {
		seen[p] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// TestPortsMatchMapSet: Ports equals the map-and-sort set on random tables:
// empty ones, repeated ports, small and large ports, negative ones and ones
// far past the table's size.
func TestPortsMatchMapSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 3000 {
		n := rng.Intn(40)
		spread := []int{1, 4, 16, 256, 1000, 1 << 31}[rng.Intn(6)]
		ports := make([]int, n)
		fib, mac := make(FIB, n), make(MACTable, n)
		for i := range ports {
			ports[i] = rng.Intn(spread)
			if rng.Intn(20) == 0 {
				ports[i] = -ports[i] - 1
			}
			fib[i].Port, mac[i].Port = ports[i], ports[i]
		}
		want := portsByMap(ports)
		if got := fib.Ports(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: FIB.Ports of %v = %v, want %v", trial, ports, got, want)
		}
		if got := mac.Ports(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: MACTable.Ports of %v = %v, want %v", trial, ports, got, want)
		}
	}
}
