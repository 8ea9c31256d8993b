// Package tables parses forwarding-state snapshots — switch MAC tables and
// router forwarding tables — and prepares them for SEFL model generation.
// This is the paper's "parsers that take switch MAC tables [and] router
// forwarding tables ... and automatically generate the corresponding SEFL
// models" (§7.1); the SEFL generation itself lives in internal/models.
package tables

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"

	"symnet/internal/expr"
	"symnet/internal/sefl"
)

// MACEntry is one switch MAC-table row: MAC address, VLAN, output port.
type MACEntry struct {
	MAC  uint64
	VLAN int
	Port int
}

// Valid reports whether e is an entry ParseMACTable could yield: a 48-bit
// address, and a VLAN and port that are not negative.
func (e MACEntry) Valid() bool { return e.MAC <= expr.Mask(48) && e.VLAN >= 0 && e.Port >= 0 }

// MACTable is a parsed switch MAC table.
type MACTable []MACEntry

// ParseMACTable reads a MAC-table snapshot. Each non-comment line has the
// form:
//
//	<vlan> <mac> <port>
//
// e.g. "302 00:1a:2b:3c:4d:5e 7". '#' starts a comment. Malformed input —
// a bad address, a negative VLAN or port — is an error naming the line.
func ParseMACTable(r io.Reader) (MACTable, error) {
	var t chunks[MACEntry]
	err := scanLines(r, "mac table", 3, func(f [][]byte) error {
		vlan, err := parseUint31(f[0])
		if err != nil {
			return fmt.Errorf("bad vlan: %v", err)
		}
		mac, err := ParseMAC(f[1])
		if err != nil {
			return err
		}
		port, err := parseUint31(f[2])
		if err != nil {
			return fmt.Errorf("bad port: %v", err)
		}
		t.add(MACEntry{MAC: mac, VLAN: int(vlan), Port: int(port)})
		return nil
	})
	return t.slice(), err
}

// Ports returns the sorted set of output ports used by the table.
func (t MACTable) Ports() []int {
	seen := map[int]bool{}
	for _, e := range t {
		seen[e.Port] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// ByPort groups MAC addresses by output port (sorted ports, sorted MACs).
func (t MACTable) ByPort() map[int][]uint64 {
	out := make(map[int][]uint64)
	for _, e := range t {
		out[e.Port] = append(out[e.Port], e.MAC)
	}
	for p := range out {
		sort.Slice(out[p], func(i, j int) bool { return out[p][i] < out[p][j] })
	}
	return out
}

// Route is one forwarding-table entry: destination prefix and output port.
type Route struct {
	Prefix uint64 // network address, host bits zero
	Len    int    // prefix length in bits
	Port   int
}

// Valid reports whether r is a route ParseFIB could yield: an IPv4 prefix
// with no host bits, to a port that is not negative.
func (r Route) Valid() bool {
	return r.Len >= 0 && r.Len <= 32 && r.Prefix&^expr.PrefixMask(r.Len, 32) == 0 && r.Port >= 0
}

func (r Route) String() string {
	return fmt.Sprintf("%s/%d->%d", sefl.NumberToIP(r.Prefix), r.Len, r.Port)
}

// FIB is a parsed router forwarding table.
type FIB []Route

// ParseFIB reads a forwarding-table snapshot. Each non-comment line has the
// form:
//
//	<prefix>/<len> <port>
//
// e.g. "10.0.0.0/8 0". Malformed input is an error naming the line.
func ParseFIB(r io.Reader) (FIB, error) {
	var f chunks[Route]
	err := scanLines(r, "fib", 2, func(fs [][]byte) error {
		pfx, plen, err := ParsePrefix(fs[0])
		if err != nil {
			return err
		}
		port, err := parseUint31(fs[1])
		if err != nil {
			return fmt.Errorf("bad port: %v", err)
		}
		f.add(Route{Prefix: pfx, Len: plen, Port: int(port)})
		return nil
	})
	return f.slice(), err
}

// The parsers are generic over the text's type so that a snapshot's lines
// are parsed in the scanner's buffer, without a string per field; %q renders
// bytes as it renders the string, so the errors read the same.

// ParsePrefix parses "a.b.c.d/len" into a masked network address and length.
func ParsePrefix[S string | []byte](s S) (uint64, int, error) {
	slash := indexByte(s, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("missing / in prefix %q", s)
	}
	plen, ok := atoiSmall(s[slash+1:])
	if !ok || plen > 32 {
		return 0, 0, fmt.Errorf("bad prefix length in %q", s)
	}
	addr, err := ParseIPv4(s[:slash])
	if err != nil {
		return 0, 0, err
	}
	return addr & expr.PrefixMask(plen, 32), plen, nil
}

// ParseIPv4 parses a dotted-quad IPv4 address ("10.0.0.1").
func ParseIPv4[S string | []byte](s S) (uint64, error) {
	v, ok := parseOctets(s, 4, '.', 10)
	if !ok {
		return 0, fmt.Errorf("bad IPv4 literal %q", s)
	}
	return v, nil
}

// ParseMAC parses a colon-separated MAC address ("00:1a:2b:3c:4d:5e").
func ParseMAC[S string | []byte](s S) (uint64, error) {
	v, ok := parseOctets(s, 6, ':', 16)
	if !ok {
		return 0, fmt.Errorf("bad MAC literal %q", s)
	}
	return v, nil
}

func indexByte[S string | []byte](s S, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// atoiSmall accepts what strconv.Atoi accepts — an optional sign, then
// decimal digits — when the value is not negative; it stops counting at
// 1024, past any prefix length.
func atoiSmall[S string | []byte](s S) (int, bool) {
	neg := len(s) > 0 && s[0] == '-'
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		s = s[1:]
	}
	v := 0
	for i := 0; i < len(s); i++ {
		d := int(s[i]) - '0'
		if d < 0 || d > 9 {
			return 0, false
		}
		v = min(v*10+d, 1<<10)
	}
	return v, len(s) > 0 && (!neg || v == 0)
}

// parseUint31 is strconv.ParseUint(string(b), 10, 31), which it calls only
// to report an error.
func parseUint31(b []byte) (uint64, error) {
	v, ok := uint64(0), len(b) > 0
	for _, c := range b {
		ok = ok && c >= '0' && c <= '9' && v < 1<<31
		v = v*10 + uint64(c-'0')
	}
	if ok && v < 1<<31 {
		return v, nil
	}
	return strconv.ParseUint(string(b), 10, 31)
}

// parseOctets reads n groups of base-10 or base-16 digits, each worth at
// most 255 and separated by sep, into one number: the dotted quad and the
// colon-separated MAC are the same grammar. It allocates nothing.
func parseOctets[S string | []byte](s S, n int, sep byte, base uint64) (uint64, bool) {
	var v, b uint64
	digits, groups := 0, 1
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == sep && digits > 0 {
			v, b, digits, groups = v<<8|b, 0, 0, groups+1
			continue
		}
		d := uint64(c - '0')
		if d > 9 {
			d = uint64(c|0x20-'a') + 10 // 10..15 for a-f and A-F only
		}
		if b = b*base + d; d >= base || b > 255 {
			return 0, false
		}
		digits++
	}
	return v<<8 | b, digits > 0 && groups == n
}

// Ports returns the sorted set of output ports used by the FIB.
func (f FIB) Ports() []int {
	seen := map[int]bool{}
	for _, r := range f {
		seen[r.Port] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// CompiledRoute is a route plus the more-specific prefixes that must NOT
// match for the route to apply (the paper's "!a & b" longest-prefix-match
// compilation, §7).
type CompiledRoute struct {
	Route
	Exclusions []Route
}

// MaxRoutes is the most routes CompileLPM takes: it packs a route's position
// in the FIB into 26 bits.
const MaxRoutes = 1<<26 - 1

// CompileLPM computes, for every route, its covering exclusions: all strictly
// more-specific routes contained in it. Duplicate (prefix, len) entries keep
// the first occurrence, matching typical FIB snapshot semantics. Routes come
// out most specific first (length descending, then prefix ascending), and so
// does every route's exclusion list. Every route must be Valid — an IPv4
// prefix with its host bits zero, as ParsePrefix leaves it — and there must
// be at most MaxRoutes of them; models.Router refuses a FIB that is not.
//
// It is one radix sort of packed keys and two sweeps. A route's key is
// prefix<<32 | len<<26 | position, so the keys in ascending order are the
// routes by (prefix, length) with the first of each duplicate ahead of the
// rest, and key>>26 names the route. In that order a route follows every
// route that contains it, so the routes still open form a stack, kept as
// each route's link to its nearest container, and a route is an exclusion
// of every link in its chain. The first sweep counts; the second visits the
// routes in output order and files each with its containers, which leaves
// every list in output order unsorted. The lists share one backing array.
func CompileLPM(f FIB) []CompiledRoute {
	const at = 1<<26 - 1 // a key's position bits
	length := func(k uint64) int { return int(k >> 26 & 63) }
	// One array: the keys, then the sort's buffer, which then holds the
	// ports of the distinct routes.
	keys := make([]uint64, 2*len(f))
	keys, port := keys[:len(f)], keys[len(f):]
	for i, r := range f {
		keys[i] = r.Prefix<<32 | uint64(r.Len)<<26 | uint64(i)
	}
	sortKeys(keys, port)
	// Sorted, the keys visit f in no order, so f is read once, here.
	rs := keys[:0] // the distinct routes, by (prefix, length)
	for _, k := range keys {
		if len(rs) == 0 || k>>26 != rs[len(rs)-1]>>26 {
			port[len(rs)] = uint64(f[k&at].Port)
			rs = append(rs, k)
		}
	}
	route := func(i int32) Route {
		return Route{Prefix: rs[i] >> 32, Len: length(rs[i]), Port: int(port[i])}
	}

	parent := make([]int32, len(rs)) // nearest container of rs[i], -1 for none
	pos := make([]int32, len(rs))    // how many routes rs[i] contains
	var bucket [34]int32             // bucket[33-l]: routes of length l
	for i, k := range rs {
		// The stack's top is the previous route; pop what has closed: a
		// route ends at its prefix with the host bits set.
		a := int32(i) - 1
		for a >= 0 && k>>32 > rs[a]>>32|expr.Mask(32)>>length(rs[a]) {
			a = parent[a]
		}
		parent[i] = a
		for ; a >= 0; a = parent[a] {
			pos[a]++
		}
		bucket[33-length(k)]++
	}

	// Output order: rs is prefix-ascending already, so dealing it out by
	// length, longest first, is all the sorting that is left.
	for b := 1; b < len(bucket); b++ {
		bucket[b] += bucket[b-1]
	}
	order := make([]int32, len(rs))
	for i, k := range rs {
		order[bucket[32-length(k)]] = int32(i)
		bucket[32-length(k)]++
	}

	// pos turns from a count into the next free slot of rs[i]'s list, so in
	// the end that list stops at pos[i] and starts where its predecessor's
	// stops.
	total := int32(0)
	for i, n := range pos {
		pos[i], total = total, total+n
	}
	excl := make([]Route, total)
	for _, i := range order {
		r := route(i)
		for a := parent[i]; a >= 0; a = parent[a] {
			excl[pos[a]] = r
			pos[a]++
		}
	}
	out := make([]CompiledRoute, len(rs))
	for k, i := range order {
		out[k].Route = route(i)
		lo := int32(0)
		if i > 0 {
			lo = pos[i-1]
		}
		if hi := pos[i]; hi > lo {
			out[k].Exclusions = excl[lo:hi:hi]
		}
	}
	return out
}

// sortKeys sorts CompileLPM's keys, through buf (as long as keys), by their
// bits 26 to 63: an LSD radix sort of four 10-bit digits, stable, so keys
// that enter in position order leave as if sorted whole. The fourth pass
// writes into keys.
func sortKeys(keys, buf []uint64) {
	var counts [4][1 << 10]int32
	for _, k := range keys {
		counts[0][k>>26&1023]++
		counts[1][k>>36&1023]++
		counts[2][k>>46&1023]++
		counts[3][k>>56]++
	}
	src, dst := keys, buf
	for d := range counts {
		shift, c := 26+10*d, &counts[d]
		sum := int32(0)
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, k := range src {
			b := k >> shift & 1023
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
}

// NumExclusions returns the total number of exclusion constraints produced
// by CompileLPM output (the paper reports 183,000 additional constraints
// for the 188,500-entry table).
func NumExclusions(cs []CompiledRoute) int {
	n := 0
	for _, c := range cs {
		n += len(c.Exclusions)
	}
	return n
}

// scanLines feeds the want whitespace-separated fields of every non-comment
// line to row, and wraps what row (or a wrong field count) reports with the
// table kind and the line number. The fields alias the scanner's buffer and
// one reused array, so they are only valid during the call.
func scanLines(r io.Reader, what string, want int, row func(fields [][]byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<24)
	fields := make([][]byte, 0, want)
	for line := 1; sc.Scan(); line++ {
		s, _, _ := bytes.Cut(sc.Bytes(), []byte{'#'})
		fields = fields[:0]
		for s = bytes.TrimLeft(s, " \t\r"); len(s) > 0; s = bytes.TrimLeft(s, " \t\r") {
			end := bytes.IndexAny(s, " \t\r")
			if end < 0 {
				end = len(s)
			}
			fields, s = append(fields, s[:end]), s[end:]
		}
		if len(fields) == 0 {
			continue
		}
		if len(fields) != want {
			return fmt.Errorf("tables: %s line %d: want %d fields, got %d", what, line, want, len(fields))
		}
		if err := row(fields); err != nil {
			return fmt.Errorf("tables: %s line %d: %v", what, line, err)
		}
	}
	return sc.Err()
}

// chunks collects parsed rows in blocks that never move and copies them into
// one exact slice at the end: appending to one slice instead copies every
// row several times over as it grows and leaves up to a fifth of the last
// array unused.
type chunks[T any] struct {
	full [][]T
	cur  []T
	n    int
}

func (c *chunks[T]) add(v T) {
	if len(c.cur) == cap(c.cur) {
		if c.cur != nil {
			c.full = append(c.full, c.cur)
		}
		c.cur = make([]T, 0, 64<<min(len(c.full), 7)) // 64, 128, ..., 8192
	}
	c.cur = append(c.cur, v)
	c.n++
}

// slice returns the rows in order, nil when there are none.
func (c *chunks[T]) slice() []T {
	if c.n == 0 {
		return nil
	}
	out := make([]T, 0, c.n)
	for _, b := range c.full {
		out = append(out, b...)
	}
	return append(out, c.cur...)
}
