// Package tables parses forwarding-state snapshots — switch MAC tables and
// router forwarding tables — and prepares them for SEFL model generation.
// This is the paper's "parsers that take switch MAC tables [and] router
// forwarding tables ... and automatically generate the corresponding SEFL
// models" (§7.1); the SEFL generation itself lives in internal/models.
package tables

import (
	"bufio"
	"fmt"
	"io"
	"slices"
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
	err := scanLines(r, "mac table", 3, nil, func(f [][]byte) error {
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
	return portSet(t, func(e *MACEntry) int { return e.Port })
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
	err := scanLines(r, "fib", 2, func(line []byte) bool {
		rt, ok := routeLine(line)
		if ok {
			f.add(rt)
		}
		return ok
	}, func(fs [][]byte) error {
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

// routeLine reads a line as FIB.WriteTo writes it — "a.b.c.d/len port",
// one space between, nothing around — in one pass. It refuses any other
// line, which the tokenizer then reads or rejects.
func routeLine(s []byte) (Route, bool) {
	pfx, plen, _, n, ok := prefixAt(s)
	if !ok || plen < 0 || n+1 >= len(s) || s[n] != ' ' {
		return Route{}, false
	}
	port, ok := uint31(s[n+1:])
	return Route{Prefix: pfx, Len: plen, Port: int(port)}, ok
}

// The parsers are generic over the text's type so that a snapshot's lines
// are parsed in the scanner's buffer, without a string per field; %q renders
// bytes as it renders the string, so the errors read the same.

// ParsePrefix parses "a.b.c.d/len" into a masked network address and length.
func ParsePrefix[S string | []byte](s S) (uint64, int, error) {
	pfx, plen, slash, n, ok := prefixAt(s)
	switch {
	case slash < 0:
		return 0, 0, fmt.Errorf("missing / in prefix %q", s)
	case plen < 0 || n < len(s):
		return 0, 0, fmt.Errorf("bad prefix length in %q", s)
	case !ok:
		return 0, 0, fmt.Errorf("bad IPv4 literal %q", s[:slash])
	}
	return pfx, plen, nil
}

// prefixAt reads "a.b.c.d/len" off the front of s in one pass: four decimal
// octets of at most 255, separated by dots, up to the first slash; then a
// length as strconv.Atoi reads it — a sign, then digits — that is 0 to 32.
// It returns the masked address; the length, -1 when it does not read; the
// slash's index, -1 when there is none; and n, where the length's digits
// stop. ok is whether the octets read.
func prefixAt[S string | []byte](s S) (pfx uint64, plen, slash, n int, ok bool) {
	var b uint64
	digits, dots := 0, 0
	ok = true
	for ; n < len(s) && s[n] != '/'; n++ {
		switch c := s[n]; {
		case c >= '0' && c <= '9' && b*10+uint64(c-'0') <= 255:
			b, digits = b*10+uint64(c-'0'), digits+1
		case c == '.' && digits > 0 && dots < 3:
			pfx, b, digits, dots = pfx<<8|b, 0, 0, dots+1
		default:
			ok = false
		}
	}
	if n == len(s) {
		return 0, -1, -1, n, false
	}
	slash, n = n, n+1
	ok = ok && digits > 0 && dots == 3
	neg := n < len(s) && s[n] == '-'
	if neg || n < len(s) && s[n] == '+' {
		n++
	}
	from := n
	for ; n < len(s) && s[n] >= '0' && s[n] <= '9'; n++ {
		plen = min(plen*10+int(s[n]-'0'), 33)
	}
	if n == from || plen > 32 || neg && plen > 0 {
		plen = -1
	}
	if !ok || plen < 0 {
		return 0, plen, slash, n, ok
	}
	return (pfx<<8 | b) & expr.PrefixMask(plen, 32), plen, slash, n, true
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

// parseUint31 is strconv.ParseUint(string(b), 10, 31), which it calls only
// to report an error.
func parseUint31(b []byte) (uint64, error) {
	if v, ok := uint31(b); ok {
		return v, nil
	}
	return strconv.ParseUint(string(b), 10, 31)
}

// uint31 reads b as strconv.ParseUint(string(b), 10, 31) does; ok is false
// where that errs.
func uint31(b []byte) (uint64, bool) {
	v, ok := uint64(0), len(b) > 0
	for _, c := range b {
		ok = ok && c >= '0' && c <= '9' && v < 1<<31
		v = v*10 + uint64(c-'0')
	}
	return v, ok && v < 1<<31
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
	return portSet(f, func(r *Route) int { return r.Port })
}

// portSet returns the sorted set of the ports of a table's entries.
func portSet[T any](t []T, port func(*T) int) []int {
	out := make([]int, len(t))
	for i := range t {
		out[i] = port(&t[i])
	}
	slices.Sort(out)
	return slices.Clip(slices.Compact(out))
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
func CompileLPM(f FIB) []CompiledRoute {
	l := newLPM(f)
	route := func(i int32) Route {
		k := l.rs[i]
		return Route{Prefix: k >> 32, Len: keyLen(k), Port: int(l.port[i])}
	}
	// pos turns from a count into the next free slot of rs[i]'s list, so in
	// the end that list stops at pos[i] and starts where its predecessor's
	// stops.
	pos := l.count
	total := int32(0)
	for i, n := range pos {
		pos[i], total = total, total+n
	}
	excl := make([]Route, total)
	for _, i := range l.order {
		r := route(i)
		for a := l.parent[i]; a >= 0; a = l.parent[a] {
			excl[pos[a]] = r
			pos[a]++
		}
	}
	out := make([]CompiledRoute, len(l.rs))
	for k, i := range l.order {
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

// LPMRows is CompileLPM's output as a router model's per-port guards read
// it, without the CompiledRoutes: for each port below nports, a prefix row
// per route to that port, in CompileLPM order, whose exclusions are the
// route's, in CompileLPM order too. The rows of all ports are one array and
// their exclusions another, both laid out port after port. Beside the rows
// it returns each port's canonical span table over the 32-bit address
// field — the addresses whose longest match is a route to that port, which
// is the set the port's rows stand for — from the same sort and nesting
// sweep (lpm.portSpans), so a compiler need not merge the rows again. Every
// route's port must be below nports; the other preconditions are
// CompileLPM's.
func LPMRows(f FIB, nports int) ([][]expr.GuardRow, []*expr.SpanTable) {
	l := newLPM(f)
	// at counts each port's rows and exclusions, then is where the next of
	// each goes, so in the end port p's rows stop at at[p].row and start
	// where port p-1's stop.
	at := make([]struct{ row, excl int32 }, nports)
	for i, p := range l.port {
		at[p].row++
		at[p].excl += l.count[i]
	}
	var nrows, nexcl int32
	for p, n := range at {
		at[p].row, at[p].excl = nrows, nexcl
		nrows, nexcl = nrows+n.row, nexcl+n.excl
	}
	rows := make([]expr.GuardRow, nrows)
	excl := make([]expr.GuardExcl, nexcl)
	// Routes are dealt out to their ports in output order; count turns into
	// the next free slot of each route's exclusions.
	pos := l.count
	for _, i := range l.order {
		k, c := l.rs[i], &at[l.port[i]]
		lo, hi := c.excl, c.excl+pos[i]
		rows[c.row] = expr.GuardRow{Kind: expr.GuardPrefix, V: k >> 32, Len: keyLen(k)}
		if hi > lo {
			rows[c.row].Excl = excl[lo:hi:hi]
		}
		c.row, c.excl, pos[i] = c.row+1, hi, lo
	}
	for _, i := range l.order {
		k := l.rs[i]
		e := expr.GuardExcl{V: k >> 32, Len: keyLen(k)}
		for a := l.parent[i]; a >= 0; a = l.parent[a] {
			excl[pos[a]] = e
			pos[a]++
		}
	}
	out := make([][]expr.GuardRow, nports)
	lo := int32(0)
	for p, c := range at {
		out[p], lo = rows[lo:c.row:c.row], c.row
	}
	return out, l.portSpans(nports)
}

// portSpans returns each port's canonical span table: the addresses whose
// longest match is a route to that port. Walked prefix-ascending with the
// open routes on a stack (the parent links), the routes cut the address
// space into elementary intervals in ascending order, each won by the
// innermost open route, or by none in a gap. Each interval goes to its
// winner's port, merged into the port's last span when it continues it, so
// every port's spans come out sorted, disjoint and non-adjacent: no sort and
// no merge is left to do. A first walk counts each port's spans, a second
// writes them into one array laid out port after port.
func (l *lpm) portSpans(nports int) []*expr.SpanTable {
	s := spanSweep{at: make([]int32, nports), next: make([]uint64, nports)}
	l.sweep(&s)
	var n int32
	for p, c := range s.at {
		s.at[p], n = n, n+c
	}
	s.buf = make([]expr.Span, n)
	l.sweep(&s)
	out := make([]*expr.SpanTable, nports)
	lo := int32(0)
	for p, hi := range s.at {
		out[p], lo = expr.NewSortedSpanTable(32, s.buf[lo:hi:hi]), hi
	}
	return out
}

// spanSweep is where lpm.sweep puts the intervals: counted per port while
// buf is nil, then written there.
type spanSweep struct {
	buf  []expr.Span
	at   []int32  // per port: its spans counted, then the slot past its last
	next []uint64 // per port: the address right after its last span
}

// noSpan is a next that no interval starts at: addresses are 32 bits.
const noSpan = ^uint64(0)

// emit gives the addresses lo to hi to port p.
func (s *spanSweep) emit(p, lo, hi uint64) {
	if s.next[p] != lo {
		if s.buf != nil {
			s.buf[s.at[p]].Lo = lo
		}
		s.at[p]++
	}
	if s.buf != nil {
		s.buf[s.at[p]-1].Hi = hi
	}
	s.next[p] = hi + 1
}

// sweep emits every elementary address interval a route wins, ascending.
func (l *lpm) sweep(s *spanSweep) {
	for p := range s.next {
		s.next[p] = noSpan
	}
	end := func(i int32) uint64 { return l.rs[i]>>32 | expr.Mask(32)>>keyLen(l.rs[i]) }
	from, top := uint64(0), int32(-1) // the first address not yet emitted; the stack's top
	for i := 0; i <= len(l.rs); i++ {
		// The routes that end before this one starts close: each wins what
		// is left of it. What remains open contains this route and wins up
		// to its start; a gap goes to no port. Past the last route every
		// route closes.
		lo := uint64(1) << 32
		if i < len(l.rs) {
			lo = l.rs[i] >> 32
		}
		for ; top >= 0 && end(top) < lo; top = l.parent[top] {
			if hi := end(top); from <= hi {
				s.emit(l.port[top], from, hi)
				from = hi + 1
			}
		}
		if top >= 0 && from < lo {
			s.emit(l.port[top], from, lo-1)
		}
		from, top = lo, int32(i)
	}
}

// lpm is what CompileLPM and LPMRows share: the distinct routes sorted by
// (prefix, length), how they nest, and the order they come out in. LPMRows
// also walks it in (prefix, length) order for the ports' span tables
// (portSpans).
//
// It is one radix sort of packed keys and a sweep. A route's key is
// prefix<<32 | len<<26 | position, so the keys in ascending order are the
// routes by (prefix, length) with the first of each duplicate ahead of the
// rest, and key>>26 names the route. In that order a route follows every
// route that contains it, so the routes still open form a stack, kept as
// each route's link to its nearest container, and a route is an exclusion
// of every link in its chain. The emitters then visit the routes in output
// order and file each with its containers, which leaves every list in
// output order unsorted.
type lpm struct {
	rs     []uint64 // the distinct routes' keys, by (prefix, length)
	port   []uint64 // port[i] is rs[i]'s port
	parent []int32  // nearest container of rs[i], -1 for none
	count  []int32  // how many routes rs[i] contains
	order  []int32  // rs's indices in output order, most specific first
}

// keyLen is the prefix length a packed key holds.
func keyLen(k uint64) int { return int(k >> 26 & 63) }

// newLPM sorts f's routes, drops the duplicates and sweeps them once.
func newLPM(f FIB) lpm {
	const at = 1<<26 - 1 // a key's position bits
	// One array: the keys, then the sort's buffer, which then holds the
	// ports of the distinct routes.
	keys := make([]uint64, 2*len(f))
	keys, port := keys[:len(f)], keys[len(f):]
	for i, r := range f {
		keys[i] = r.Prefix<<32 | uint64(r.Len)<<26 | uint64(i)
	}
	sortKeys(keys, port)
	// Sorted, the keys visit f in no order, so f is read once, here.
	rs := keys[:0]
	for _, k := range keys {
		if len(rs) == 0 || k>>26 != rs[len(rs)-1]>>26 {
			port[len(rs)] = uint64(f[k&at].Port)
			rs = append(rs, k)
		}
	}

	parent := make([]int32, len(rs))
	count := make([]int32, len(rs))
	var bucket [34]int32 // bucket[33-l]: routes of length l
	for i, k := range rs {
		// The stack's top is the previous route; pop what has closed: a
		// route ends at its prefix with the host bits set.
		a := int32(i) - 1
		for a >= 0 && k>>32 > rs[a]>>32|expr.Mask(32)>>keyLen(rs[a]) {
			a = parent[a]
		}
		parent[i] = a
		for ; a >= 0; a = parent[a] {
			count[a]++
		}
		bucket[33-keyLen(k)]++
	}

	// Output order: rs is prefix-ascending already, so dealing it out by
	// length, longest first, is all the sorting that is left.
	for b := 1; b < len(bucket); b++ {
		bucket[b] += bucket[b-1]
	}
	order := make([]int32, len(rs))
	for i, k := range rs {
		order[bucket[32-keyLen(k)]] = int32(i)
		bucket[32-keyLen(k)]++
	}
	return lpm{rs: rs, port: port[:len(rs)], parent: parent, count: count, order: order}
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
// table kind and the line number. A fast reader, when not nil, sees each
// line first, whole, and a line it takes goes no further. The fields alias
// the scanner's buffer and one reused array, so they are only valid during
// the call.
func scanLines(r io.Reader, what string, want int, fast func(line []byte) bool, row func(fields [][]byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<24)
	fields := make([][]byte, 0, want)
	for n := 1; sc.Scan(); n++ {
		if fast != nil && fast(sc.Bytes()) {
			continue
		}
		// The fields are the runs of bytes other than space, tab and '\r'
		// before the first '#'.
		line, start := sc.Bytes(), -1
		fields = fields[:0]
	split:
		for i, c := range line {
			switch {
			case c == ' ' || c == '\t' || c == '\r' || c == '#':
				if start >= 0 {
					fields, start = append(fields, line[start:i]), -1
				}
				if c == '#' {
					break split
				}
			case start < 0:
				start = i
			}
		}
		if start >= 0 {
			fields = append(fields, line[start:])
		}
		if len(fields) == 0 {
			continue
		}
		if len(fields) != want {
			return fmt.Errorf("tables: %s line %d: want %d fields, got %d", what, n, want, len(fields))
		}
		if err := row(fields); err != nil {
			return fmt.Errorf("tables: %s line %d: %v", what, n, err)
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
