package click

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"symnet/internal/core"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// Config is a parsed Click configuration: the SymNet network generated from
// it plus the concrete twin pipeline ("the bonus of Click modeling is that
// we can potentially run the ASA in software", §7.2).
type Config struct {
	Net      *core.Network
	Concrete map[string]Concrete
}

// ParseConfig reads a Click-style configuration:
//
//	// declarations
//	mirror :: IPMirror();
//	rw     :: IPRewriter();
//	cls    :: IPClassifier(tcp dst port 80, tcp);
//
//	// connections (ports default to 0)
//	rw[0] -> mirror;
//	mirror -> [1]rw;
//
// Supported element classes: IPMirror, DecIPTTL, HostEtherFilter(MAC),
// IPClassifier(filter, ...), IPRewriter, EtherEncap(TYPE, SRC, DST), Strip,
// CheckIPHeader, Discard, Queue, IPEncap(SRC, DST), IPDecap, and the *Buggy
// variants used by the conformance experiments.
func ParseConfig(r io.Reader) (*Config, error) {
	cfg := &Config{Net: core.NewNetwork(), Concrete: make(map[string]Concrete)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, "//"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		for _, stmt := range splitStatements(line) {
			switch {
			case strings.Contains(stmt, "::"):
				if err := cfg.parseDecl(stmt); err != nil {
					return nil, fmt.Errorf("click: line %d: %w", lineNo, err)
				}
			case strings.Contains(stmt, "->"):
				if err := cfg.parseConns(stmt); err != nil {
					return nil, fmt.Errorf("click: line %d: %w", lineNo, err)
				}
			default:
				return nil, fmt.Errorf("click: line %d: cannot parse %q", lineNo, stmt)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cfg, nil
}

func (cfg *Config) parseDecl(line string) error {
	parts := strings.SplitN(line, "::", 2)
	name := strings.TrimSpace(parts[0])
	if _, dup := cfg.Net.Element(name); dup {
		return fmt.Errorf("element %q declared twice", name)
	}
	rest := strings.TrimSpace(parts[1])
	class := rest
	var args string
	if i := strings.IndexByte(rest, '('); i >= 0 {
		if !strings.HasSuffix(rest, ")") {
			return fmt.Errorf("unbalanced parentheses in %q", rest)
		}
		class = strings.TrimSpace(rest[:i])
		args = rest[i+1 : len(rest)-1]
	}
	def, err := buildElement(class, args)
	if err != nil {
		return err
	}
	_, conc := instantiate(cfg.Net, name, def)
	if conc != nil {
		cfg.Concrete[name] = conc
	}
	return nil
}

// buildElement constructs an element Def from a Click class name and its
// argument string.
func buildElement(class, args string) (Def, error) {
	argList := splitArgs(args)
	switch class {
	case "IPMirror", "IPMirrorBuggy":
		return ipMirror(class == "IPMirrorBuggy"), nil
	case "DecIPTTL", "DecIPTTLBuggy":
		return decIPTTL(class == "DecIPTTLBuggy"), nil
	case "HostEtherFilter", "HostEtherFilterBuggy":
		if len(argList) != 1 {
			return Def{}, fmt.Errorf("%s needs 1 argument", class)
		}
		if err := checkAddrs(class, tables.ParseMAC[string], argList...); err != nil {
			return Def{}, err
		}
		return hostEtherFilter(argList[0], class == "HostEtherFilterBuggy"), nil
	case "IPClassifier":
		var filters []filter
		for _, a := range argList {
			f, err := parseFilter(a)
			if err != nil {
				return Def{}, err
			}
			filters = append(filters, f)
		}
		if len(filters) == 0 {
			return Def{}, fmt.Errorf("IPClassifier needs at least one filter")
		}
		return ipClassifier(filters), nil
	case "IPRewriter":
		return ipRewriter(), nil
	case "EtherEncap":
		if len(argList) != 3 {
			return Def{}, fmt.Errorf("EtherEncap needs TYPE, SRC, DST")
		}
		t, err := strconv.ParseUint(strings.TrimPrefix(argList[0], "0x"), 16, 16)
		if err != nil {
			return Def{}, fmt.Errorf("EtherEncap type: %v", err)
		}
		if err := checkAddrs(class, tables.ParseMAC[string], argList[1:]...); err != nil {
			return Def{}, err
		}
		return etherEncap(t, argList[1], argList[2]), nil
	case "Strip":
		return stripEther(), nil
	case "CheckIPHeader":
		return checkIPHeader(), nil
	case "Discard":
		return discard(), nil
	case "Queue", "Unqueue", "SimpleQueue":
		return queue(), nil
	case "IPEncap":
		if len(argList) != 2 {
			return Def{}, fmt.Errorf("IPEncap needs SRC, DST")
		}
		if err := checkAddrs(class, tables.ParseIPv4[string], argList...); err != nil {
			return Def{}, err
		}
		return ipEncap(argList[0], argList[1]), nil
	case "IPDecap":
		return ipDecap(), nil
	}
	return Def{}, fmt.Errorf("unknown element class %q", class)
}

// checkAddrs refuses an address argument that parse rejects. The element
// constructors take addresses as text and parse them again, treating a bad
// literal as a programming error, so a configuration's literals are checked
// here first.
func checkAddrs(class string, parse func(string) (uint64, error), args ...string) error {
	for _, a := range args {
		if _, err := parse(a); err != nil {
			return fmt.Errorf("%s: %w", class, err)
		}
	}
	return nil
}

// parseFilter parses a tcpdump-flavored classifier pattern: a conjunction
// of "tcp", "udp", "ip proto N", "src host A.B.C.D", "dst host A.B.C.D",
// "src port N", "dst port N".
func parseFilter(s string) (filter, error) {
	var f filter
	tok := strings.Fields(s)
	i := 0
	next := func() (string, bool) {
		if i >= len(tok) {
			return "", false
		}
		t := tok[i]
		i++
		return t, true
	}
	for {
		t, ok := next()
		if !ok {
			return f, nil
		}
		switch t {
		case "tcp":
			f.Proto = u(uint64(sefl.ProtoTCP))
		case "udp":
			f.Proto = u(uint64(sefl.ProtoUDP))
		case "icmp":
			f.Proto = u(uint64(sefl.ProtoICMP))
		case "ip":
			kw, _ := next()
			if kw != "proto" {
				return f, fmt.Errorf("filter %q: expected 'proto' after 'ip'", s)
			}
			v, ok := next()
			if !ok {
				return f, fmt.Errorf("filter %q: missing protocol number", s)
			}
			n, err := strconv.ParseUint(v, 10, 8)
			if err != nil {
				return f, fmt.Errorf("filter %q: %v", s, err)
			}
			f.Proto = u(n)
		case "src", "dst":
			kw, ok := next()
			if !ok {
				return f, fmt.Errorf("filter %q: dangling %q", s, t)
			}
			switch kw {
			case "host":
				v, ok := next()
				if !ok {
					return f, fmt.Errorf("filter %q: missing host", s)
				}
				addr, err := tables.ParseIPv4(v)
				if err != nil {
					return f, fmt.Errorf("filter %q: %w", s, err)
				}
				if t == "src" {
					f.SrcHost = u(addr)
				} else {
					f.DstHost = u(addr)
				}
			case "port":
				v, ok := next()
				if !ok {
					return f, fmt.Errorf("filter %q: missing port", s)
				}
				n, err := strconv.ParseUint(v, 10, 16)
				if err != nil {
					return f, fmt.Errorf("filter %q: %v", s, err)
				}
				if t == "src" {
					f.SrcPort = u(n)
				} else {
					f.DstPort = u(n)
				}
			default:
				return f, fmt.Errorf("filter %q: unknown keyword %q", s, kw)
			}
		case "and", "&&":
			// connective: ignore
		default:
			return f, fmt.Errorf("filter %q: unknown token %q", s, t)
		}
	}
}

// u boxes an optional filter field.
func u(v uint64) *uint64 { return &v }

// splitArgs splits a Click argument list on top-level commas.
func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// splitStatements splits a line into its statements: the pieces between
// semicolons outside parentheses, trimmed, empty ones dropped.
func splitStatements(line string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range line + ";" {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ';':
			if depth == 0 {
				if stmt := strings.TrimSpace(line[start:i]); stmt != "" {
					out = append(out, stmt)
				}
				start = i + 1
			}
		}
	}
	return out
}

// parseConns parses a connection chain "a[1] -> [0]b[2] -> c".
func (cfg *Config) parseConns(line string) error {
	hops := strings.Split(line, "->")
	type endpoint struct {
		name      string
		inP, outP int
	}
	parse := func(s string) (endpoint, error) {
		s = strings.TrimSpace(s)
		ep := endpoint{inP: 0, outP: 0}
		// Leading [n] = input port.
		if strings.HasPrefix(s, "[") {
			end := strings.IndexByte(s, ']')
			if end < 0 {
				return ep, fmt.Errorf("bad endpoint %q", s)
			}
			n, err := strconv.Atoi(s[1:end])
			if err != nil {
				return ep, fmt.Errorf("bad input port in %q", s)
			}
			ep.inP = n
			s = strings.TrimSpace(s[end+1:])
		}
		// Trailing [n] = output port.
		if strings.HasSuffix(s, "]") {
			start := strings.LastIndexByte(s, '[')
			if start < 0 {
				return ep, fmt.Errorf("bad endpoint %q", s)
			}
			n, err := strconv.Atoi(s[start+1 : len(s)-1])
			if err != nil {
				return ep, fmt.Errorf("bad output port in %q", s)
			}
			ep.outP = n
			s = strings.TrimSpace(s[:start])
		}
		ep.name = s
		if _, ok := cfg.Net.Element(ep.name); !ok {
			return ep, fmt.Errorf("undeclared element %q", ep.name)
		}
		return ep, nil
	}
	prev, err := parse(hops[0])
	if err != nil {
		return err
	}
	for _, h := range hops[1:] {
		cur, err := parse(h)
		if err != nil {
			return err
		}
		if err := cfg.Net.Link(prev.name, prev.outP, cur.name, cur.inP); err != nil {
			return err
		}
		prev = cur
	}
	return nil
}
