package asa

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

// Config is a parsed (simplified) ASA configuration.
type Config struct {
	Name string
	// Static NAT: bidirectional address mappings (inside addr <-> public).
	StaticNAT []StaticNATRule
	// Dynamic NAT (PAT) for outbound traffic.
	DynamicNAT *DynamicNATRule
	// ACL applied to inbound traffic (outside -> inside).
	InboundACL []ACLRule
	// ACL applied to outbound traffic (inside -> outside); empty = allow.
	OutboundACL []ACLRule
	// Options is the TCP inspection policy.
	Options OptionsPolicy
}

// StaticNATRule maps an inside address to a public address.
type StaticNATRule struct {
	Inside uint64
	Public uint64
}

// DynamicNATRule is a PAT pool.
type DynamicNATRule struct {
	Public         uint64
	PortLo, PortHi uint64
}

// ACLRule permits or denies traffic.
type ACLRule struct {
	Permit  bool
	Proto   *uint64
	DstHost *uint64
	DstPort *uint64
}

// cond lowers the rule's match to a SEFL condition.
func (r ACLRule) cond() sefl.Cond {
	var cs []sefl.Cond
	if r.Proto != nil {
		cs = append(cs, sefl.Eq(sefl.Ref{LV: sefl.IPProto}, sefl.CW(*r.Proto, 8)))
	}
	if r.DstHost != nil {
		cs = append(cs, sefl.Eq(sefl.Ref{LV: sefl.IPDst}, sefl.CW(*r.DstHost, 32)))
	}
	if r.DstPort != nil {
		cs = append(cs, sefl.Eq(sefl.Ref{LV: sefl.TcpDst}, sefl.CW(*r.DstPort, 16)))
	}
	if len(cs) == 0 {
		return sefl.CBool(true)
	}
	return sefl.AndC(cs...)
}

// ParseConfig reads the simplified ASA configuration format:
//
//	hostname asa1
//	static-nat 10.0.0.5 141.85.37.5
//	dynamic-nat 141.85.37.2 1024-65535
//	access-list inbound permit tcp host 141.85.37.5 eq 80
//	access-list inbound deny any
//	access-list outbound permit any
//	tcp-options allow mss,wscale,sackok,sack,timestamp
//	tcp-options drop md5
//	tcp-options strip-sack-http
func ParseConfig(r io.Reader) (*Config, error) {
	cfg := &Config{Name: "asa", Options: OptionsPolicy{ForceMSS: true, MSSClamp: 1380}}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		fields, ok := splitLine(sc.Text())
		if !ok {
			continue
		}
		if err := cfg.parseLine(fields); err != nil {
			return nil, fmt.Errorf("asa: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cfg, nil
}

func splitLine(s string) ([]string, bool) {
	if i := strings.IndexByte(s, '#'); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "!"); i == 0 {
		return nil, false
	}
	f := strings.Fields(s)
	return f, len(f) > 0
}

func (cfg *Config) parseLine(f []string) error {
	switch f[0] {
	case "hostname":
		if len(f) != 2 {
			return fmt.Errorf("hostname needs a name")
		}
		cfg.Name = f[1]
	case "static-nat":
		if len(f) != 3 {
			return fmt.Errorf("static-nat needs inside and public addresses")
		}
		inside, err := tables.ParseIPv4(f[1])
		if err != nil {
			return err
		}
		public, err := tables.ParseIPv4(f[2])
		if err != nil {
			return err
		}
		cfg.StaticNAT = append(cfg.StaticNAT, StaticNATRule{Inside: inside, Public: public})
	case "dynamic-nat":
		if len(f) != 3 {
			return fmt.Errorf("dynamic-nat needs address and port range")
		}
		var lo, hi uint64
		if _, err := fmt.Sscanf(f[2], "%d-%d", &lo, &hi); err != nil {
			return fmt.Errorf("bad port range %q", f[2])
		}
		public, err := tables.ParseIPv4(f[1])
		if err != nil {
			return err
		}
		cfg.DynamicNAT = &DynamicNATRule{Public: public, PortLo: lo, PortHi: hi}
	case "access-list":
		if len(f) < 3 {
			return fmt.Errorf("access-list needs direction and action")
		}
		rule, err := parseACL(f[2:])
		if err != nil {
			return err
		}
		switch f[1] {
		case "inbound":
			cfg.InboundACL = append(cfg.InboundACL, rule)
		case "outbound":
			cfg.OutboundACL = append(cfg.OutboundACL, rule)
		default:
			return fmt.Errorf("unknown ACL direction %q", f[1])
		}
	case "tcp-options":
		if len(f) < 2 {
			return fmt.Errorf("tcp-options needs a subcommand")
		}
		switch f[1] {
		case "allow", "drop":
			if len(f) != 3 {
				return fmt.Errorf("tcp-options %s needs kinds", f[1])
			}
			kinds, err := parseOptionKinds(f[2])
			if err != nil {
				return err
			}
			if f[1] == "allow" {
				cfg.Options.Allow = append(cfg.Options.Allow, kinds...)
			} else {
				cfg.Options.Drop = append(cfg.Options.Drop, kinds...)
			}
		case "strip-sack-http":
			cfg.Options.StripSackForHTTP = true
		default:
			return fmt.Errorf("unknown tcp-options subcommand %q", f[1])
		}
	default:
		return fmt.Errorf("unknown directive %q", f[0])
	}
	return nil
}

func parseACL(f []string) (ACLRule, error) {
	var r ACLRule
	switch f[0] {
	case "permit":
		r.Permit = true
	case "deny":
	default:
		return r, fmt.Errorf("ACL action must be permit or deny, got %q", f[0])
	}
	i := 1
	for i < len(f) {
		switch f[i] {
		case "any":
			i++
		case "tcp":
			p := uint64(sefl.ProtoTCP)
			r.Proto = &p
			i++
		case "udp":
			p := uint64(sefl.ProtoUDP)
			r.Proto = &p
			i++
		case "host":
			if i+1 >= len(f) {
				return r, fmt.Errorf("host needs an address")
			}
			h, err := tables.ParseIPv4(f[i+1])
			if err != nil {
				return r, err
			}
			r.DstHost = &h
			i += 2
		case "eq":
			if i+1 >= len(f) {
				return r, fmt.Errorf("eq needs a port")
			}
			p, err := strconv.ParseUint(f[i+1], 10, 16)
			if err != nil {
				return r, fmt.Errorf("bad port %q", f[i+1])
			}
			r.DstPort = &p
			i += 2
		default:
			return r, fmt.Errorf("unknown ACL token %q", f[i])
		}
	}
	return r, nil
}

// aclCode compiles an ACL into first-match-wins SEFL: permit continues,
// deny fails. Implicit default: deny when the list is non-empty and ends
// without a catch-all permit; allow when the list is empty.
func aclCode(rules []ACLRule, cont sefl.Instr) sefl.Instr {
	if len(rules) == 0 {
		return cont
	}
	code := sefl.Instr(sefl.Fail{Msg: "ACL: implicit deny"})
	for i := len(rules) - 1; i >= 0; i-- {
		r := rules[i]
		var hit sefl.Instr
		if r.Permit {
			hit = cont
		} else {
			hit = sefl.Fail{Msg: "ACL: denied"}
		}
		code = sefl.If{C: r.cond(), Then: hit, Else: code}
	}
	return code
}

// Build installs the five-stage ASA pipeline (§7.2) on a 2-in/2-out
// element: input 0 is the inside interface, input 1 the outside; output 0
// leads outside, output 1 inside.
//
// Outbound: outbound ACL -> dynamic NAT record/rewrite -> egress static NAT
// -> TCP options -> out 0.
// Inbound: ingress static NAT -> TCP inspection (reverse dynamic-NAT
// mapping) or static-NAT/ACL admission -> TCP options -> out 1.
func Build(e *core.Element, cfg *Config) {
	local := func(n string) sefl.Meta { return sefl.Meta{Name: n, Local: true} }

	// --- Outbound (inside -> outside), input port 0 ---
	var out []sefl.Instr
	// Stage iii (filtering) applies to the original addresses.
	// Stage iv: dynamic NAT (PAT) with state in the packet.
	if cfg.DynamicNAT != nil {
		d := cfg.DynamicNAT
		out = append(out,
			sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.IPProto}, sefl.C(uint64(sefl.ProtoTCP)))},
			sefl.Allocate{LV: local("asa-orig-ip"), Size: 32},
			sefl.Allocate{LV: local("asa-orig-port"), Size: 16},
			sefl.Allocate{LV: local("asa-new-ip"), Size: 32},
			sefl.Allocate{LV: local("asa-new-port"), Size: 16},
			sefl.Assign{LV: local("asa-orig-ip"), E: sefl.Ref{LV: sefl.IPSrc}},
			sefl.Assign{LV: local("asa-orig-port"), E: sefl.Ref{LV: sefl.TcpSrc}},
			sefl.Assign{LV: sefl.IPSrc, E: sefl.CW(d.Public, 32)},
			sefl.Assign{LV: sefl.TcpSrc, E: sefl.Symbolic{W: 16, Name: "asa-pat-port"}},
			sefl.Constrain{C: sefl.AndC(
				sefl.Ge(sefl.Ref{LV: sefl.TcpSrc}, sefl.CW(d.PortLo, 16)),
				sefl.Le(sefl.Ref{LV: sefl.TcpSrc}, sefl.CW(d.PortHi, 16)),
			)},
			sefl.Assign{LV: local("asa-new-ip"), E: sefl.Ref{LV: sefl.IPSrc}},
			sefl.Assign{LV: local("asa-new-port"), E: sefl.Ref{LV: sefl.TcpSrc}},
		)
	}
	// Stage v: egress static NAT (rewrite inside source to its public
	// address; overrides PAT for hosts with static mappings).
	for _, s := range cfg.StaticNAT {
		out = append(out, sefl.If{
			C:    sefl.Eq(sefl.Ref{LV: local("asa-orig-ip")}, sefl.CW(s.Inside, 32)),
			Then: sefl.Assign{LV: sefl.IPSrc, E: sefl.CW(s.Public, 32)},
			Else: sefl.NoOp{},
		})
	}
	out = append(out, optionsModel(cfg.Options), sefl.Forward{Port: 0})
	e.SetInCode(0, aclCode(cfg.OutboundACL, sefl.Seq(out...)))

	// --- Inbound (outside -> inside), input port 1 ---
	var in []sefl.Instr
	in = append(in, sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.IPProto}, sefl.C(uint64(sefl.ProtoTCP)))})
	// Stage ii: TCP inspection — response of an active connection is
	// translated back and forwarded directly.
	if cfg.DynamicNAT != nil {
		inspect := sefl.Seq(
			sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.IPDst}, sefl.Ref{LV: local("asa-new-ip")})},
			sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.TcpDst}, sefl.Ref{LV: local("asa-new-port")})},
			sefl.Assign{LV: sefl.IPDst, E: sefl.Ref{LV: local("asa-orig-ip")}},
			sefl.Assign{LV: sefl.TcpDst, E: sefl.Ref{LV: local("asa-orig-port")}},
			optionsModel(cfg.Options),
			sefl.Forward{Port: 1},
		)
		// The mapping metadata exists only for flows the ASA saw outbound;
		// fresh inbound flows fall through to static NAT + ACL.
		freshFlow := buildInboundFresh(cfg, local)
		in = append(in, sefl.If{
			C:    sefl.MetaPresent{M: local("asa-new-ip")},
			Then: inspect,
			Else: freshFlow,
		})
	} else {
		in = append(in, buildInboundFresh(cfg, local))
	}
	e.SetInCode(1, sefl.Seq(in...))
}

// buildInboundFresh handles inbound packets with no established flow:
// stage i (ingress static NAT) then stage iii (inbound ACL).
func buildInboundFresh(cfg *Config, local func(string) sefl.Meta) sefl.Instr {
	var is []sefl.Instr
	for _, s := range cfg.StaticNAT {
		is = append(is, sefl.If{
			C:    sefl.Eq(sefl.Ref{LV: sefl.IPDst}, sefl.CW(s.Public, 32)),
			Then: sefl.Assign{LV: sefl.IPDst, E: sefl.CW(s.Inside, 32)},
			Else: sefl.NoOp{},
		})
	}
	tail := sefl.Seq(optionsModel(cfg.Options), sefl.Forward{Port: 1})
	// The inbound ACL matches the public (pre-rewrite) addresses; the
	// static rewrite and options inspection run after admission.
	return aclCode(cfg.InboundACL, sefl.Seq(append(is, tail)...))
}
