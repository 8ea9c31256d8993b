// Package asa models the Cisco ASA 5510 appliance of §7.2: the Fig. 7
// TCP-options inspection code, a configuration parser, and the five-stage
// packet pipeline (ingress static NAT, TCP inspection, filtering, dynamic
// NAT insertion, egress static NAT) generated from a configuration — the
// counterpart of the paper's automatically generated Click ASA model.
package asa

import (
	"fmt"
	"strings"

	"symnet/internal/core"
	"symnet/internal/minic"
	"symnet/internal/sefl"
)

// OptionsPolicy configures the TCP-options inspection element.
type OptionsPolicy struct {
	Allow []uint64 // option kinds passed through
	Drop  []uint64 // option kinds that drop the packet
	// StripSackForHTTP reproduces the default ASA behaviour found in §8.5:
	// SACK is disabled for HTTP traffic.
	StripSackForHTTP bool
	// ForceMSS rewrites/creates the MSS option with a clamped value
	// (Fig. 7: "the code then always sets the MSS option, and rewrites its
	// value to be at most 1380").
	ForceMSS bool
	MSSClamp uint64
	// InvalidLengthImprecision marks allowed options as possibly removed
	// (fresh 0/1 symbols), the model's documented "less precise" handling
	// of invalid-length interactions (§8.2, Table 4).
	InvalidLengthImprecision bool
}

// DefaultPolicy mirrors minic.DefaultASAConfig for side-by-side comparison.
func DefaultPolicy() OptionsPolicy {
	return OptionsPolicy{
		Allow:            []uint64{minic.OptMSS, minic.OptWScale, minic.OptSackOK, minic.OptSack, minic.OptTimestamp},
		Drop:             []uint64{minic.OptMD5},
		StripSackForHTTP: true,
		ForceMSS:         true,
		MSSClamp:         1380,
	}
}

// optMeta returns the metadata l-value for an option kind.
func optMeta(prefix string, kind uint64) sefl.Meta {
	return sefl.Meta{Name: fmt.Sprintf("%s%d", prefix, kind)}
}

// optionsPassRef names the registered For-body constructor of the
// options-inspection pass, so the For serializes for distributed workers
// (see sefl.RegisterForBody). Any process decoding a network that contains
// an ASA must import this package; cmd/symworker does.
const optionsPassRef = "asa.options-pass"

func init() {
	sefl.RegisterForBody(optionsPassRef, func(arg string) func(sefl.Meta) sefl.Instr {
		return optionsPassBody(parsePassBodyArg(arg))
	})
}

// passBodyArg serializes the policy bits the inspection body reads
// (deterministically: kind lists are emitted in the policy's declared
// order, which both sides share).
func passBodyArg(p OptionsPolicy) string {
	var b strings.Builder
	b.WriteString("allow=")
	for i, k := range p.Allow {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", k)
	}
	b.WriteString(";drop=")
	for i, k := range p.Drop {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", k)
	}
	if p.InvalidLengthImprecision {
		b.WriteString(";imprecise")
	}
	return b.String()
}

// parsePassBodyArg is the inverse of passBodyArg. Malformed input yields the
// zero policy (every option stripped), which cannot happen for args produced
// by passBodyArg.
func parsePassBodyArg(arg string) OptionsPolicy {
	var p OptionsPolicy
	for _, part := range strings.Split(arg, ";") {
		switch {
		case part == "imprecise":
			p.InvalidLengthImprecision = true
		case strings.HasPrefix(part, "allow="):
			p.Allow = parseKindList(strings.TrimPrefix(part, "allow="))
		case strings.HasPrefix(part, "drop="):
			p.Drop = parseKindList(strings.TrimPrefix(part, "drop="))
		}
	}
	return p
}

func parseKindList(s string) []uint64 {
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		if f == "" {
			continue
		}
		var k uint64
		if _, err := fmt.Sscanf(f, "%d", &k); err == nil {
			out = append(out, k)
		}
	}
	return out
}

// optionsPassBody builds the per-option For body of the inspection pass: a
// pure function of (policy, key), so rebuilding it from the serialized
// policy on a remote worker reproduces local execution exactly.
func optionsPassBody(p OptionsPolicy) func(sefl.Meta) sefl.Instr {
	allowed := make(map[uint64]bool, len(p.Allow))
	for _, k := range p.Allow {
		allowed[k] = true
	}
	dropped := make(map[uint64]bool, len(p.Drop))
	for _, k := range p.Drop {
		dropped[k] = true
	}
	return func(key sefl.Meta) sefl.Instr {
		var kind uint64
		fmt.Sscanf(key.Name, "OPT%d", &kind)
		switch {
		case dropped[kind]:
			// Drop the packet when the option is present.
			return sefl.If{
				C:    sefl.Eq(sefl.Ref{LV: key}, sefl.C(1)),
				Then: sefl.Fail{Msg: fmt.Sprintf("TCP option %d dropped by inspection", kind)},
				Else: sefl.NoOp{},
			}
		case allowed[kind]:
			if p.InvalidLengthImprecision {
				// The option may have been removed by an earlier
				// invalid-length option: presence becomes a fresh 0/1
				// symbol ("marks all existing options as possibly removed").
				return sefl.Seq(
					sefl.Assign{LV: key, E: sefl.Symbolic{W: 8, Name: key.Name + "-maybe"}},
					sefl.Constrain{C: sefl.Le(sefl.Ref{LV: key}, sefl.C(1))},
				)
			}
			return sefl.NoOp{}
		default:
			// Strip: set the presence flag to 0 — no branching involved.
			return sefl.Assign{LV: key, E: sefl.C(0)}
		}
	}
}

// optionsModel generates the Fig. 7 SEFL code: TCP options live in packet
// metadata ("OPTx" presence flags, "SIZEx" lengths, "VALx" bodies), so
// stripping is a branch-free assignment and the model is cheap to execute
// symbolically.
func optionsModel(p OptionsPolicy) sefl.Instr {
	var is []sefl.Instr
	// One pass over the present options (a snapshot iteration — bounded and
	// branch-free, unlike the C loop in Fig. 1). The body is built through
	// the registered constructor so the For serializes for distributed
	// workers; passBodyArg round-trips exactly the policy bits the body
	// reads.
	is = append(is, sefl.NewFor(`^OPT\d+$`, optionsPassRef, passBodyArg(p)))
	if p.StripSackForHTTP {
		is = append(is, sefl.If{
			C: sefl.Eq(sefl.Ref{LV: sefl.TcpDst}, sefl.C(80)),
			Then: sefl.If{
				C:    sefl.MetaPresent{M: optMeta("OPT", minic.OptSackOK)},
				Then: sefl.Assign{LV: optMeta("OPT", minic.OptSackOK), E: sefl.C(0)},
				Else: sefl.NoOp{},
			},
			Else: sefl.NoOp{},
		})
	}
	if p.ForceMSS {
		mssOpt := optMeta("OPT", minic.OptMSS)
		mssSize := optMeta("SIZE", minic.OptMSS)
		mssVal := optMeta("VAL", minic.OptMSS)
		ensure := func(m sefl.Meta, width int, init sefl.Expr) sefl.Instr {
			return sefl.If{
				C:    sefl.MetaPresent{M: m},
				Then: sefl.NoOp{},
				Else: sefl.Seq(
					sefl.Allocate{LV: m, Size: width},
					sefl.Assign{LV: m, E: init},
				),
			}
		}
		is = append(is,
			ensure(mssOpt, 8, sefl.C(0)),
			ensure(mssSize, 8, sefl.C(0)),
			ensure(mssVal, 16, sefl.Symbolic{W: 16, Name: "mss-added"}),
			sefl.Assign{LV: mssOpt, E: sefl.C(1)},
			sefl.Assign{LV: mssSize, E: sefl.C(4)},
			sefl.If{
				C:    sefl.Gt(sefl.Ref{LV: mssVal}, sefl.CW(p.MSSClamp, 16)),
				Then: sefl.Assign{LV: mssVal, E: sefl.CW(p.MSSClamp, 16)},
				Else: sefl.NoOp{},
			},
		)
	}
	return sefl.Seq(is...)
}

// WithOptions returns injection code extending a TCP packet template with
// symbolic TCP options metadata for the given kinds: OPTx ∈ {0,1}
// (symbolic presence), SIZEx and VALx symbolic.
func WithOptions(kinds []uint64) sefl.Instr {
	is := []sefl.Instr{sefl.NewTCPPacket()}
	for _, k := range kinds {
		opt, size, val := optMeta("OPT", k), optMeta("SIZE", k), optMeta("VAL", k)
		is = append(is,
			sefl.Allocate{LV: opt, Size: 8},
			sefl.Assign{LV: opt, E: sefl.Symbolic{W: 8, Name: opt.Name}},
			sefl.Constrain{C: sefl.Le(sefl.Ref{LV: opt}, sefl.C(1))},
			sefl.Allocate{LV: size, Size: 8},
			sefl.Assign{LV: size, E: sefl.Symbolic{W: 8, Name: size.Name}},
			sefl.Allocate{LV: val, Size: 16},
			sefl.Assign{LV: val, E: sefl.Symbolic{W: 16, Name: val.Name}},
		)
	}
	return sefl.Seq(is...)
}

// OptionsElement installs the inspection code as a standalone 1-in/1-out
// element (the Click "TCPOptions" element of §7.2).
func OptionsElement(e *core.Element, p OptionsPolicy) {
	e.SetInCode(core.WildcardPort, sefl.Seq(
		optionsModel(p),
		sefl.Forward{Port: 0},
	))
}

// parseOptionKinds parses "mss,wscale,sackok,sack,timestamp,md5,mptcp" or
// numeric kinds into option numbers.
func parseOptionKinds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		if part == "" {
			continue
		}
		switch part {
		case "mss":
			out = append(out, minic.OptMSS)
		case "wscale":
			out = append(out, minic.OptWScale)
		case "sackok":
			out = append(out, minic.OptSackOK)
		case "sack":
			out = append(out, minic.OptSack)
		case "timestamp":
			out = append(out, minic.OptTimestamp)
		case "md5":
			out = append(out, minic.OptMD5)
		case "mptcp", "multipath":
			out = append(out, minic.OptMultipath)
		default:
			var k uint64
			if _, err := fmt.Sscanf(part, "%d", &k); err != nil {
				return nil, fmt.Errorf("asa: unknown option kind %q", part)
			}
			out = append(out, k)
		}
	}
	return out, nil
}
