package minic

import "symnet/internal/expr"

// TCP option kinds used by the options-parsing firewall code.
const (
	optEOL       = 0
	optNOP       = 1
	OptMSS       = 2
	OptWScale    = 3
	OptSackOK    = 4
	OptSack      = 5
	OptTimestamp = 8
	OptMD5       = 19
	OptMultipath = 30
)

// optionsConfig is the firewall's option policy.
type optionsConfig struct {
	Allow []uint64
	Drop  []uint64
	// Everything else is stripped.
}

// DefaultASAConfig mirrors the CISCO ASA default configuration the paper
// analyzes: widely-used options are allowed (MSS, window scale, SACK
// variants, timestamp), the MD5 signature option drops the packet, and
// everything else — including multipath TCP — is stripped.
func DefaultASAConfig() optionsConfig {
	return optionsConfig{
		Allow: []uint64{OptMSS, OptWScale, OptSackOK, OptSack, OptTimestamp},
		Drop:  []uint64{OptMD5},
	}
}

// optionsBufLen is the maximum TCP options length (the paper's "length
// parameter whose max value is 40").
const optionsBufLen = 40

// OptionsProgram builds the Fig. 1 TCP-options parsing code as a mini-C
// program: a while loop over a symbolic `options` byte array with a
// concrete `length`, switching on the option kind and policing sizes.
//
//	while (length > 0) {
//	    opcode = options[ptr];
//	    switch (opcode) {
//	    case TCPOPT_EOL: return 1;
//	    case TCPOPT_NOP: length--; ptr++; continue;
//	    default:
//	        opsize = options[ptr+1];
//	        if (opsize < 2 || opsize > length) {
//	            for (i = 0; i < length; i++) options[ptr+i] = 1;
//	            length = 0; continue;
//	        }
//	        if (DROP(opcode)) return 0;
//	        if (!ALLOW(opcode))
//	            for (i = 0; i < opsize; i++) options[ptr+i] = 1;
//	        ptr += opsize; length -= opsize;
//	    }
//	}
func OptionsProgram(length int, cfg optionsConfig) *program {
	opcode := ref("opcode")
	opsize := ref("opsize")
	ptr := ref("ptr")
	i := ref("i")
	lengthV := ref("length")

	classCond := func(kinds []uint64) expression {
		if len(kinds) == 0 {
			// No kinds: impossible condition.
			return eq(num(1), num(0))
		}
		c := eq(opcode, num(kinds[0]))
		for _, k := range kinds[1:] {
			c = or(c, eq(opcode, num(k)))
		}
		return c
	}

	nopFill := func(bound expression) []stmt {
		return []stmt{
			assign{Name: "i", E: num(0)},
			while{Cond: lt(i, bound), Body: []stmt{
				store{Array: "options", Idx: add(ptr, i), E: num(1)},
				assign{Name: "i", E: add(i, num(1))},
			}},
		}
	}

	defaultArm := []stmt{
		assign{Name: "opsize", E: at("options", add(ptr, num(1)))},
		ifStmt{
			Cond: or(lt(opsize, num(2)), gt(opsize, lengthV)),
			Then: append(nopFill(lengthV),
				assign{Name: "length", E: num(0)},
				continueStmt{},
			),
		},
		ifStmt{
			Cond: classCond(cfg.Drop),
			Then: []stmt{returnStmt{E: num(0)}},
		},
		ifStmt{
			Cond: classCond(cfg.Allow),
			Else: nopFill(opsize), // not allowed, not dropped: strip
		},
		assign{Name: "ptr", E: add(ptr, opsize)},
		assign{Name: "length", E: sub(lengthV, opsize)},
	}

	body := []stmt{
		while{Cond: gt(lengthV, num(0)), Body: []stmt{
			assign{Name: "opcode", E: at("options", ptr)},
			switchStmt{
				E: opcode,
				Cases: []switchCase{
					{Val: optEOL, Body: []stmt{returnStmt{E: num(1)}}},
					{Val: optNOP, Body: []stmt{
						assign{Name: "length", E: sub(lengthV, num(1))},
						assign{Name: "ptr", E: add(ptr, num(1))},
						continueStmt{},
					}},
				},
				Default: defaultArm,
			},
		}},
		returnStmt{E: num(1)},
	}

	return &program{
		Arrays:         map[string]int{"options": optionsBufLen},
		SymbolicArrays: []string{"options"},
		Vars:           map[string]uint64{"ptr": 0, "length": uint64(length), "opcode": 0, "opsize": 0, "i": 0},
		Body:           body,
	}
}

// ParseOptions concretely parses an options byte buffer into the list of
// option kinds present (skipping NOP padding, stopping at EOL or on invalid
// sizes) — the "iterate the options field afterwards" probe of §8.2.
func ParseOptions(buf []uint64, length int) []uint64 {
	var kinds []uint64
	ptr := 0
	for length > 0 && ptr < len(buf) {
		op := buf[ptr]
		switch op {
		case optEOL:
			return kinds
		case optNOP:
			ptr++
			length--
		default:
			if ptr+1 >= len(buf) {
				return kinds
			}
			size := int(buf[ptr+1])
			if size < 2 || size > length {
				return kinds
			}
			kinds = append(kinds, op)
			ptr += size
			length -= size
		}
	}
	return kinds
}

// ConcreteOptions extracts a concrete options buffer from a path outcome
// using a solver model.
func ConcreteOptions(o outcome) ([]uint64, bool) {
	model, ok := o.Ctx.Model()
	if !ok {
		return nil, false
	}
	cells := o.Arrays["options"]
	out := make([]uint64, len(cells))
	for idx, c := range cells {
		if v, isConst := c.ConstVal(); isConst {
			out[idx] = v
			continue
		}
		out[idx] = (model[c.Sym] + c.Add) & expr.Mask(64) & 0xff
	}
	return out, true
}
