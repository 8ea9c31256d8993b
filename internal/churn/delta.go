// Package churn implements incremental re-verification under forwarding-rule
// churn: a resident Service holds a compiled network plus its all-pairs
// reachability report, accepts rule-level deltas (FIB route or MAC entry
// insert/delete/modify), builds each changed output port's guard as the
// element's Egress model would and patches it into the resident program in
// place (prog.PatchGuard, which lowers it as Compile does: a router's guard
// brings its span table, a switch's rows are merged into one) instead of
// recompiling, and re-runs only the sources whose explorations actually
// traversed the touched port. The resident report stays byte-identical to a
// from-scratch verification of the updated network (pinned by the
// differential tests in this package).
package churn

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"symnet/internal/expr"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// Delta operations.
const (
	OpInsert = "insert"
	OpDelete = "delete"
	OpModify = "modify"
)

// Delta is one forwarding-rule update. FIB deltas carry Prefix; MAC deltas
// carry MAC. Port is the rule's output port (the new port for modify).
// The same struct is the symgen churn-stream record and the symnetd wire
// format, so generated streams replay against the daemon unchanged.
type Delta struct {
	Elem   string `json:"elem"`
	Op     string `json:"op"`
	Prefix string `json:"prefix,omitempty"`
	MAC    string `json:"mac,omitempty"`
	Port   int    `json:"port"`
}

func (d Delta) String() string {
	rule := d.Prefix
	if rule == "" {
		rule = d.MAC
	}
	return fmt.Sprintf("%s %s %s -> %d", d.Op, d.Elem, rule, d.Port)
}

// Validate checks the delta's shape without applying it: a known op, exactly
// one of Prefix/MAC, and a parseable rule. It is the daemon's first line of
// defense against malformed wire input.
func (d Delta) Validate() error {
	switch d.Op {
	case OpInsert, OpDelete, OpModify:
	default:
		return fmt.Errorf("churn: unknown op %q", d.Op)
	}
	if d.Elem == "" {
		return fmt.Errorf("churn: delta missing elem")
	}
	if (d.Prefix == "") == (d.MAC == "") {
		return fmt.Errorf("churn: delta needs exactly one of prefix, mac")
	}
	if d.Prefix != "" {
		if _, _, err := tables.ParsePrefix(d.Prefix); err != nil {
			return fmt.Errorf("churn: %w", err)
		}
	}
	if d.MAC != "" {
		if _, err := tables.ParseMAC(d.MAC); err != nil {
			return fmt.Errorf("churn: %w", err)
		}
	}
	if d.Port < 0 {
		return fmt.Errorf("churn: negative port %d", d.Port)
	}
	return nil
}

// EncodeDeltas writes deltas as JSON lines (one object per line), the format
// symgen emits and symnetd accepts.
func EncodeDeltas(w io.Writer, ds []Delta) error {
	enc := json.NewEncoder(w)
	for _, d := range ds {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return nil
}

// DecodeDeltas reads a JSON-lines delta stream, skipping blank and '#'
// comment lines, and validates every record; the first bad line is the error.
func DecodeDeltas(r io.Reader) ([]Delta, error) {
	out, bad, err := DecodeDeltasLenient(r)
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("churn: delta line %d: %s", bad[0].Line, bad[0].Err)
	}
	return out, nil
}

// LineError records one undecodable or invalid line in a delta stream.
type LineError struct {
	// Line is the 1-based line number in the stream.
	Line int `json:"line"`
	// Err is the decode or validation failure.
	Err string `json:"error"`
}

// DecodeDeltasLenient reads a JSON-lines delta stream, skipping blank and
// '#' comment lines, and collects malformed or invalid lines instead of
// failing the whole stream, so a serving endpoint can apply the good lines
// and report the bad ones per-line. The error return is reserved for
// stream-level I/O failures.
func DecodeDeltasLenient(r io.Reader) ([]Delta, []LineError, error) {
	var out []Delta
	var bad []LineError
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		var d Delta
		if err := json.Unmarshal([]byte(s), &d); err != nil {
			bad = append(bad, LineError{Line: line, Err: err.Error()})
			continue
		}
		if err := d.Validate(); err != nil {
			bad = append(bad, LineError{Line: line, Err: err.Error()})
			continue
		}
		out = append(out, d)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return out, bad, nil
}

// GenFIBDeltas generates a deterministic stream of n applicable FIB deltas
// for one router: ~40% inserts of fresh /24s drawn from carrier, ~30%
// deletes, ~30% port modifies of existing routes. It tracks the evolving
// table so every delete/modify references a live route and every insert a
// fresh (prefix, len); the output ports are drawn from the router's existing
// port set, so the element's fork list never changes (deltas stay in the
// patchable tier). Same (fib, carrier, n, seed) always yields the same
// stream.
func GenFIBDeltas(elem string, fib tables.FIB, carrier string, n int, seed int64) ([]Delta, error) {
	cpfx, clen, err := tables.ParsePrefix(carrier)
	if err != nil {
		return nil, fmt.Errorf("churn: carrier: %w", err)
	}
	if clen > 24 {
		return nil, fmt.Errorf("churn: carrier %s too small for /24 inserts", carrier)
	}
	ports := fib.Ports()
	if len(ports) == 0 {
		return nil, fmt.Errorf("churn: empty FIB for %s", elem)
	}
	type key struct {
		pfx uint64
		ln  int
	}
	live := make(map[key]int, len(fib)) // (prefix,len) -> port
	var order []key                     // deterministic pick order
	for _, r := range fib {
		k := key{r.Prefix, r.Len}
		if _, dup := live[k]; !dup {
			live[k] = r.Port
			order = append(order, k)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	subnets := uint64(1) << (24 - clen)
	ds := make([]Delta, 0, n)
	for len(ds) < n {
		roll := rng.Intn(10)
		switch {
		case roll < 4 || len(order) < 4: // insert (forced when table is thin)
			var k key
			found := false
			for try := 0; try < 64; try++ {
				k = key{cpfx | rng.Uint64()%subnets<<8, 24}
				if _, dup := live[k]; !dup {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("churn: carrier %s exhausted after %d inserts", carrier, len(ds))
			}
			p := ports[rng.Intn(len(ports))]
			live[k] = p
			order = append(order, k)
			ds = append(ds, Delta{Elem: elem, Op: OpInsert, Prefix: prefixString(k.pfx, k.ln), Port: p})
		case roll < 7: // delete
			i := rng.Intn(len(order))
			k := order[i]
			delete(live, k)
			order = append(order[:i], order[i+1:]...)
			ds = append(ds, Delta{Elem: elem, Op: OpDelete, Prefix: prefixString(k.pfx, k.ln)})
		default: // modify
			i := rng.Intn(len(order))
			k := order[i]
			p := ports[rng.Intn(len(ports))]
			if p == live[k] && len(ports) > 1 {
				continue // same-port modify is a no-op; draw again
			}
			live[k] = p
			ds = append(ds, Delta{Elem: elem, Op: OpModify, Prefix: prefixString(k.pfx, k.ln), Port: p})
		}
	}
	return ds, nil
}

// GenMACDeltas generates a deterministic stream of n applicable MAC-table
// deltas for one switch, with the same op mix and liveness tracking as
// GenFIBDeltas. Inserted MACs are locally-administered addresses derived
// from the stream position, guaranteed fresh.
func GenMACDeltas(elem string, tbl tables.MACTable, n int, seed int64) ([]Delta, error) {
	ports := tbl.Ports()
	if len(ports) == 0 {
		return nil, fmt.Errorf("churn: empty MAC table for %s", elem)
	}
	live := make(map[uint64]int, len(tbl))
	var order []uint64
	for _, e := range tbl {
		if _, dup := live[e.MAC]; !dup {
			live[e.MAC] = e.Port
			order = append(order, e.MAC)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	ds := make([]Delta, 0, n)
	for len(ds) < n {
		roll := rng.Intn(10)
		switch {
		case roll < 4 || len(order) < 4: // insert
			var mac uint64
			found := false
			for try := 0; try < 64; try++ {
				mac = 0x06_00_00_00_00_00 | rng.Uint64()&0xFFFF_FFFF
				if _, dup := live[mac]; !dup {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("churn: MAC space exhausted after %d inserts", len(ds))
			}
			p := ports[rng.Intn(len(ports))]
			live[mac] = p
			order = append(order, mac)
			ds = append(ds, Delta{Elem: elem, Op: OpInsert, MAC: sefl.NumberToMAC(mac), Port: p})
		case roll < 7: // delete
			i := rng.Intn(len(order))
			mac := order[i]
			delete(live, mac)
			order = append(order[:i], order[i+1:]...)
			ds = append(ds, Delta{Elem: elem, Op: OpDelete, MAC: sefl.NumberToMAC(mac)})
		default: // modify
			i := rng.Intn(len(order))
			mac := order[i]
			p := ports[rng.Intn(len(ports))]
			if p == live[mac] && len(ports) > 1 {
				continue
			}
			live[mac] = p
			ds = append(ds, Delta{Elem: elem, Op: OpModify, MAC: sefl.NumberToMAC(mac), Port: p})
		}
	}
	return ds, nil
}

func prefixString(pfx uint64, plen int) string {
	return fmt.Sprintf("%s/%d", sefl.NumberToIP(pfx&expr.PrefixMask(plen, 32)), plen)
}
