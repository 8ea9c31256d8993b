// Command symgen generates SEFL models from forwarding-state snapshots and
// reports their structure — the paper's "parsers that take configuration
// parameters ... and output corresponding SEFL models" (§7.1). It also
// generates the snapshots themselves: -gen emits a synthetic MAC table or
// FIB in the snapshot format the parsers read, deterministically from
// -seed, so benchmark topologies are reproducible inputs.
//
//	symgen -mac table.txt  -style egress       # switch model from a MAC table
//	symgen -fib routes.txt -style egress       # router model from a FIB
//	symgen -asa config.txt                     # ASA pipeline from a config
//	symgen -gen mac -entries 1000 -seed 42     # deterministic MAC-table snapshot
//	symgen -gen fib -entries 5000 -seed 7      # deterministic FIB snapshot
//
// -gen churn emits a deterministic rule-delta stream (JSON lines, the format
// cmd/symnetd replays) over an existing snapshot: route or MAC entry
// inserts, deletes and port modifies that are always applicable in order.
//
//	symgen -gen churn -fib routes.txt -elem rt -entries 100 -seed 3
//	symgen -gen churn -mac table.txt -elem sw -entries 100 -seed 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"symnet/internal/asa"
	"symnet/internal/churn"
	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/models"
	"symnet/internal/tables"
)

// generate writes a deterministic synthetic snapshot: the same kind,
// entries, ports and seed always produce byte-identical output.
func generate(w io.Writer, kind string, entries, ports int, seed int64) error {
	if entries <= 0 || ports <= 0 {
		return fmt.Errorf("need -entries > 0 and -ports > 0 (got %d, %d)", entries, ports)
	}
	switch kind {
	case "mac":
		_, err := datasets.SwitchTable(entries, ports, seed).WriteTo(w)
		return err
	case "fib":
		_, err := datasets.CoreFIB(entries, ports, seed).WriteTo(w)
		return err
	}
	return fmt.Errorf("unknown -gen kind %q (want mac|fib|churn)", kind)
}

// generateChurn writes a deterministic delta stream over a base snapshot:
// baseKind selects the parser ("fib" or "mac"), elem names the target
// element in every delta, and carrier is the prefix pool for route inserts.
func generateChurn(w io.Writer, base io.Reader, baseKind, elem, carrier string, entries int, seed int64) error {
	if entries <= 0 {
		return fmt.Errorf("need -entries > 0 (got %d)", entries)
	}
	var ds []churn.Delta
	switch baseKind {
	case "fib":
		fib, err := tables.ParseFIB(base)
		if err != nil {
			return err
		}
		ds, err = churn.GenFIBDeltas(elem, fib, carrier, entries, seed)
		if err != nil {
			return err
		}
	case "mac":
		tbl, err := tables.ParseMACTable(base)
		if err != nil {
			return err
		}
		ds, err = churn.GenMACDeltas(elem, tbl, entries, seed)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("-gen churn needs a base snapshot: -fib FILE or -mac FILE")
	}
	return churn.EncodeDeltas(w, ds)
}

func main() {
	macPath := flag.String("mac", "", "switch MAC-table snapshot")
	fibPath := flag.String("fib", "", "router forwarding-table snapshot")
	asaPath := flag.String("asa", "", "ASA configuration")
	styleName := flag.String("style", "egress", "model style: basic|ingress|egress")
	gen := flag.String("gen", "", "generate a synthetic snapshot to stdout: mac|fib|churn")
	entries := flag.Int("entries", 1000, "entries to generate with -gen")
	ports := flag.Int("ports", 16, "output ports to spread -gen entries over")
	seed := flag.Int64("seed", 1, "deterministic seed for -gen (same seed, same bytes)")
	elem := flag.String("elem", "rt", "element name stamped on -gen churn deltas")
	carrier := flag.String("carrier", "10.128.0.0/9", "prefix pool for -gen churn route inserts")
	flag.Parse()

	if *gen == "churn" {
		baseKind, basePath := "", ""
		switch {
		case *fibPath != "":
			baseKind, basePath = "fib", *fibPath
		case *macPath != "":
			baseKind, basePath = "mac", *macPath
		}
		f, err := os.Open(basePath)
		if err != nil {
			if basePath == "" {
				err = fmt.Errorf("-gen churn needs a base snapshot: -fib FILE or -mac FILE")
			}
			fatal(err)
		}
		defer f.Close()
		if err := generateChurn(os.Stdout, f, baseKind, *elem, *carrier, *entries, *seed); err != nil {
			fatal(err)
		}
		return
	}

	if *gen != "" {
		if err := generate(os.Stdout, *gen, *entries, *ports, *seed); err != nil {
			fatal(err)
		}
		return
	}

	var style models.Style
	switch *styleName {
	case "basic":
		style = models.Basic
	case "ingress":
		style = models.Ingress
	case "egress":
		style = models.Egress
	default:
		fatal(fmt.Errorf("unknown style %q", *styleName))
	}

	switch {
	case *macPath != "":
		f, err := os.Open(*macPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tbl, err := tables.ParseMACTable(f)
		if err != nil {
			fatal(err)
		}
		ports := tbl.Ports()
		net := core.NewNetwork()
		sw := net.AddElement("switch", "switch", len(ports)+1, ports[len(ports)-1]+1)
		if err := models.Switch(sw, tbl, style); err != nil {
			fatal(err)
		}
		fmt.Printf("switch model (%v): %d MAC entries, %d ports\n", style, len(tbl), len(ports))
		for port := core.WildcardPort; port < sw.NumOut; port++ {
			if code, ok := sw.Code(port, true); ok {
				fmt.Printf("OutputPort(%d): %.120s\n", port, code.String())
			}
		}
		for port := core.WildcardPort; port < sw.NumIn; port++ {
			if code, ok := sw.Code(port, false); ok {
				fmt.Printf("InputPort(%d): %.120s\n", port, code.String())
			}
		}

	case *fibPath != "":
		f, err := os.Open(*fibPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		fib, err := tables.ParseFIB(f)
		if err != nil {
			fatal(err)
		}
		compiled := tables.CompileLPM(fib)
		fmt.Printf("router model (%v): %d routes, %d exclusion constraints\n",
			style, len(fib), tables.NumExclusions(compiled))
		ports := fib.Ports()
		net := core.NewNetwork()
		r := net.AddElement("router", "router", len(ports)+1, ports[len(ports)-1]+1)
		if err := models.Router(r, fib, style); err != nil {
			fatal(err)
		}
		fmt.Printf("ports: %v\n", ports)

	case *asaPath != "":
		f, err := os.Open(*asaPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg, err := asa.ParseConfig(f)
		if err != nil {
			fatal(err)
		}
		net := core.NewNetwork()
		el := net.AddElement(cfg.Name, "asa", 2, 2)
		asa.Build(el, cfg)
		fmt.Printf("ASA pipeline %q: %d static NAT rules, dynamic NAT=%v, %d+%d ACL rules, %d allowed / %d dropped option kinds\n",
			cfg.Name, len(cfg.StaticNAT), cfg.DynamicNAT != nil,
			len(cfg.InboundACL), len(cfg.OutboundACL),
			len(cfg.Options.Allow), len(cfg.Options.Drop))

	default:
		fmt.Fprintln(os.Stderr, "usage: symgen (-mac FILE | -fib FILE | -asa FILE) [-style basic|ingress|egress]")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "symgen:", err)
	os.Exit(1)
}
