package asa

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"testing"

	"symnet/internal/core"
)

// FuzzParseASA: ParseConfig never panics on a configuration file (what
// `symgen -asa` reads); what it rejects it rejects naming a line of the
// input, and what it accepts builds onto a fresh element (Build) whose
// programs compile (core.Warm) without panicking either.
func FuzzParseASA(f *testing.F) {
	for _, s := range []string{
		"hostname dept-asa\nstatic-nat 10.0.0.5 141.85.37.5\ndynamic-nat 141.85.37.2 1024-65535\n" +
			"access-list inbound permit tcp host 141.85.37.5 eq 80\naccess-list inbound deny any\n" +
			"access-list outbound permit any\ntcp-options allow mss,wscale,sackok,sack,timestamp\n" +
			"tcp-options drop md5\ntcp-options strip-sack-http\n",
		"! comment\naccess-list outbound permit udp host 8.8.8.8 # dns\n",
		"dynamic-nat 141.85.37.2 1024-65535x\n",
		"static-nat 0 0",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ParseConfig(bytes.NewReader(data))
		if err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				return
			}
			var line int
			if _, serr := fmt.Sscanf(err.Error(), "asa: line %d:", &line); serr != nil {
				t.Fatalf("error %q names no line", err)
			}
			if lines := bytes.Count(data, []byte{'\n'}) + 1; line < 1 || line > lines {
				t.Fatalf("error %q names line %d of %d", err, line, lines)
			}
			return
		}
		net := core.NewNetwork()
		Build(net.AddElement("ASA", "asa", 2, 2), cfg)
		core.Warm(net)
	})
}
