package click

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"testing"

	"symnet/internal/core"
)

// FuzzParseClick: ParseConfig never panics on a configuration file (what
// `symnet -config` reads); what it rejects it rejects naming a line of the
// input, and what it accepts compiles (core.Warm) without
// panicking either.
func FuzzParseClick(f *testing.F) {
	for _, s := range []string{
		"cls :: IPClassifier(tcp dst port 80, tcp);\nmirror :: IPMirror();\nq :: Queue();\n\ncls[0] -> mirror -> q;\ncls[1] -> [0]q;\n",
		"f :: HostEtherFilter(00:1a:2b:3c:4d:5e);\nd :: DecIPTTL();\nf -> d\n",
		"e :: EtherEncap(0x0800, 00:00:00:00:00:01, 00:00:00:00:00:02);\nin :: IPEncap(10.0.0.1, 10.0.0.2);\nout :: IPDecap();\nin -> out -> e\n",
		"c :: IPClassifier(src host 10.0.0.1 and udp, ip proto 6, dst port 22)\n",
		"a :: Queue();\na :: Queue();",
		"::EtherEncap(0,,)",
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
			if _, serr := fmt.Sscanf(err.Error(), "click: line %d:", &line); serr != nil {
				t.Fatalf("error %q names no line", err)
			}
			if lines := bytes.Count(data, []byte{'\n'}) + 1; line < 1 || line > lines {
				t.Fatalf("error %q names line %d of %d", err, line, lines)
			}
			return
		}
		core.Warm(cfg.Net)
	})
}
