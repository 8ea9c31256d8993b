package sefl_test

import (
	"testing"

	"symnet/internal/asa"
	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/models"
	"symnet/internal/sefl"
)

// TestEqualReflexiveOnEveryDataset: every port's code of every dataset, and
// of the TCP-options filter (the one model writing a For), equals itself,
// its clone and its trip through the wire codec.
func TestEqualReflexiveOnEveryDataset(t *testing.T) {
	router := core.NewNetwork()
	if err := models.Router(router.AddElement("R", "router", 1, 4), datasets.CoreFIB(2000, 4, 1), models.Egress); err != nil {
		t.Fatal(err)
	}
	filter := core.NewNetwork()
	asa.OptionsElement(filter.AddElement("opts", "asa", 1, 1), asa.DefaultPolicy())
	fork, _ := datasets.ForkHeavy(6, 2, 4)
	nets := map[string]*core.Network{
		"department": datasets.NewDepartment(datasets.DefaultDepartment()).Net,
		"backbone":   datasets.StanfordBackbone(6, 40).Net,
		"splittcp": datasets.NewSplitTCP(datasets.SplitTCPConfig{
			MTUDrop: true, Tunnel: true, ProxyStripsVLAN: true, DHCPAppliance: true, ProxyRewritesMAC: true,
		}),
		"forkheavy":   fork,
		"core router": router,
		"asa options": filter,
	}
	for name, net := range nets {
		n := 0
		for _, e := range net.Elements() {
			for _, out := range []bool{false, true} {
				ports := e.NumIn
				if out {
					ports = e.NumOut
				}
				for p := core.WildcardPort; p < ports; p++ {
					code, ok := e.Code(p, out)
					if !ok {
						continue
					}
					n++
					reflexive(t, name+" "+core.PortRef{Elem: e.Name, Port: p, Out: out}.String(), code)
				}
			}
		}
		if n == 0 {
			t.Errorf("%s: no port code", name)
		}
	}
	for _, pkt := range []sefl.Instr{sefl.NewTCPPacket(), sefl.NewUDPPacket(), sefl.NewIPPacket(), datasets.SplitTCPClientPacket()} {
		reflexive(t, "packet", pkt)
	}
}

func reflexive(t *testing.T, name string, code sefl.Instr) {
	t.Helper()
	if !sefl.Equal(code, code) || !sefl.Equal(code, sefl.Clone(code)) {
		t.Fatalf("%s: code is not equal to itself or its clone", name)
	}
	w, err := sefl.EncodeInstr(code)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	back, err := sefl.DecodeInstr(w)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !sefl.Equal(code, back) {
		t.Fatalf("%s: code is not equal to its trip through the codec", name)
	}
}
