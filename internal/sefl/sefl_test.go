package sefl

import (
	"strings"
	"testing"
)

func TestIPConversions(t *testing.T) {
	cases := map[string]uint64{
		"0.0.0.0":         0,
		"10.0.0.1":        0x0a000001,
		"255.255.255.255": 0xffffffff,
		"192.168.1.100":   0xc0a80164,
	}
	for s, want := range cases {
		if got := IPToNumber(s); got != want {
			t.Errorf("IPToNumber(%q) = %#x, want %#x", s, got, want)
		}
		if back := NumberToIP(want); back != s {
			t.Errorf("NumberToIP(%#x) = %q, want %q", want, back, s)
		}
	}
}

func TestIPToNumberPanicsOnGarbage(t *testing.T) {
	for _, s := range []string{"1.2.3", "1.2.3.4.5", "a.b.c.d", "300.0.0.1"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("IPToNumber(%q) must panic", s)
				}
			}()
			IPToNumber(s)
		}()
	}
}

func TestMACConversions(t *testing.T) {
	mac := "00:aa:00:aa:00:aa"
	n := MACToNumber(mac)
	if n != 0x00aa00aa00aa {
		t.Fatalf("MACToNumber = %#x", n)
	}
	if back := NumberToMAC(n); back != mac {
		t.Fatalf("NumberToMAC = %q", back)
	}
}

func TestLayerLayoutContiguous(t *testing.T) {
	// The canonical layout must tile without gaps: L2 | L3 | L4 | payload.
	if L2Bits != 112 || L3Bits != 160 || l4Bits != 160 {
		t.Fatal("layer sizes changed; update Fig. 6 layout docs")
	}
	// Field offsets must stay inside their layer.
	for _, h := range []Hdr{EtherDst, EtherSrc, EtherProto} {
		if h.Off.Rel+int64(h.Size) > L2Bits {
			t.Errorf("%s exceeds L2", h.Name)
		}
	}
	for _, h := range []Hdr{IPLen, IPID, IPFlags, IPTTL, IPProto, IPChksum, IPSrc, IPDst} {
		if h.Off.Rel+int64(h.Size) > L3Bits {
			t.Errorf("%s exceeds L3", h.Name)
		}
	}
	for _, h := range []Hdr{TcpSrc, TcpDst, TcpSeq, TcpAck, tcpFlags, tcpWin} {
		if h.Off.Rel+int64(h.Size) > l4Bits {
			t.Errorf("%s exceeds L4", h.Name)
		}
	}
}

func TestInstructionStrings(t *testing.T) {
	i := If{
		C:    Eq(Ref{LV: TcpDst}, C(123)),
		Then: Seq(Assign{LV: TcpDst, E: C(22)}, Forward{Port: 1}),
		Else: Forward{Port: 2},
	}
	s := i.String()
	for _, want := range []string{"TcpDst == 123", "Assign(TcpDst,22)", "Forward(1)", "Forward(2)"} {
		if !strings.Contains(s, want) {
			t.Errorf("If.String() = %q missing %q", s, want)
		}
	}
	if (Fork{Ports: []int{0, 1}}).String() != "Fork(0,1)" {
		t.Error("Fork.String")
	}
	if (Constrain{C: CBool(true)}).String() != "Constrain(true)" {
		t.Error("Constrain.String")
	}
}

func TestOffString(t *testing.T) {
	if FromTag("L3", 96).String() != "Tag(L3)+96" {
		t.Errorf("got %q", FromTag("L3", 96).String())
	}
	if (Off{Rel: 42}).String() != "42" {
		t.Errorf("got %q", (Off{Rel: 42}).String())
	}
	if FromTag("L4", -160).String() != "Tag(L4)-160" {
		t.Errorf("got %q", FromTag("L4", -160).String())
	}
}

func TestSeqFlattening(t *testing.T) {
	single := Seq(NoOp{})
	if _, ok := single.(NoOp); !ok {
		t.Fatal("Seq of one instruction must not wrap")
	}
	multi := Seq(NoOp{}, NoOp{})
	if b, ok := multi.(Block); !ok || len(b.Is) != 2 {
		t.Fatal("Seq of two must be a Block")
	}
}
