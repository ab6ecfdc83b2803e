package legacy

import (
	"bytes"
	"testing"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// TestFloodReplicasDoNotAlias checks that every egress of a flood owns
// its frame. Each far end checks the bytes it got, then keeps the
// frame and scribbles its own port number over all of it, as an owner
// may; a shared buffer would show up as wrong bytes at a later
// receiver or as another port's mark in a kept frame. The trunk's far
// end plays the S4 hairpin instead: it retags what it got to VLAN 20
// and sends it straight back in on the synchronous link, so the switch
// is re-entered while the outer flood is still transmitting.
func TestFloodReplicasDoNotAlias(t *testing.T) {
	const trunk, hairpinDst = 2, 5
	sw := NewSwitch("alias", 6)
	for _, p := range []int{1, 3, 4, 6} {
		if err := sw.SetPortAccess(p, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.SetPortAccess(hairpinDst, 20); err != nil {
		t.Fatal(err)
	}
	if err := sw.SetPortTrunk(trunk, 1, []uint16{10, 20}); err != nil {
		t.Fatal(err)
	}

	untagged := ethFrame(t, macA, pkt.BroadcastMAC, "flood me, then scribble")
	tagged10 := taggedFrame(t, macA, pkt.BroadcastMAC, 10, "flood me, then scribble")
	var want map[int][]byte // expected bytes per far end, per case
	kept := make(map[int][][]byte)
	far := make(map[int]*netem.Port)
	for p := 1; p <= 6; p++ {
		l := netem.NewLink(netem.LinkConfig{})
		t.Cleanup(l.Close)
		sw.AttachPort(p, l.A())
		far[p] = l.B()
	}
	for p := 1; p <= 6; p++ {
		p := p
		far[p].SetReceiver(func(f []byte) {
			if w, ok := want[p]; !ok || !bytes.Equal(f, w) {
				t.Errorf("port %d received % x, want % x", p, f, w)
			}
			if p == trunk {
				if err := pkt.SetVLANID(f, 20); err != nil {
					t.Fatal(err)
				}
				_ = far[p].Send(f) // hairpin: ownership goes back to the switch
				return
			}
			f = f[:cap(f)]
			for i := range f {
				f[i] = byte(p)
			}
			kept[p] = append(kept[p], f)
		})
	}

	withRoom := func(f []byte) []byte { return append(make([]byte, 0, len(f)+pkt.Dot1QHeaderLen), f...) }
	cases := []struct {
		name string
		in   int
		send []byte
		want map[int][]byte
	}{
		{"tagged trunk frame to access ports", trunk, append([]byte(nil), tagged10...),
			map[int][]byte{1: untagged, 3: untagged, 4: untagged, 6: untagged}},
		{"tagged trunk frame with spare capacity", trunk, withRoom(tagged10),
			map[int][]byte{1: untagged, 3: untagged, 4: untagged, 6: untagged}},
		{"untagged access frame to access ports, trunk and hairpin", 1, append([]byte(nil), untagged...),
			map[int][]byte{trunk: tagged10, 3: untagged, 4: untagged, hairpinDst: untagged, 6: untagged}},
		{"untagged access frame with spare capacity", 1, withRoom(untagged),
			map[int][]byte{trunk: tagged10, 3: untagged, 4: untagged, hairpinDst: untagged, 6: untagged}},
	}
	for _, c := range cases {
		want = c.want
		clear(kept)
		if err := far[c.in].Send(c.send); err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= 6; p++ {
			n := 1
			if _, ok := c.want[p]; !ok || p == trunk {
				n = 0
			}
			if len(kept[p]) != n {
				t.Errorf("%s: port %d kept %d frames, want %d", c.name, p, len(kept[p]), n)
			}
			for _, f := range kept[p] {
				if bytes.Count(f, []byte{byte(p)}) != len(f) {
					t.Errorf("%s: port %d's kept frame was overwritten: % x", c.name, p, f)
				}
			}
		}
	}
}
