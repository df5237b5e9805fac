package hgio

import (
	"strings"
	"testing"
)

// The readers feed a network service (propserve), so every malformed
// input must come back as an error — never a panic, never a silently
// truncated netlist.

func TestHGRMalformed(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"comment only", "% nothing here\n"},
		{"one-field header", "3\n"},
		{"four-field header", "1 2 3 4\n"},
		{"non-numeric net count", "x 4\n1 2\n"},
		{"non-numeric node count", "1 x\n1 2\n"},
		{"unknown fmt", "1 4 7\n1 2\n"},
		{"truncated nets", "3 4\n1 2\n"},
		{"pin zero", "1 4\n0 2\n"},
		{"pin negative", "1 4\n-1 2\n"},
		{"pin out of range", "1 4\n1 5\n"},
		{"pin not a number", "1 4\n1 two\n"},
		{"bad net cost", "1 4 1\nx 1 2\n"},
		{"cost line empty", "1 4 1\n\n% only a comment after\n"},
		{"missing node weights", "1 4 10\n1 2\n1\n1\n"},
		{"bad node weight", "1 4 10\n1 2\n1\n1\nx\n1\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, err := ReadHGR(strings.NewReader(c.in))
			if err == nil {
				t.Fatalf("accepted %q as %d nodes / %d nets", c.in, h.NumNodes(), h.NumNets())
			}
		})
	}
}

// TestHGRNonFiniteCost: strconv.ParseFloat accepts "inf" and "nan", so
// the reader must still refuse them as net costs, naming the net and the
// value.
func TestHGRNonFiniteCost(t *testing.T) {
	for _, cost := range []string{"inf", "+Inf", "nan", "-inf"} {
		t.Run(cost, func(t *testing.T) {
			in := "2 4 1\n1 1 2\n" + cost + " 3 4\n"
			h, err := ReadHGR(strings.NewReader(in))
			if err == nil {
				t.Fatalf("accepted cost %q as %d nets", cost, h.NumNets())
			}
			if msg := err.Error(); !strings.Contains(msg, `"n1"`) || !strings.Contains(strings.ToLower(msg), strings.TrimPrefix(strings.ToLower(cost), "+")) {
				t.Errorf("error %q names neither net n1 nor cost %s", msg, cost)
			}
		})
	}
}

func TestJSONMalformed(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"not json", "3 4\n1 2\n"},
		{"truncated", `{"nodes":[{}],"nets":[{"pins":[0`},
		{"unknown field", `{"nodes":[{}],"nets":[],"extra":1}`},
		{"pin out of range", `{"nodes":[{},{}],"nets":[{"pins":[0,5]}]}`},
		{"negative pin", `{"nodes":[{},{}],"nets":[{"pins":[-1,1]}]}`},
		{"pins wrong type", `{"nodes":[{}],"nets":[{"pins":["a"]}]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(c.in)); err == nil {
				t.Fatalf("accepted %q", c.in)
			}
		})
	}
}

func TestNetAreMalformed(t *testing.T) {
	// A well-formed 2-net, 3-module fixture to mutate: header then pins.
	good := "0\n5\n2\n3\n0\na1 s\na2 l\na3 l\na2 s\na3 l\n"
	if _, err := ReadNetAre(strings.NewReader(good), nil); err != nil {
		t.Fatalf("fixture rejected: %v", err)
	}
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"truncated header", "0\n5\n2\n"},
		{"non-numeric header", "0\nx\n2\n3\n0\na1 s\na2 l\n"},
		{"bad pin kind", "0\n2\n1\n2\n0\na1 s\na2 q\n"},
		{"pin line one field", "0\n2\n1\n2\n0\na1\na2 l\n"},
		{"pin count mismatch", "0\n9\n2\n3\n0\na1 s\na2 l\na3 l\na2 s\na3 l\n"},
		{"net count mismatch", "0\n5\n7\n3\n0\na1 s\na2 l\na3 l\na2 s\na3 l\n"},
		{"module count mismatch", "0\n5\n2\n9\n0\na1 s\na2 l\na3 l\na2 s\na3 l\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadNetAre(strings.NewReader(c.in), nil); err == nil {
				t.Fatalf("accepted %q", c.in)
			}
		})
	}
}

func TestNetAreBadAreaFile(t *testing.T) {
	net := "0\n5\n2\n3\n0\na1 s\na2 l\na3 l\na2 s\na3 l\n"
	if _, err := ReadNetAre(strings.NewReader(net), strings.NewReader("a1 not-a-number\n")); err == nil {
		t.Fatal("accepted malformed .are area")
	}
}

// TestNetAreMismatchedAre: an .are file naming modules absent from the
// .net file must not corrupt the netlist — unknown names are ignored and
// the named ones keep their areas.
func TestNetAreMismatchedAre(t *testing.T) {
	net := "0\n5\n2\n3\n0\na1 s\na2 l\na3 l\na2 s\na3 l\n"
	are := "a1 4\nzz 9\n"
	h, err := ReadNetAre(strings.NewReader(net), strings.NewReader(are))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3", h.NumNodes())
	}
	for u := 0; u < h.NumNodes(); u++ {
		want := int64(1)
		if h.NodeName(u) == "a1" {
			want = 4
		}
		if h.NodeWeight(u) != want {
			t.Errorf("node %s weight %d, want %d", h.NodeName(u), h.NodeWeight(u), want)
		}
	}
}
