package hypergraph

import (
	"strings"
	"testing"
)

func TestBuilderReserveNoRealloc(t *testing.T) {
	b := NewBuilder()
	b.Reserve(100, 50, 200)
	pinsCap := cap(b.flatPins)
	for e := 0; e < 50; e++ {
		u := (e * 2) % 100
		if err := b.AddNet("", 1, u, u+1, (u+2)%100); err != nil {
			t.Fatal(err)
		}
	}
	if cap(b.flatPins) != pinsCap {
		t.Fatalf("pin arena reallocated: cap %d -> %d", pinsCap, cap(b.flatPins))
	}
	h := b.MustBuild()
	// Build must hand the reserved arena over without copying.
	if &h.pinArr[0] != &b.flatPins[0] {
		t.Fatal("Build copied the pin arena instead of adopting it")
	}
}

// TestBuilderReservedNamesNoRealloc: the first name sizes its name table
// to the reservation, so naming every node and net never regrows it, and
// an unnamed prefix still reads as "".
func TestBuilderReservedNamesNoRealloc(t *testing.T) {
	b := NewBuilder()
	b.Reserve(5, 3, 8)
	b.AddNode("", 1)
	for _, name := range []string{"b", "c", "d", "e"} {
		b.AddNode(name, 1)
	}
	for e, name := range []string{"", "y", "z"} {
		if err := b.AddNet(name, 1, e, e+1); err != nil {
			t.Fatal(err)
		}
	}
	if cap(b.nodeNames) != cap(b.nodeWeight) || cap(b.netNames) != cap(b.netCost) {
		t.Fatalf("name tables have cap %d and %d, want the reservation's %d and %d",
			cap(b.nodeNames), cap(b.netNames), cap(b.nodeWeight), cap(b.netCost))
	}
	h := b.MustBuild()
	if h.NodeName(0) != "" || h.NodeName(4) != "e" || h.NetName(0) != "" || h.NetName(2) != "z" {
		t.Fatalf("names %q %q %q %q", h.NodeName(0), h.NodeName(4), h.NetName(0), h.NetName(2))
	}
}

func TestBuilderDuplicatePinsMergedByDefault(t *testing.T) {
	b := NewBuilder()
	if err := b.AddNet("d", 1, 3, 1, 3, 2, 1); err != nil {
		t.Fatal(err)
	}
	if got := b.DuplicatePins(); got != 2 {
		t.Fatalf("DuplicatePins = %d, want 2", got)
	}
	h := b.MustBuild()
	if got := h.Net(0); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("merged net pins = %v, want [1 2 3]", got)
	}
}

func TestBuilderRejectDuplicatePins(t *testing.T) {
	b := NewBuilder()
	b.RejectDuplicatePins()
	if err := b.AddNet("ok", 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	err := b.AddNet("bad", 1, 2, 3, 2)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("strict AddNet error = %v, want duplicate-pin error", err)
	}
	if b.DuplicatePins() != 0 {
		t.Fatalf("DuplicatePins = %d after rejection, want 0", b.DuplicatePins())
	}
	// The rejected net must leave no trace: the next net and Build are clean.
	if err := b.AddNet("after", 1, 4, 5); err != nil {
		t.Fatal(err)
	}
	h := b.MustBuild()
	if h.NumNets() != 2 || h.NumPins() != 4 {
		t.Fatalf("got %d nets / %d pins after rejection, want 2 / 4", h.NumNets(), h.NumPins())
	}
}

func TestBuilderDropsSmallNetsAndTruncates(t *testing.T) {
	b := NewBuilder()
	if err := b.AddNet("single", 1, 7); err != nil {
		t.Fatal(err)
	}
	if err := b.AddNet("selfmerge", 1, 5, 5, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddNet("kept", 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if b.DroppedNets() != 2 {
		t.Fatalf("DroppedNets = %d, want 2", b.DroppedNets())
	}
	h := b.MustBuild()
	if h.NumNets() != 1 || h.NumPins() != 2 {
		t.Fatalf("got %d nets / %d pins, want 1 / 2", h.NumNets(), h.NumPins())
	}
	// Dropped nets create no implicit nodes (their pins were rolled back
	// before EnsureNodes ran).
	if h.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", h.NumNodes())
	}
}

func TestBuilderAddNetInt32(t *testing.T) {
	b := NewBuilder()
	if err := b.AddNetInt32("", 2, []int32{4, 0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddNetInt32("", 1, []int32{1, -3}); err == nil {
		t.Fatal("negative int32 pin accepted")
	}
	h := b.MustBuild()
	if got := h.Net(0); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("net pins = %v, want [0 2 4]", got)
	}
	if h.NetCost(0) != 2 {
		t.Fatalf("net cost = %g, want 2", h.NetCost(0))
	}
}
