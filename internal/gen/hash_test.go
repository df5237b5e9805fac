package gen

import (
	"encoding/json"
	"hash/fnv"
	"testing"
)

// circuitHash folds h's Fingerprint (structure, costs, weights) and every
// node and net name into one value.
func circuitHash(t *testing.T, c Circuit) uint64 {
	t.Helper()
	f := fnv.New64a()
	fp := c.H.Fingerprint()
	for i := 0; i < 8; i++ {
		_, _ = f.Write([]byte{byte(fp >> (8 * i))})
	}
	for u := 0; u < c.H.NumNodes(); u++ {
		_, _ = f.Write([]byte(c.H.NodeName(u) + "\n"))
	}
	for e := 0; e < c.H.NumNets(); e++ {
		_, _ = f.Write([]byte(c.H.NetName(e) + "\n"))
	}
	return f.Sum64()
}

// TestGeneratedCircuitsUnchanged pins every Table 1 clone, the 30k scale
// circuit and the industry2 ECO delta to fixed hashes: the goldens, the
// benchmarks and every recorded measurement assume the generators' output
// never changes, so a rewrite of their internals must draw the same random
// sequence.
func TestGeneratedCircuitsUnchanged(t *testing.T) {
	want := map[string]uint64{
		"balu": 0x4322ce90a8e1a281, "bm1": 0xe1eac738288a3f82,
		"p1": 0xc4a1fbcdc50b5986, "p2": 0x44825f032f645090,
		"s13207": 0x86f95ba36d829c33, "s15850": 0xa44ba2de78841009,
		"s9234": 0x3633ae79710bcddf, "struct": 0x338dbdb4d217ad88,
		"19ks": 0xe4d34ed2a2af74fc, "biomed": 0x1844605637cbd3bb,
		"industry2": 0xe6299f433cbd2be4, "t2": 0xfd259e2a328b8ef5,
		"t3": 0xe2339e955174401e, "t4": 0xde93986572f3ab12,
		"t5": 0x6ef367a408fd7239, "t6": 0x899035017fbee366,
		"scale30k":      0x9e8e347090807bcd,
		"industry2-eco": 0xe4f227ec9d0de5b2,
	}
	got := map[string]uint64{}
	var industry2 Circuit
	for _, spec := range Table1() {
		c, err := SuiteCircuit(spec)
		if err != nil {
			t.Fatal(err)
		}
		got[spec.Name] = circuitHash(t, c)
		if spec.Name == "industry2" {
			industry2 = c
		}
	}
	sh, err := GenerateScale(ScaleParams{Nodes: 30_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got["scale30k"] = circuitHash(t, Circuit{H: sh})
	d, err := ECO(industry2.H, ECOParams{Fraction: 0.05, Seed: 1000})
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	f := fnv.New64a()
	_, _ = f.Write(js)
	got["industry2-eco"] = f.Sum64()
	for name, g := range got {
		if want[name] != g {
			t.Errorf("%s hashes %#x, want %#x", name, g, want[name])
		}
	}
}
