package simeng

import (
	"fmt"
	"strings"
	"testing"

	"isacmp/internal/isa"
)

func TestParseLatencyConfig(t *testing.T) {
	cfg := `
# custom core
fp-add: 4
fp-div: 30   # slow divider
int-mul: 2
`
	m, err := ParseLatencyConfig(strings.NewReader(cfg), TX2Latencies())
	if err != nil {
		t.Fatal(err)
	}
	if m.Latency(isa.GroupFPAdd) != 4 || m.Latency(isa.GroupFPDiv) != 30 || m.Latency(isa.GroupIntMul) != 2 {
		t.Fatalf("overrides not applied: %+v", m)
	}
	// Unmentioned groups keep the base value.
	if m.Latency(isa.GroupIntSimple) != TX2Latencies().Latency(isa.GroupIntSimple) {
		t.Fatal("base value not preserved")
	}
}

func TestParseLatencyConfigErrors(t *testing.T) {
	cases := []string{
		"fp-add 4",      // missing colon
		"warp-drive: 3", // unknown group
		"fp-add: zero",  // non-numeric
		"fp-add: 0",     // zero latency
		"fp-add: -2",    // negative
	}
	for _, c := range cases {
		if _, err := ParseLatencyConfig(strings.NewReader(c), nil); err == nil {
			t.Errorf("config %q accepted", c)
		}
	}
}

// TestLatencyConfigRoundTrip: a config that names every group by its
// isa.Group string replaces the whole base model.
func TestLatencyConfigRoundTrip(t *testing.T) {
	var sb strings.Builder
	for g := isa.Group(0); g < isa.NumGroups; g++ {
		fmt.Fprintf(&sb, "%s: %d\n", g, A55Latencies()[g])
	}
	m, err := ParseLatencyConfig(strings.NewReader(sb.String()), TX2Latencies())
	if err != nil {
		t.Fatal(err)
	}
	if *m != *A55Latencies() {
		t.Fatalf("round trip mismatch:\n%v\n%v", m, A55Latencies())
	}
}

func TestParseLatencyConfigNilBase(t *testing.T) {
	m, err := ParseLatencyConfig(strings.NewReader(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	if *m != *TX2Latencies() {
		t.Fatal("empty config with nil base should equal TX2")
	}
}
