package exp

import (
	"bytes"
	"fmt"
	"testing"
)

// TestSpecAddressesGolden pins content addresses literally: each golden line
// is a spec's canonical JSON followed by its Hash. The other spec tests only
// compare hashes with each other, so a change that moved every address at
// once (a renamed JSON tag, a new always-emitted field, a different default)
// would pass them while orphaning every result a store holds. Regenerate
// only for a deliberate address change, and say so:
//
//	go test ./internal/exp -run SpecAddressesGolden -update
func TestSpecAddressesGolden(t *testing.T) {
	specs := []Spec{
		{Experiment: "fig3"},
		{Experiment: "quadrant", Quadrant: 1, Cores: []int{1, 2}},
		{Experiment: "incast"},
		{Experiment: "incast", Fabric: &FabricSpec{Hosts: 8}},
		{Experiment: "incast", Fabric: &FabricSpec{Hosts: 4},
			Faults: DefaultFaultSchedule(DefaultWarmupNs, DefaultWindowNs)},
		{Experiment: "faultsweep"},
		{Experiment: "quadrant", Fidelity: FidelityAnalytic},
	}
	var buf bytes.Buffer
	for _, s := range specs {
		canon, err := s.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", s.Experiment, err)
		}
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("%s: %v", s.Experiment, err)
		}
		fmt.Fprintf(&buf, "%s %s\n", canon, h)
	}
	checkGolden(t, "spec_addresses.golden", buf.Bytes())
}
