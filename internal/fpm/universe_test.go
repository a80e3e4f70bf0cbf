package fpm

import (
	"reflect"
	"runtime"
	"testing"
)

// TestUniverseDeterministicAcrossGOMAXPROCS checks that the universe pack
// is a pure function of its inputs however many items are packed at once:
// the generalized universe of a 20k-row folktables table built at
// GOMAXPROCS 1 and 4 has identical row sets, attribute ids, polarities
// and memory statistics.
func TestUniverseDeterministicAcrossGOMAXPROCS(t *testing.T) {
	tab, hs, o := folktablesHierarchies(t, 20_000)
	build := func(procs int) *Universe {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return GeneralizedUniverse(tab, hs, o)
	}
	serial, parallel := build(1), build(4)
	if len(serial.Items) < 10 {
		t.Fatalf("only %d items; the fixture should give a real universe", len(serial.Items))
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Rows", parallel.Rows, serial.Rows},
		{"AttrID", parallel.AttrID, serial.AttrID},
		{"Polarity", parallel.Polarity, serial.Polarity},
		{"Memory", parallel.Memory(), serial.Memory()},
		{"attrs", parallel.attrs, serial.attrs},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s differs between GOMAXPROCS 4 and 1", c.name)
		}
	}
}
