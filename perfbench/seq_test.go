package main

import (
	"reflect"
	"sort"
	"testing"

	"wayplace/internal/api"
)

func TestColdBatchesSendEachCellOnce(t *testing.T) {
	n := len(coldUniverse())
	for _, seed := range []int64{1, 2, 9001} {
		batches := coldBatches(seed, 0, n, 4)
		var all []int
		for _, b := range batches {
			if len(b) < 1 || len(b) > 4 {
				t.Fatalf("seed %d: batch of %d cells", seed, len(b))
			}
			all = append(all, b...)
		}
		sort.Ints(all)
		for i, v := range all {
			if v != i {
				t.Fatalf("seed %d: cells sent %v, want each of 0..%d once", seed, all, n-1)
			}
		}
		if !reflect.DeepEqual(batches, coldBatches(seed, 0, n, 4)) {
			t.Fatalf("seed %d: cold sequence not reproducible", seed)
		}
	}
	if reflect.DeepEqual(coldBatches(1, 0, n, 4), coldBatches(2, 0, n, 4)) {
		t.Error("different seeds gave the same cold sequence")
	}
}

func TestColdUniverseIsDistinctAndValid(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range coldUniverse() {
		k := r.Key()
		if k == "" || seen[k] {
			t.Errorf("invalid or repeated cell %+v", r)
		}
		seen[k] = true
	}
	if _, err := api.ToSpecs(coldUniverse()); err != nil {
		t.Error(err)
	}
}
