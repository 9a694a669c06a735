package main

import (
	"context"
	"testing"

	"wayplace/internal/experiment"
)

// TestCSVIdentity runs the -selfcheck figure leg on a two-benchmark
// suite: the figure 4 and 5 CSVs the grouped engine renders must be
// byte-identical to the coupled oracle's.
func TestCSVIdentity(t *testing.T) {
	suite, err := experiment.NewSuiteOf([]string{"crc", "sha"})
	if err != nil {
		t.Fatal(err)
	}
	if err := csvIdentity(context.Background(), suite, 2); err != nil {
		t.Fatal(err)
	}
}
