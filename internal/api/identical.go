package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"wayplace/internal/engine"
)

// CheckIdentical is the positional byte-identity check of a served
// batch answer: it runs reqs on ref, a direct engine with no HTTP
// involved (its run cache makes repeat checks cheap), and requires the
// answer to be done with no cell errors and one result per request,
// result i carrying request i's canonical key and stats whose JSON
// bytes equal the direct run's. It returns the first difference.
func CheckIdentical(ctx context.Context, ref *engine.Engine, reqs []RunRequest, resp *BatchResponse) error {
	specs, err := ToSpecs(reqs)
	if err != nil {
		return err
	}
	direct, err := ref.Run(ctx, specs)
	if err != nil {
		return fmt.Errorf("direct run: %w", err)
	}
	if resp.Status != StatusDone || len(resp.Errors) != 0 {
		return fmt.Errorf("batch ended %q with %d cell errors: %+v", resp.Status, len(resp.Errors), resp.Errors)
	}
	if len(resp.Results) != len(reqs) {
		return fmt.Errorf("%d results for %d requests", len(resp.Results), len(reqs))
	}
	for i, rr := range resp.Results {
		key := specs[i].Key()
		if rr.Key != key {
			return fmt.Errorf("cell %d: key %q, want %q (merge order broken)", i, rr.Key, key)
		}
		got, err := json.Marshal(rr.Stats)
		if err != nil {
			return err
		}
		want, err := json.Marshal(direct[i].Stats)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("cell %d (%s): stats diverge from a direct engine run:\n served %s\n direct %s", i, key, got, want)
		}
	}
	return nil
}
