package main

import "math/rand"

// The benchmark's inputs are generated here from the workload seed and
// nothing else; the program under test only ever receives the batches
// these functions return.

// rngFor derives an independent, reproducible stream for one consumer
// (a client, a pass) of a seeded workload.
func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// stratifiedSizes returns n batch sizes in [lo, hi]. Each consecutive
// block of hi-lo+1 sizes is a seeded permutation of the whole range, so
// every seed sends the same mix of sizes and only their order differs.
func stratifiedSizes(rng *rand.Rand, n, lo, hi int) []int {
	span := hi - lo + 1
	sizes := make([]int, 0, n+span)
	for len(sizes) < n {
		for _, v := range rng.Perm(span) {
			sizes = append(sizes, lo+v)
		}
	}
	return sizes[:n]
}

// coldBatches orders a universe of n distinct cells by a seeded
// permutation and cuts it into batches of stratified sizes in
// [1, maxSize]. Every index appears exactly once, so a pass over the
// batches sends each cell once whatever the seed.
func coldBatches(seed int64, pass, n, maxSize int) [][]int {
	rng := rngFor(seed, pass)
	order := rng.Perm(n)
	var batches [][]int
	for _, size := range stratifiedSizes(rng, n, 1, maxSize) {
		if len(order) == 0 {
			break
		}
		if size > len(order) {
			size = len(order)
		}
		batches = append(batches, order[:size:size])
		order = order[size:]
	}
	return batches
}
