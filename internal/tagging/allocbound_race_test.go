//go:build race

package tagging

// addAllAllocBound is TestAddAllGrowsItemColumnOnce's bound under the race
// detector: the normal build's 7 plus one for each of AddAll's four
// slices.Grow calls. Race instrumentation turns off the compiler's fusion
// of append with make, so each slices.Grow allocates twice (a memory
// profile of the race build shows it: 10 allocations, where a normal
// build makes 6).
const addAllAllocBound = 7 + 4
