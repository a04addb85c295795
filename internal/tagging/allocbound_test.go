//go:build !race

package tagging

// addAllAllocBound is TestAddAllGrowsItemColumnOnce's bound on the
// allocations of one profile build (six in a normal build).
const addAllAllocBound = 7
