// Package outsideverbs is under no deterministic, codec, or snapshot
// scope: scoped //p3q: verbs used here must be rejected as unknown for
// this package, exactly like a misspelled verb, so a directive can never
// silently assert nothing from the wrong package.
package outsideverbs

//p3q:hotpath
// want-above "unknown directive //p3q:hotpath in package example.com/outsideverbs"

func notHot() map[int]int {
	return map[int]int{}
}

//p3q:transient cache, rebuilt on demand
// want-above "unknown directive //p3q:transient in package example.com/outsideverbs"

var cache map[int]int

//p3q:phase plan
// want-above "unknown directive //p3q:phase in package example.com/outsideverbs"

func notPlanned() { _ = cache }

//p3q:hostplane wall time for a progress line
// want-above "unknown directive //p3q:hostplane in package example.com/outsideverbs"

func notHostplane() {}

func notExcused() []int {
	//p3q:alloc result slice
	// want-above "unknown directive //p3q:alloc in package example.com/outsideverbs"
	return make([]int, 1)
}
