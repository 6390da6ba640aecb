// Deliberate interprocedural violations: the allocation in deep must be
// reported with the multi-frame call path from the annotated root, and
// the stale noallocprop suppression must be flagged as unused.
package seeded

import "fmt"

//ldlint:noalloc
func entry(n int) {
	mid(n)
}

func mid(n int) {
	deep(n)
}

func deep(n int) {
	sink = fmt.Sprint(n)
}

//ldlint:ignore noallocprop stale exemption: nothing interprocedural fires on this function anymore
func tidy() {}
