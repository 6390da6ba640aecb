// Package noalloc is the golden fixture for the noalloc analyzer: each
// line with a trailing "want" marker must produce exactly the named
// diagnostic, and every unmarked shape must stay silent.
package noalloc

import (
	"errors"
	"fmt"
)

var (
	sink    []byte
	errSink error
	anySink func(any)
)

//ldlint:noalloc
func calls(n int) {
	_ = fmt.Sprintf("%d", n)     // want noalloc fmt.Sprintf allocates
	errSink = errors.New("boom") // want noalloc errors.New allocates
}

//ldlint:noalloc
func concat(s string) string {
	s += "suffix"       // want noalloc string concatenation allocates
	t := s + s          // want noalloc string concatenation allocates
	const u = "a" + "b" // ok: constant concatenation folds at compile time
	_ = u
	return t
}

//ldlint:noalloc
func literals(n int) {
	_ = map[string]int{"a": 1} // want noalloc map literal allocates
	sink = []byte{1, 2}        // want noalloc slice literal allocates
	sink = make([]byte, n)     // want noalloc make allocates
	_ = new(int)               // want noalloc new allocates
	var quad [4]byte
	quad = [4]byte{1, 2, 3, 4} // ok: array literals live on the stack
	_ = quad
}

//ldlint:noalloc
func appends(buf, extra []byte) []byte {
	buf = append(buf, extra...)   // ok: amortized growth writes back to buf
	misTarget := append(extra, 0) // want noalloc append result is not assigned back
	_ = misTarget
	return append(buf, 0) // ok: append-style encoder returns the grown slice
}

//ldlint:noalloc
func convert(b []byte, m map[string]int) int {
	_ = string(b)       // want noalloc conversion allocates outside the optimized map-index form
	return m[string(b)] // ok: the compiler keeps the map-index form allocation-free
}

//ldlint:noalloc
func boxes(v [2]int64, p *int) any {
	anySink(v) // want noalloc argument boxes
	anySink(p) // ok: pointer-shaped values box without a heap copy
	_ = any(v) // want noalloc conversion boxes
	return v   // want noalloc return value boxes
}

//ldlint:noalloc
func closure() int {
	total := 0
	add := func(n int) { total += n } // want noalloc closure captures mutated variable
	add(3)
	return total
}

type pair struct{ a, b int }

var (
	pairSink *pair
	intSink  *int
)

//ldlint:noalloc
func addresses(n int, p *pair) *int {
	v := n + 1
	pairSink = &pair{a: n} // want noalloc storing the address of pair{…} moves it to the heap
	local := &pair{b: n}   // ok: bound to a local, so it can stay on the stack
	intSink = &p.a         // ok: the address of storage that already exists
	_ = local
	return &v // want noalloc returning the address of v moves it to the heap
}

//ldlint:noalloc
func suppressed(n int) {
	sink = make([]byte, n) //ldlint:ignore noalloc fixture demonstrates a reasoned suppression
}

// unannotated functions may allocate freely.
func unannotated() []byte {
	return append(make([]byte, 0, 8), 'x')
}
