// Command ldlint runs the repository's static-analysis suite: three
// analyzers (noalloc, noallocprop, determinism) that enforce the
// performance and determinism contracts documented in DESIGN.md, built
// entirely on the stdlib toolchain. Every run runs all of them; it exits
// non-zero when any contract is violated.
//
// Usage:
//
//	ldlint [-list] [-C dir] [./...]
package main

import (
	"os"

	"ldplayer/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
