// Command bsidebench runs bside's end-to-end benchmark: one seeded
// workload per run, every answer checked against emulator ground
// truth, the metrics printed with units and sample counts, and a JSON
// result object as the last line of standard output.
//
// Usage:
//
//	bsidebench -workload sweep-cold|sweep-warm|large-binary|serve-mixed
//	    [-seed 42] [-seconds 12] [-trace 0|1] [-workdir dir] [-out report.json]
//	bsidebench -compare base.json head.json
//
// bench/README.md defines every workload and metric.
package main

import (
	"os"

	"bside/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == bench.ChildArg {
		os.Exit(bench.ChildMain(os.Stdin, os.Stdout))
	}
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
