// Command bftbench regenerates the tables and figures of the paper's
// evaluation (Chapter 8). Run one experiment or all of them:
//
//	bftbench -list
//	bftbench -exp E1 -scale 2
//	bftbench -exp all
//
// Scale multiplies iteration counts: 1 is a quick pass, 5+ gives smoother
// numbers. The repository benchmark (bench/README.md) and the measurements
// recorded in CHANGES.md are the maintained performance record.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id (E1..E11) or 'all'")
		scale = flag.Int("scale", 1, "work multiplier (>=1)")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, s := range experiments.All() {
			fmt.Printf("  %-4s %-55s [%s]\n", s.ID, s.What, s.Paper)
		}
		return
	}
	if *scale < 1 {
		*scale = 1
	}

	var specs []experiments.Spec
	if strings.EqualFold(*exp, "all") {
		specs = experiments.All()
	} else {
		s, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		specs = []experiments.Spec{s}
	}

	for _, s := range specs {
		fmt.Printf("--- %s: %s (reproduces %s) ---\n", s.ID, s.What, s.Paper)
		start := time.Now()
		for _, t := range s.Run(*scale) {
			fmt.Println(t.String())
		}
		fmt.Printf("(%s took %v)\n\n", s.ID, time.Since(start).Round(time.Millisecond))
	}
}
