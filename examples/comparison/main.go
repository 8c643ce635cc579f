// Comparison: race every election protocol in the registry on the same
// populations — a miniature, live version of the paper's Table 1.
//
//	go run ./examples/comparison [-quick]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/registry"
	"popproto/internal/table"
)

var (
	repetitions = 10
	engine      pp.Engine
)

func main() {
	quick := flag.Bool("quick", false, "smoke-test scale (tiny populations, few repetitions)")
	engineName := flag.String("engine", "agent",
		"simulation engine: "+strings.Join(pp.EngineNames(), " | "))
	flag.Parse()
	eng, err := pp.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "comparison:", err)
		os.Exit(1)
	}
	engine = eng
	sizes := []int{256, 1024, 4096}
	if *quick {
		sizes = []int{64, 128, 256}
		repetitions = 3
	}
	nMax := sizes[len(sizes)-1]

	cols := []string{"protocol", fmt.Sprintf("states (n=%d)", nMax)}
	for _, n := range sizes {
		cols = append(cols, fmt.Sprintf("t̄(%d)", n))
	}
	tbl := table.New(cols...)

	fmt.Printf("mean parallel stabilization time over %d runs per cell\n\n", repetitions)
	for _, entry := range registry.Entries() {
		if entry.Target != 1 {
			// The epidemic coverage workload is not an election; Table 1
			// compares electors only.
			continue
		}
		cells := []string{
			fmt.Sprintf("%s (%s states, %s time)", entry.Key, entry.States, entry.Time),
			fmt.Sprintf("%d", entry.StateCount(nMax, 0)),
		}
		for _, n := range sizes {
			cells = append(cells, fmt.Sprintf("%.1f", meanTime(entry.Key, n)))
		}
		tbl.AddRow(cells...)
	}
	fmt.Print(tbl.Markdown())
	fmt.Println("\nNote how the two-state protocol pays Θ(n) while PLL stays near a·lg n,")
	fmt.Println("and how MaxID matches PLL's speed only by spending Θ(n²) states.")
}

func meanTime(protocol string, n int) float64 {
	res, err := ensemble.Run(context.Background(), ensemble.Spec{
		Registry:   registry.Spec{Protocol: protocol, N: n, Engine: engine, Seed: 7},
		Replicates: repetitions,
	}, ensemble.Options{})
	if err != nil {
		panic(err)
	}
	if agg := res.Aggregates; agg.Stabilized < agg.Replicates {
		panic(fmt.Sprintf("%s did not stabilize at n=%d", protocol, n))
	}
	return res.Aggregates.MeanParallelTime
}
