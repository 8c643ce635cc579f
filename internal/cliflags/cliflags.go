// Package cliflags defines, once, the command-line flags shared by the
// simulation front-ends (cmd/leaderelect, cmd/experiments, cmd/sweep):
// engine selection with the catalog-derived usage text, protocol keys,
// ensemble replicate counts, CI early-stop targets, and worker counts.
// Registering them here keeps spellings and defaults documentation
// identical across the commands — and means a new engine or
// the "auto" pseudo-engine appears in every command's help the moment
// it exists.
package cliflags

import (
	"flag"
	"strings"

	"popproto/internal/pp"
)

// Engine registers -engine. def is the command's default spelling;
// purpose completes "…: " in the usage line. The choice list is derived
// from pp.EngineChoices — the concrete engines plus "auto", which
// resolves to the registry's recommendation per protocol and population
// size — so help text cannot drift as engines are added.
func Engine(fs *flag.FlagSet, def, purpose string) *string {
	return fs.String("engine", def,
		purpose+": "+strings.Join(pp.EngineChoices(), " | ")+
			" (census-based engines scale to large n; auto picks the registry's recommendation per protocol and n)")
}

// Protocol registers -protocol with the shared registry-key usage.
func Protocol(fs *flag.FlagSet, def string) *string {
	return fs.String("protocol", def, "protocol registry key (see -list-protocols)")
}

// Replicates registers -replicates. purpose is the command-specific
// meaning of the count (the semantics differ: an ensemble size for
// leaderelect and sweep, a per-cell override for experiments).
func Replicates(fs *flag.FlagSet, def int, purpose string) *int {
	return fs.Int("replicates", def, purpose)
}

// CI registers -ci with the shared early-stop contract: a relative 95%
// CI half-width target on the mean stabilization time, 0 disabling
// early stopping. ensemble.CheckCI validates it.
func CI(fs *flag.FlagSet) *float64 {
	return fs.Float64("ci", 0,
		"ensemble early-stop target: relative 95% CI half-width of the mean time (0 = run every replicate)")
}

// Workers registers -workers with the shared default doc.
func Workers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "simulation workers (0 = NumCPU)")
}

// Seed registers -seed.
func Seed(fs *flag.FlagSet, def uint64, purpose string) *uint64 {
	return fs.Uint64("seed", def, purpose)
}
