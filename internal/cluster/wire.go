// Package cluster shards ensembles across popprotod processes: a
// coordinator splits an experiment's replicate range into the canonical
// partition (ensemble.PlanRanges), hands ranges to pull-based workers
// as expiring leases over HTTP, and left-folds the returned partial
// aggregates in ascending range order. Because workers execute ranges
// through the same ensemble.RunRanges / ReplicateSeed machinery the
// local executor uses, and the fold is the same ensemble.Partial.Merge,
// a distributed run is bit-identical to a single-node run of the same
// spec — which is what lets the service's canonical-key cache and store
// dedup discipline hold cluster-wide. Local execution is the degenerate
// case: with no live workers the coordinator claims every range itself
// and runs them through one pipelined pass.
package cluster

import (
	"fmt"

	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/registry"
)

// WireSpec is the canonical ensemble spec as it travels inside a lease.
// It carries only resolved values (engine concrete, seed and budget
// derived) so a worker reconstructs exactly the spec the coordinator
// planned — CITarget/MinReplicates deliberately do not travel: early
// stopping is the coordinator's fold-frontier decision, workers always
// compute whole ranges.
type WireSpec struct {
	Protocol   string `json:"protocol"`
	N          int    `json:"n"`
	Engine     string `json:"engine"`
	Seed       uint64 `json:"seed"`
	M          int    `json:"m,omitempty"`
	Replicates int    `json:"replicates"`
	Budget     uint64 `json:"budget"`
	ObsCap     int    `json:"obsCap"`
}

// wireFromSpec encodes a canonical ensemble spec for the wire.
func wireFromSpec(spec ensemble.Spec) WireSpec {
	return WireSpec{
		Protocol:   spec.Registry.Protocol,
		N:          spec.Registry.N,
		Engine:     spec.Registry.Engine.String(),
		Seed:       spec.Registry.Seed,
		M:          spec.Registry.M,
		Replicates: spec.Replicates,
		Budget:     spec.Budget,
		ObsCap:     spec.ObsCap,
	}
}

// Spec decodes the wire spec back into an ensemble spec.
func (w WireSpec) Spec() (ensemble.Spec, error) {
	engine, err := pp.ParseEngine(w.Engine)
	if err != nil {
		return ensemble.Spec{}, fmt.Errorf("cluster: lease spec: %w", err)
	}
	return ensemble.Spec{
		Registry: registry.Spec{
			Protocol: w.Protocol,
			N:        w.N,
			Engine:   engine,
			Seed:     w.Seed,
			M:        w.M,
		},
		Replicates: w.Replicates,
		Budget:     w.Budget,
		ObsCap:     w.ObsCap,
	}, nil
}

// Lease is one replicate range granted to a worker, valid until its TTL
// elapses without a heartbeat.
type Lease struct {
	ID        string         `json:"id"`
	Run       string         `json:"run"`
	Range     ensemble.Range `json:"range"`
	Spec      WireSpec       `json:"spec"`
	TTLMillis int64          `json:"ttlMillis"`
}

// Distribution describes how an ensemble's ranges were executed — the
// "distribution" block attached to job, experiment and sweep-cell
// results. It is reporting only: the aggregates themselves are
// bit-identical however the ranges were placed.
type Distribution struct {
	// Mode is "local" (every range ran in-process) or "cluster" (at
	// least one range ran on a remote worker).
	Mode string `json:"mode"`
	// Workers is the number of distinct remote workers that completed
	// at least one range.
	Workers int `json:"workers,omitempty"`
	// Ranges and RangeSize describe the canonical partition; Completed
	// counts ranges folded into the result.
	Ranges    int `json:"ranges"`
	RangeSize int `json:"rangeSize"`
	Completed int `json:"completed"`
	// LocalRanges and RemoteRanges split Completed by where the range
	// executed.
	LocalRanges  int `json:"localRanges,omitempty"`
	RemoteRanges int `json:"remoteRanges,omitempty"`
	// Retries counts lease expiries that forced a range to be reissued.
	Retries int `json:"retries,omitempty"`
}

// LocalDistribution is the constant distribution of work that never
// left the process and was not range-partitioned (single jobs).
func LocalDistribution() *Distribution {
	return &Distribution{Mode: "local", Ranges: 1, RangeSize: 1, Completed: 1, LocalRanges: 1}
}

// Request/response bodies of the lease protocol. Partial payloads are
// the ensemble binary wire format, carried base64-coded by
// encoding/json's []byte convention.
type leaseRequest struct {
	Worker string `json:"worker"`
}

type leaseResponse struct {
	Lease *Lease `json:"lease"`
}

type completeRequest struct {
	Worker  string `json:"worker"`
	Partial []byte `json:"partial"`
}

type completeResponse struct {
	Accepted bool `json:"accepted"`
}
