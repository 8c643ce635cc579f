package harness

import (
	"reflect"
	"testing"
	"time"

	"popproto/internal/service"
)

// TestServiceReproducesCells checks the claim `experiments -list` makes:
// an ensemble cell of the claims table, submitted to the service as the
// /v1/experiments request with the same protocol, n, m, engine, seed and
// replicates, returns the aggregates the harness measured for it. It runs
// the first Quick cell of every row that has cells.
func TestServiceReproducesCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one ensemble per claims-table row")
	}
	m := service.NewManager(service.Options{Workers: 2})
	defer m.Close()
	cfg := quickCfg()
	rows := 0
	for _, e := range All() {
		if e.Cells == nil {
			continue
		}
		rows++
		t.Run(e.ID, func(t *testing.T) {
			cell := e.Cells(cfg)[0]
			exp, _, err := m.SubmitExperiment(service.ExperimentSpec{
				Protocol: cell.Registry.Protocol, N: cell.Registry.N, M: cell.Registry.M,
				Engine: cell.Registry.Engine.String(), Seed: cell.Registry.Seed,
				Replicates: cell.Replicates,
			})
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-exp.Done():
			case <-time.After(2 * time.Minute):
				t.Fatalf("experiment %s still %s after 2m", exp.ID, exp.State())
			}
			got := exp.Aggregates()
			if exp.State() != service.StateDone || got == nil {
				t.Fatalf("experiment %s ended %s", exp.ID, exp.State())
			}
			if want := measureEnsemble(cfg, cell); !reflect.DeepEqual(*got, want) {
				t.Errorf("service aggregates differ from the harness cell %+v:\nservice %+v\nharness %+v",
					cell.Registry, *got, want)
			}
		})
	}
	if rows < 5 {
		t.Fatalf("only %d rows have ensemble cells", rows)
	}
}
