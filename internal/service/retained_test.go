package service_test

import (
	"runtime"
	"sort"
	"testing"

	"popproto/internal/service"
)

// retainedJobs are the seeds of TestRetainedHeapPerFrame: pll n = 1000
// jobs, on the engine "auto" resolves to there, whose elections include
// BackUp tails, the runs that record the longest trajectories.
func retainedJobs() []service.JobSpec {
	specs := make([]service.JobSpec, 64)
	for i := range specs {
		specs[i] = service.JobSpec{Protocol: "pll", N: 1000, Engine: "auto", Seed: uint64(i + 1)}
	}
	return specs
}

// runRetainedJobs submits every spec to m and waits for them all, one
// at a time on its one worker.
func runRetainedJobs(t *testing.T, m *service.Manager) []*service.Job {
	t.Helper()
	var jobs []*service.Job
	for _, spec := range retainedJobs() {
		j, _, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		jobs = append(jobs, j)
	}
	return jobs
}

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedHeapPerFrame bounds what a finished job's trajectory
// retains: the heap a manager holds after a fixed set of seeded jobs,
// divided by the frames their trajectories keep. The same jobs first run
// on a throwaway manager, so the pooled state tables they borrow have
// already interned every state and rendered every name before the
// measurement starts, and the manager's own instruments are allocated
// before it too.
func TestRetainedHeapPerFrame(t *testing.T) {
	warm := service.NewManager(service.Options{Workers: 1})
	runRetainedJobs(t, warm)
	warm.Close()

	m := service.NewManager(service.Options{Workers: 1})
	defer m.Close()
	before := heapInUse()
	jobs := runRetainedJobs(t, m)
	after := heapInUse()

	frames := 0
	var times []float64
	for _, j := range jobs {
		v := j.View()
		frames += v.Snapshots
		times = append(times, v.Result.ParallelTime)
	}
	sort.Float64s(times)
	// A BackUp tail runs many times the median election; without one the
	// set would measure only short trajectories.
	if median, longest := times[len(times)/2], times[len(times)-1]; longest < 5*median {
		t.Fatalf("longest election %.1f parallel time, median %.1f: the set holds no BackUp tail", longest, median)
	}
	perFrame := float64(after-before) / float64(frames)
	t.Logf("%d jobs, %d frames: %d bytes retained, %.0f per frame", len(jobs), frames, after-before, perFrame)
	runtime.KeepAlive(jobs)
	runtime.KeepAlive(m)
	if perFrame > retainedPerFrame {
		t.Errorf("%.0f bytes retained per frame, want at most %d", perFrame, retainedPerFrame)
	}
}

// retainedPerFrame is the bound of TestRetainedHeapPerFrame: it measured
// 199 bytes per frame on linux/amd64 with Go 1.24, 332 when each job
// quoted its own copy of the census names, and 1,003 when each frame
// kept its rendered JSON.
const retainedPerFrame = 240
