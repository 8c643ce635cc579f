package registry

import (
	"runtime"
	"slices"
	"sync"
	"unsafe"

	"popproto/internal/pp"
)

// poolKey names the pool of warm tables one agent-engine spec draws on:
// the spec minus seed and engine. It fixes the protocol value, which
// depends on n (core.Params carries N) and m, so every table in a pool
// interns the states of one protocol.
type poolKey struct {
	protocol string
	n, m     int
}

// warm is what an idle agent-engine election leaves in its pool: the
// state table with its memo, and the census names keyed by the table's
// state indexes.
type warm[S comparable] struct {
	table *pp.Table[S]
	names *censusNames[S]
}

// maxIdle bounds the idle tables over all specs, so a process that meets
// many specs retains a few tables, not one per spec: enough for every
// worker of a few concurrent specs.
var maxIdle = 4 * runtime.GOMAXPROCS(0)

// pool holds the idle tables, the most recently returned last. A table
// leaves the pool while an election uses it, so each serves one election
// at a time; once maxIdle are idle, a returned table displaces the one
// idle longest. It is process-wide, like a sync.Pool, because New is the
// one constructor every frontend calls; unlike a sync.Pool, a garbage
// collection does not empty it, so tables stay warm across collections.
var pool struct {
	mu   sync.Mutex
	idle []idleTable
}

type idleTable struct {
	key  poolKey
	warm pooled
}

// pooled is a *warm[S] of some state type S.
type pooled interface {
	// bytes approximates what the table holds: its transition memo
	// cells, its agent array and its quoted census names.
	bytes() int
}

func (w *warm[S]) bytes() int {
	n := w.table.Bytes()
	for _, q := range w.names.quoted {
		n += int(unsafe.Sizeof(q)) + len(q)
	}
	return n
}

// PoolStats returns the number of idle tables in the pool and the
// approximate bytes they hold: transition memo cells, agent arrays and
// quoted census names.
func PoolStats() (tables, bytes int) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for _, t := range pool.idle {
		bytes += t.warm.bytes()
	}
	return len(pool.idle), bytes
}

// borrow takes the most recently returned idle table of key out of the
// pool, or returns nil if it has none.
func borrow(key poolKey) pooled {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for i := len(pool.idle) - 1; i >= 0; i-- {
		if pool.idle[i].key == key {
			w := pool.idle[i].warm
			pool.idle = slices.Delete(pool.idle, i, i+1)
			return w
		}
	}
	return nil
}

// giveBack returns an idle table of key to the pool.
func giveBack(key poolKey, w pooled) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if len(pool.idle) == maxIdle {
		pool.idle = slices.Delete(pool.idle, 0, 1)
	}
	pool.idle = append(pool.idle, idleTable{key: key, warm: w})
}
