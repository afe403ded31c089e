package core

import (
	"sync"

	"ghsom/internal/parallel"
	"ghsom/internal/vecmath"
)

// trainQueue runs the map-training jobs of one TrainMatrix call as a
// dataflow tree: a child map is queued the moment its parent has trained
// and expanded, so no map waits for the slowest map of its layer. The
// worker budget is parallel.Resolve(Parallelism) slots. A training job
// holds one slot; the slots no job holds are idle, and a running job's
// batch passes borrow idle slots as extra workers (borrow/giveBack) and
// return them when the pass ends, where they go to queued jobs first. So
// at most budget goroutines do work at any time, and at budget 1 every
// job trains on the calling goroutine in turn.
//
// Scheduling decides only when a job runs and on how many workers its
// passes fan out; every job's result is a function of the job alone and
// the passes are bit-identical at every worker count, so the trained
// tree is the same for every budget and every interleaving. Node IDs
// and the growth trace are assigned afterwards, in breadth-first order.
type trainQueue struct {
	g   *GHSOM
	mat vecmath.Matrix // the shared training matrix every job views

	mu      sync.Mutex
	drained sync.Cond  // signaled when pending reaches zero
	ready   []*nodeJob // jobs waiting for a slot
	idle    int        // slots held by no job and no pass
	pending int        // jobs ready or training
}

// run trains root and, transitively, every map it expands into; it
// returns when the whole tree has trained.
func (q *trainQueue) run(root *nodeJob) {
	q.drained.L = &q.mu
	q.ready = []*nodeJob{root}
	q.pending = 1
	q.idle = parallel.Resolve(q.g.cfg.Parallelism) - 1
	q.work()
	q.mu.Lock()
	for q.pending > 0 {
		q.drained.Wait()
	}
	q.mu.Unlock()
}

// work holds one slot: it trains ready jobs until none is left, queueing
// each job's children as soon as the job is done, then frees the slot.
func (q *trainQueue) work() {
	q.mu.Lock()
	for len(q.ready) > 0 {
		jb := q.popLocked()
		q.mu.Unlock()
		q.g.trainJob(jb, q)
		q.mu.Lock()
		q.ready = append(q.ready, jb.children...)
		q.pending += len(jb.children) - 1
		// This worker takes one of the new jobs itself.
		q.startLocked(len(q.ready) - 1)
	}
	q.idle++
	if q.pending == 0 {
		q.drained.Broadcast()
	}
	q.mu.Unlock()
}

// popLocked removes and returns the ready job with the most rows: the
// largest maps train longest and head the largest subtrees, so starting
// them first shortens the tail where one map trains alone.
func (q *trainQueue) popLocked() *nodeJob {
	best := 0
	for i, jb := range q.ready {
		if jb.view.Rows() > q.ready[best].view.Rows() {
			best = i
		}
	}
	jb := q.ready[best]
	last := len(q.ready) - 1
	q.ready[best] = q.ready[last]
	q.ready[last] = nil
	q.ready = q.ready[:last]
	return jb
}

// startLocked starts a worker on an idle slot for each of up to jobs
// ready jobs.
func (q *trainQueue) startLocked(jobs int) {
	for ; jobs > 0 && q.idle > 0; jobs-- {
		q.idle--
		go q.work()
	}
}

// borrow takes up to want idle slots for a running job's pass and
// returns how many it got.
func (q *trainQueue) borrow(want int) int {
	if want <= 0 {
		return 0
	}
	q.mu.Lock()
	k := min(want, q.idle)
	q.idle -= k
	q.mu.Unlock()
	return k
}

// giveBack returns k borrowed slots, starting ready jobs on them first.
func (q *trainQueue) giveBack(k int) {
	if k == 0 {
		return
	}
	q.mu.Lock()
	q.idle += k
	q.startLocked(len(q.ready))
	q.mu.Unlock()
}

// pass runs fn with a worker count of 1 plus the idle slots a BMU pass
// over rows records of a units-unit map can keep busy — one per GEMM
// tile of rows beyond the first — and then returns the borrowed slots.
func (q *trainQueue) pass(rows, units int, fn func(p int)) {
	tile := vecmath.ResolveTile(q.g.dim, units, 2).RecRows
	k := q.borrow((rows+tile-1)/tile - 1)
	fn(1 + k)
	q.giveBack(k)
}
