// Package serveq provides the bounded, deadline-aware admission queue
// behind ghsom-serve: jobs carry an absolute deadline, admission is
// non-blocking (a full queue sheds immediately instead of building an
// unbounded backlog), and expired jobs are dropped before they waste
// dataplane work. Every outcome — admitted, shed on capacity, shed on
// deadline, shed after admission close, dropped expired at dequeue — is
// counted, so overload behavior is observable from /stats.
//
// The queue itself is a channel, so consumers keep ordinary select
// loops; serveq owns only the admission policy and the counters.
package serveq

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by Push. Callers map them to wire semantics: ErrFull
// and ErrPastDeadline are overload sheds (HTTP 429 + Retry-After),
// ErrClosed means the server is draining (HTTP 503).
var (
	// ErrFull is returned when the queue is at capacity.
	ErrFull = errors.New("serveq: queue full")
	// ErrPastDeadline is returned when the job's deadline has already
	// passed at enqueue time.
	ErrPastDeadline = errors.New("serveq: deadline already passed")
	// ErrClosed is returned after CloseAdmission: the server is draining
	// and admits no new work.
	ErrClosed = errors.New("serveq: admission closed")
)

// Job is implemented by queued work items. A zero Deadline means the job
// never expires.
type Job interface {
	Deadline() time.Time
}

// Stats is a snapshot of the queue's monotonic outcome counters.
type Stats struct {
	// Admitted counts jobs accepted into the queue.
	Admitted int64
	// RejectedFull counts jobs shed because the queue was at capacity.
	RejectedFull int64
	// RejectedDeadline counts jobs shed because their deadline had
	// already passed at enqueue.
	RejectedDeadline int64
	// RejectedClosed counts jobs shed after admission closed (drain).
	RejectedClosed int64
	// DroppedDeadline counts admitted jobs dropped at dequeue or flush
	// because their deadline passed while they waited.
	DroppedDeadline int64
}

// Queue is a bounded admission queue of deadline-carrying jobs.
type Queue[T Job] struct {
	c                chan T
	closed           atomic.Bool
	admitted         atomic.Int64
	rejectedFull     atomic.Int64
	rejectedDeadline atomic.Int64
	rejectedClosed   atomic.Int64
	droppedDeadline  atomic.Int64

	// Queue-wait aggregates since the last TakeWaitStats scrape. The
	// consumer reports each dequeued job's wait via ObserveWait; a stats
	// scrape drains the window. A mutex (not atomics) because observation
	// happens once per dequeue, far off the per-record hot path.
	waitMu    sync.Mutex
	waitCount int64
	waitSum   time.Duration
	waitMax   time.Duration
}

// New returns a queue holding at most capacity pending jobs (floored at
// 1).
func New[T Job](capacity int) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue[T]{c: make(chan T, capacity)}
}

// Push admits j, never blocking: a closed queue returns ErrClosed, an
// already-expired job ErrPastDeadline, a full queue ErrFull. Each
// outcome increments its counter.
func (q *Queue[T]) Push(j T) error {
	return q.PushAt(j, time.Now())
}

// PushAt is Push with an explicit clock reading, for tests.
func (q *Queue[T]) PushAt(j T, now time.Time) error {
	if q.closed.Load() {
		q.rejectedClosed.Add(1)
		return ErrClosed
	}
	if dl := j.Deadline(); !dl.IsZero() && !now.Before(dl) {
		q.rejectedDeadline.Add(1)
		return ErrPastDeadline
	}
	select {
	case q.c <- j:
		q.admitted.Add(1)
		return nil
	default:
		q.rejectedFull.Add(1)
		return ErrFull
	}
}

// C is the receive side: consumers select on it directly. The channel is
// never closed (CloseAdmission only stops Push), so drain loops must
// use their own quit signal plus non-blocking receives.
func (q *Queue[T]) C() <-chan T { return q.c }

// Alive reports whether a dequeued job is still worth serving at now.
// It returns false — and counts a deadline-miss drop — when the job's
// deadline passed while it waited. Each job should be checked via Alive
// until it is either dropped or served, so a job is counted at most
// once.
func (q *Queue[T]) Alive(j T, now time.Time) bool {
	if dl := j.Deadline(); !dl.IsZero() && !now.Before(dl) {
		q.droppedDeadline.Add(1)
		return false
	}
	return true
}

// WaitStats aggregates observed queue waits — the time jobs spent
// between admission and dequeue — over one scrape window.
type WaitStats struct {
	// Count is the number of waits observed in the window.
	Count int64
	// Max is the longest observed wait.
	Max time.Duration
	// Mean is the arithmetic mean wait.
	Mean time.Duration
}

// ObserveWait records one dequeued job's queue wait. Consumers call it
// when they pull a job off C, so the aggregates reflect real backlog:
// a balancer fronting several queues can prefer the one whose jobs wait
// least.
func (q *Queue[T]) ObserveWait(d time.Duration) {
	if d < 0 {
		d = 0
	}
	q.waitMu.Lock()
	q.waitCount++
	q.waitSum += d
	if d > q.waitMax {
		q.waitMax = d
	}
	q.waitMu.Unlock()
}

// TakeWaitStats snapshots and resets the queue-wait aggregates: each
// scrape sees the waits observed since the previous scrape, so a stats
// poller gets per-interval pressure rather than a lifetime average that
// goes numb under load swings.
func (q *Queue[T]) TakeWaitStats() WaitStats {
	q.waitMu.Lock()
	defer q.waitMu.Unlock()
	out := WaitStats{Count: q.waitCount, Max: q.waitMax}
	if q.waitCount > 0 {
		out.Mean = q.waitSum / time.Duration(q.waitCount)
	}
	q.waitCount, q.waitSum, q.waitMax = 0, 0, 0
	return out
}

// CloseAdmission stops admitting new jobs: every subsequent Push returns
// ErrClosed. Jobs already queued stay queued for the consumer to drain.
// Safe to call more than once.
func (q *Queue[T]) CloseAdmission() { q.closed.Store(true) }

// Depth is the number of jobs currently waiting in the queue.
func (q *Queue[T]) Depth() int { return len(q.c) }

// Cap is the queue's capacity.
func (q *Queue[T]) Cap() int { return cap(q.c) }

// Stats snapshots the outcome counters.
func (q *Queue[T]) Stats() Stats {
	return Stats{
		Admitted:         q.admitted.Load(),
		RejectedFull:     q.rejectedFull.Load(),
		RejectedDeadline: q.rejectedDeadline.Load(),
		RejectedClosed:   q.rejectedClosed.Load(),
		DroppedDeadline:  q.droppedDeadline.Load(),
	}
}
