package serveq

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// Closed reports whether admission has been closed.
func (q *Queue[T]) Closed() bool { return q.closed.Load() }

// tj is the test job: a value with an optional deadline.
type tj struct {
	id int
	dl time.Time
}

func (j tj) Deadline() time.Time { return j.dl }

func TestPushPopOrderAndDepth(t *testing.T) {
	q := New[tj](4)
	if q.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4", q.Cap())
	}
	for i := 0; i < 3; i++ {
		if err := q.Push(tj{id: i}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if q.Depth() != 3 {
		t.Fatalf("Depth() = %d, want 3", q.Depth())
	}
	for i := 0; i < 3; i++ {
		j := <-q.C()
		if j.id != i {
			t.Fatalf("dequeued %d, want %d (FIFO)", j.id, i)
		}
		if !q.Alive(j, time.Now()) {
			t.Fatalf("job %d without deadline reported dead", i)
		}
	}
	st := q.Stats()
	if st.Admitted != 3 || st.RejectedFull != 0 || st.DroppedDeadline != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPushShedsWhenFull(t *testing.T) {
	q := New[tj](2)
	if err := q.Push(tj{id: 0}); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(tj{id: 1}); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(tj{id: 2}); !errors.Is(err, ErrFull) {
		t.Fatalf("push to full queue: %v, want ErrFull", err)
	}
	if st := q.Stats(); st.Admitted != 2 || st.RejectedFull != 1 {
		t.Errorf("stats = %+v, want 2 admitted, 1 rejected full", st)
	}
	// Draining one slot re-opens admission.
	<-q.C()
	if err := q.Push(tj{id: 3}); err != nil {
		t.Fatalf("push after drain: %v", err)
	}
}

func TestPushRejectsPastDeadline(t *testing.T) {
	q := New[tj](4)
	now := time.Now()
	err := q.PushAt(tj{dl: now.Add(-time.Millisecond)}, now)
	if !errors.Is(err, ErrPastDeadline) {
		t.Fatalf("expired push: %v, want ErrPastDeadline", err)
	}
	// A deadline exactly at now is also past: the job cannot finish
	// within it.
	if err := q.PushAt(tj{dl: now}, now); !errors.Is(err, ErrPastDeadline) {
		t.Fatalf("deadline==now push: %v, want ErrPastDeadline", err)
	}
	if err := q.PushAt(tj{dl: now.Add(time.Second)}, now); err != nil {
		t.Fatalf("live push: %v", err)
	}
	if st := q.Stats(); st.RejectedDeadline != 2 || st.Admitted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAliveDropsExpiredAtDequeue(t *testing.T) {
	q := New[tj](4)
	now := time.Now()
	if err := q.PushAt(tj{id: 1, dl: now.Add(time.Millisecond)}, now); err != nil {
		t.Fatal(err)
	}
	j := <-q.C()
	if q.Alive(j, now.Add(2*time.Millisecond)) {
		t.Fatal("expired job reported alive at dequeue")
	}
	if st := q.Stats(); st.DroppedDeadline != 1 {
		t.Errorf("stats = %+v, want 1 dropped", st)
	}
}

func TestCloseAdmissionShedsNewKeepsQueued(t *testing.T) {
	q := New[tj](4)
	if err := q.Push(tj{id: 7}); err != nil {
		t.Fatal(err)
	}
	q.CloseAdmission()
	q.CloseAdmission() // idempotent
	if !q.Closed() {
		t.Fatal("Closed() = false after CloseAdmission")
	}
	if err := q.Push(tj{id: 8}); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v, want ErrClosed", err)
	}
	// The queued job is still there for the drain loop.
	select {
	case j := <-q.C():
		if j.id != 7 {
			t.Fatalf("drained job %d, want 7", j.id)
		}
	default:
		t.Fatal("queued job lost on CloseAdmission")
	}
	if st := q.Stats(); st.RejectedClosed != 1 {
		t.Errorf("stats = %+v, want 1 rejected closed", st)
	}
}

// TestConcurrentPushDrain hammers Push from many goroutines against a
// draining consumer and checks conservation: every job is exactly one of
// admitted-and-served or rejected. Run with -race.
func TestConcurrentPushDrain(t *testing.T) {
	q := New[tj](8)
	const producers = 8
	const perProducer = 200
	var served atomic64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case j := <-q.C():
				if q.Alive(j, time.Now()) {
					served.add(1)
				}
			default:
				if q.Closed() && q.Depth() == 0 {
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	var rejected atomic64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := q.Push(tj{id: i}); err != nil {
					rejected.add(1)
				}
			}
		}()
	}
	wg.Wait()
	q.CloseAdmission()
	<-done
	st := q.Stats()
	total := int64(producers * perProducer)
	if st.Admitted+st.RejectedFull != total {
		t.Errorf("admitted %d + rejectedFull %d != %d pushes", st.Admitted, st.RejectedFull, total)
	}
	if served.load() != st.Admitted {
		t.Errorf("served %d != admitted %d", served.load(), st.Admitted)
	}
	if rejected.load() != st.RejectedFull {
		t.Errorf("push errors %d != rejectedFull %d", rejected.load(), st.RejectedFull)
	}
}

// atomic64 is a tiny local counter to keep the test self-contained.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
