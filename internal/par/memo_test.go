package par

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// errTransient stands for infrastructure weather a retry may clear.
var errTransient = errors.New("connection reset")

// TestMemoRecomputesFailures: a computation that was canceled or failed
// transiently is dropped, and the next request computes the key again;
// a success is kept and replayed.
func TestMemoRecomputesFailures(t *testing.T) {
	for _, failure := range []error{
		context.Canceled,
		fmt.Errorf("run: %w", context.DeadlineExceeded),
		fmt.Errorf("push: %w", errTransient),
	} {
		var m Memo[string, string]
		calls := 0
		compute := func(err error) func() (string, error) {
			return func() (string, error) {
				calls++
				if err != nil {
					return "", err
				}
				return "out", nil
			}
		}
		if _, err := m.Do(context.Background(), "k", compute(failure)); err != failure {
			t.Fatalf("first request: err = %v, want %v", err, failure)
		}
		for i := 0; i < 2; i++ {
			v, err := m.Do(context.Background(), "k", compute(nil))
			if err != nil || v != "out" {
				t.Fatalf("request after %v: got %q, %v", failure, v, err)
			}
		}
		if calls != 2 {
			t.Errorf("after %v: %d computations, want 2 (the failure, then one kept success)", failure, calls)
		}
	}
}

// TestMemoWaiterRecomputesAfterCanceledOwner: a request waiting on a
// computation whose own context is canceled does not receive that
// cancellation; it computes the key itself.
func TestMemoWaiterRecomputesAfterCanceledOwner(t *testing.T) {
	var m Memo[string, string]
	started, release := make(chan struct{}), make(chan struct{})
	ownerCtx, cancel := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := m.Do(ownerCtx, "k", func() (string, error) {
			close(started)
			<-release
			return "", ownerCtx.Err()
		})
		ownerErr <- err
	}()
	<-started
	waiter := make(chan string, 1)
	go func() {
		v, err := m.Do(context.Background(), "k", func() (string, error) { return "recomputed", nil })
		if err != nil {
			v = err.Error()
		}
		waiter <- v
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter reach the wait
	cancel()
	close(release)
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	if v := <-waiter; v != "recomputed" {
		t.Errorf("waiter got %q, want its own computation", v)
	}
}

// TestMemoConcurrentRequestsComputeOnce: identical requests in flight
// together share one computation.
func TestMemoConcurrentRequestsComputeOnce(t *testing.T) {
	var m Memo[string, string]
	var calls atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = m.Do(context.Background(), "k", func() (string, error) {
				calls.Add(1)
				<-release
				return "once", nil
			})
		}(i)
	}
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let the other requests reach the wait
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("%d computations, want 1", n)
	}
	for i, v := range got {
		if v != "once" {
			t.Errorf("request %d got %q", i, v)
		}
	}
}
