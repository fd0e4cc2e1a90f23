package par

import (
	"context"
	"sync"
)

// Memo is a keyed, single-flight store of computed values: the first
// request for a key computes it while concurrent requests for the key
// wait for that computation. Only successes are kept: a computation that
// fails, is canceled or panics is dropped, and the next request — a
// waiter included — computes the key afresh. The zero Memo is empty and
// ready to use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoCall[V]
}

type memoCall[V any] struct {
	done chan struct{} // closed when the computation finished
	val  V
	ok   bool // the computation succeeded and is kept
}

// Do returns the value kept for key, computing it with compute when no
// value is kept and no computation is in flight. A request waiting on
// another's computation gives up with ctx.Err() once ctx is done.
func (m *Memo[K, V]) Do(ctx context.Context, key K, compute func() (V, error)) (v V, err error) {
	for {
		m.mu.Lock()
		c, inFlight := m.m[key]
		if !inFlight {
			if m.m == nil {
				m.m = map[K]*memoCall[V]{}
			}
			c = &memoCall[V]{done: make(chan struct{})}
			m.m[key] = c
		}
		m.mu.Unlock()
		if !inFlight {
			defer m.finish(key, c)
			v, err = compute()
			c.val, c.ok = v, err == nil
			return v, err
		}
		select {
		case <-c.done:
			if c.ok {
				return c.val, nil
			}
		case <-ctx.Done():
			return v, ctx.Err()
		}
	}
}

// finish publishes a computation, dropping it unless it succeeded.
func (m *Memo[K, V]) finish(key K, c *memoCall[V]) {
	if !c.ok {
		m.mu.Lock()
		delete(m.m, key)
		m.mu.Unlock()
	}
	close(c.done)
}
