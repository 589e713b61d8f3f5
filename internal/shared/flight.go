package shared

import (
	"context"
	"sync"
)

// Group deduplicates concurrent computations by key, context-aware on
// both sides. It is bside's one single-flight: the resolver loads
// each library image and computes each library interface through it,
// and a resident service fielding N concurrent requests for the same
// image hash runs exactly one analysis while the rest wait and share
// the outcome.
//
// Cancellation semantics are the part a plain singleflight gets wrong:
//
//   - The computation runs on a context DETACHED from the leader's
//     (context.WithoutCancel), so the caller that happened to arrive
//     first abandoning its request does not poison every waiter with its
//     cancellation error.
//   - Each waiter abandons individually: a canceled waiter gets its own
//     ctx.Err() immediately while the computation keeps running for the
//     others.
//   - When the LAST interested caller abandons, the detached context is
//     canceled — work nobody is waiting for stops instead of burning the
//     budget to completion.
//
// Group does not memoize; it only collapses the concurrent window.
// Whole-program results persist in the content-addressed cache, and that
// store — not an unbounded in-process map — is their memo. The resolver
// keeps its library memo maps beside its flights (memoized).
type Group[T any] struct {
	mu      sync.Mutex
	flights map[string]*groupFlight[T]
}

type groupFlight[T any] struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	val     T
	err     error
}

// Do runs compute for key exactly once among concurrent callers and
// returns its outcome. shared reports whether this caller joined a
// flight another caller started (the service's dedup counter). compute
// receives the detached context described on Group; it must honor that
// context for last-waiter-abandons cancellation to mean anything.
func (g *Group[T]) Do(ctx context.Context, key string, compute func(ctx context.Context) (T, error)) (val T, shared bool, err error) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*groupFlight[T])
	}
	if fl, ok := g.flights[key]; ok {
		fl.waiters++
		g.mu.Unlock()
		return g.wait(ctx, key, fl, true)
	}
	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	fl := &groupFlight[T]{done: make(chan struct{}), cancel: cancel, waiters: 1}
	g.flights[key] = fl
	g.mu.Unlock()

	go func() {
		fl.val, fl.err = compute(cctx)
		g.mu.Lock()
		if g.flights[key] == fl {
			delete(g.flights, key)
		}
		g.mu.Unlock()
		close(fl.done)
		cancel()
	}()
	return g.wait(ctx, key, fl, false)
}

// wait blocks until the flight completes or ctx is canceled, whichever
// comes first. An abandoning waiter decrements the flight's refcount;
// the last one out cancels the computation and unlinks the flight so a
// later caller starts fresh instead of joining doomed work.
func (g *Group[T]) wait(ctx context.Context, key string, fl *groupFlight[T], shared bool) (T, bool, error) {
	select {
	case <-fl.done:
		return fl.val, shared, fl.err
	case <-ctx.Done():
		g.mu.Lock()
		fl.waiters--
		if fl.waiters == 0 {
			fl.cancel()
			if g.flights[key] == fl {
				delete(g.flights, key)
			}
		}
		g.mu.Unlock()
		var zero T
		return zero, shared, ctx.Err()
	}
}
