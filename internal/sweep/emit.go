package sweep

import (
	"context"

	"repro/internal/obs"
)

// Emitter receives ordered incremental sweep-point deliveries from
// MapCtx. PointDone(i, n, reg) is called exactly once per completed
// sweep point, in submission-index order, on the goroutine that called
// MapCtx — never concurrently with itself — and only after point i's
// child registry has merged into the run's parent registry. A snapshot
// of the parent taken inside PointDone therefore reflects exactly the
// points 0..i, at any worker count.
//
// reg is point i's child registry (nil when the run has no parent
// registry), already consumed by the merge: its metrics live in the
// parent now, its trace is still there to read (TraceStreamer.Emit).
// It must not be recorded into or retained past the call: the engine
// discards it afterwards.
//
// Because delivery order is submission order and each point's registry
// content is deterministic, the full emission sequence is byte-for-byte
// identical at any worker count — the property the serving layer's
// live-attach replay and TestLiveStreamEveryScenario assert end to end.
type Emitter interface {
	PointDone(i, n int, reg *obs.Registry)
}

type emitterCtxKey struct{}
type registryCtxKey struct{}

// WithEmitter returns a context that delivers every sweep point run
// under it to em, in submission-index order. The emitter is per-run
// state: attach a fresh one per job, not per engine (an engine is shared
// and outlives jobs).
func WithEmitter(ctx context.Context, em Emitter) context.Context {
	return context.WithValue(ctx, emitterCtxKey{}, em)
}

// WithRegistry returns a context that overrides the engine's parent
// registry for sweeps run under it. This is how a shared engine (built
// once with a nil parent) executes one job with per-run observability:
// children are created from — and merged back into — reg instead of the
// engine's parent.
func WithRegistry(ctx context.Context, reg *obs.Registry) context.Context {
	return context.WithValue(ctx, registryCtxKey{}, reg)
}

// emitterFrom extracts the run's emitter (nil when none is attached).
func emitterFrom(ctx context.Context) Emitter {
	em, _ := ctx.Value(emitterCtxKey{}).(Emitter)
	return em
}

// registryFrom resolves the parent registry for a sweep: the context
// override when present, otherwise fallback (the engine's parent).
func registryFrom(ctx context.Context, fallback *obs.Registry) *obs.Registry {
	if reg, ok := ctx.Value(registryCtxKey{}).(*obs.Registry); ok {
		return reg
	}
	return fallback
}
