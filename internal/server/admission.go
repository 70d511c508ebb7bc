package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// TenantConfig is one tenant's admission-control policy. The zero value
// means "no limits" on every axis. Statement deadlines and query budgets
// are the engine's (engine.Config.StatementTimeout and Budget).
type TenantConfig struct {
	// MaxConcurrent caps statements executing simultaneously for this
	// tenant; 0 is unlimited (no gate at all).
	MaxConcurrent int
	// QueueDepth bounds how many statements may wait for a slot once all
	// MaxConcurrent are busy; an arrival beyond the bound is shed
	// immediately with admission_rejected (429).
	QueueDepth int
	// QueueWait bounds how long a queued statement waits before giving
	// up with queue_timeout (429); 0 waits for the statement's own
	// context deadline only.
	QueueWait time.Duration
}

// gate is one tenant's admission state: a slot semaphore, a bounded
// waiter count, and outcome counters.
type gate struct {
	cfg      TenantConfig
	slots    chan struct{} // nil when MaxConcurrent == 0
	queued   atomic.Int64
	active   atomic.Int64
	admitted atomic.Int64
	rejected atomic.Int64
	timeouts atomic.Int64
}

func newGate(cfg TenantConfig) *gate {
	g := &gate{cfg: cfg}
	if cfg.MaxConcurrent > 0 {
		g.slots = make(chan struct{}, cfg.MaxConcurrent)
	}
	return g
}

// enter admits one statement, blocking in the bounded queue when all
// slots are busy. The returned release func must be called exactly once
// after the statement finishes; it is non-nil iff err is nil.
func (g *gate) enter(ctx context.Context) (func(), error) {
	if g.slots == nil {
		g.admitted.Add(1)
		g.active.Add(1)
		return func() { g.active.Add(-1) }, nil
	}
	release := func() {
		<-g.slots
		g.active.Add(-1)
	}
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		g.active.Add(1)
		return release, nil
	default:
	}
	// All slots busy: join the bounded queue or shed immediately.
	if g.queued.Add(1) > int64(g.cfg.QueueDepth) {
		g.queued.Add(-1)
		g.rejected.Add(1)
		return nil, errorf(http.StatusTooManyRequests, CodeAdmissionRejected,
			"tenant concurrency limit %d reached and queue full (depth %d)",
			g.cfg.MaxConcurrent, g.cfg.QueueDepth)
	}
	defer g.queued.Add(-1)
	var timeout <-chan time.Time
	if g.cfg.QueueWait > 0 {
		t := time.NewTimer(g.cfg.QueueWait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		g.active.Add(1)
		return release, nil
	case <-timeout:
		g.timeouts.Add(1)
		return nil, errorf(http.StatusTooManyRequests, CodeQueueTimeout,
			"no execution slot freed within %s", g.cfg.QueueWait)
	case <-ctx.Done():
		g.timeouts.Add(1)
		return nil, ctx.Err()
	}
}

// TenantStats is one tenant's admission telemetry in /metrics.
type TenantStats struct {
	Admitted      int64 `json:"admitted"`
	Rejected      int64 `json:"rejected"`
	QueueTimeouts int64 `json:"queue_timeouts"`
	Active        int64 `json:"active"`
	Queued        int64 `json:"queued"`
}

func (g *gate) stats() TenantStats {
	return TenantStats{
		Admitted:      g.admitted.Load(),
		Rejected:      g.rejected.Load(),
		QueueTimeouts: g.timeouts.Load(),
		Active:        g.active.Load(),
		Queued:        g.queued.Load(),
	}
}

// admission maps tenant names to gates. Unknown tenants share the
// default policy but get their own gate (and their own counters), so
// one tenant's burst never consumes another's slots.
type admission struct {
	mu         sync.Mutex
	defaultCfg TenantConfig
	gates      map[string]*gate
}

func newAdmission(defaultCfg TenantConfig) *admission {
	return &admission{defaultCfg: defaultCfg, gates: make(map[string]*gate)}
}

func (a *admission) gate(tenant string) *gate {
	a.mu.Lock()
	defer a.mu.Unlock()
	g, ok := a.gates[tenant]
	if !ok {
		g = newGate(a.defaultCfg)
		a.gates[tenant] = g
	}
	return g
}

func (a *admission) snapshot() map[string]TenantStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]TenantStats, len(a.gates))
	for name, g := range a.gates {
		out[name] = g.stats()
	}
	return out
}
