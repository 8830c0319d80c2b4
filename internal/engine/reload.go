// Zero-downtime pattern-set hot reload.
//
// A long-lived daemon cannot restart to pick up a new rule set, and the
// paper's flow model says it never needs to: per-flow matching state is
// an opaque context tied to the automaton that created it, so swapping
// automata is just swapping runner factories. The engine versions those
// factories as *generations*. Reload records generation N+1 as the
// default rule set's current one and delivers a swap command to every
// shard, which applies it on its own goroutine between segments (shards
// own their assemblers exclusively; nothing else may touch them). From the
// moment a shard applies the command, every flow it creates runs the
// new generation; what happens to flows already in flight is the
// ReloadPolicy:
//
//   - ReloadDrain: in-flight flows keep matching on the generation they
//     started with until they end (FIN/RST, eviction, idle sweep). No
//     flow is dropped and no in-flight match stream is perturbed — the
//     old automaton stays referenced until its last flow drains, then
//     becomes garbage.
//   - ReloadReset: in-flight flows restart matching on the new
//     generation immediately (TCP reassembly state is preserved;
//     matcher state restarts from q0). Matches already confirmed stand;
//     partially-advanced old-generation state is discarded.
//
// Either way the per-shard runner free lists are emptied on swap, so a
// recycled runner compiled for a superseded automaton can never serve a
// new flow (flow.SetGeneration), and validation of the *candidate*
// automaton — decode plus a self-check scan — is the caller's job
// before Reload is invoked (core.MFA.SelfCheck; cmd/mfaserve wires it).
//
// Every rule-set change — Reload for the default set, ReloadTenant and
// DropTenant for tenant sets (tenant.go) — takes one path, install: the
// default set is tenant 0, and a change is one command appended to each
// shard's ordered command list. Shards apply their list in order, so a
// reset followed by a drain both take effect (a newest-wins slot would
// silently lose the reset). Install never blocks on shard queues: the
// append is a short mutex section plus a non-blocking wake, so a reload
// completes promptly even against a backlogged or stalled shard (the
// stalled shard applies its commands when it next breathes — its flows
// are exactly the ones a drain policy would leave on the old generation
// anyway). A stalled shard's list keeps each queued generation alive
// until it catches up.

package engine

import (
	"errors"
	"fmt"
	"strconv"

	"matchfilter/internal/flow"
	"matchfilter/internal/telemetry"
	"matchfilter/internal/tenant"
)

// ReloadPolicy selects what happens to in-flight flows when Reload
// installs a new generation.
type ReloadPolicy int

const (
	// ReloadDrain lets existing flows finish on the generation they
	// started with; only new flows use the new one. Zero disruption.
	ReloadDrain ReloadPolicy = iota
	// ReloadReset restarts every existing flow's matching state on the
	// new generation immediately.
	ReloadReset
)

func (p ReloadPolicy) String() string {
	switch p {
	case ReloadDrain:
		return "drain"
	case ReloadReset:
		return "reset"
	default:
		return fmt.Sprintf("ReloadPolicy(%d)", int(p))
	}
}

// ParseReloadPolicy maps the flag spellings to a policy.
func ParseReloadPolicy(s string) (ReloadPolicy, error) {
	switch s {
	case "drain":
		return ReloadDrain, nil
	case "reset":
		return ReloadReset, nil
	default:
		return 0, fmt.Errorf("engine: unknown reload policy %q (want drain or reset)", s)
	}
}

// generation is one installed runner factory. Engine.cur maps each rule
// set to its newest; shards hold older ones alive through their
// assemblers until the last drain-mode flow ends.
type generation struct {
	id        uint64
	newRunner func() flow.Runner
	live      *telemetry.Gauge // per-generation live-flow gauge; may be nil
	// acct is the owning tenant's accounting block, handed to
	// flow.SetTenantGeneration so shards enforce that tenant's quotas;
	// nil for the default (tenant-0) rule set, which is unquota'd here
	// (the engine-wide governor covers it).
	acct *flow.TenantAcct
}

// flowGen is the generation in the shape flow.SetTenantGeneration
// consumes.
func (g *generation) flowGen() flow.Generation {
	return flow.Generation{ID: g.id, New: g.newRunner, Live: g.live}
}

// command is one pending rule-set change for a shard: install gen as
// tenant ten's current generation, or — when gen is nil — tear the
// tenant down. Tenant 0 is the default rule set.
type command struct {
	ten   uint32
	gen   *generation
	reset bool
}

// apply performs one command on an assembler. Shards call it for their
// queued commands and rebuilds call it to replay the serving rule sets,
// so both reach the same state.
func apply(a *flow.Assembler, c command) {
	if c.gen == nil {
		a.DropTenant(c.ten)
		return
	}
	a.SetTenantGeneration(c.ten, c.gen.flowGen(), c.gen.acct, c.reset)
}

// Generation reports the id of the generation new default-set flows
// start on. It begins at 1 and bumps on every successful Reload.
func (e *Engine) Generation() uint64 {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	return e.cur[0].id
}

// Reload atomically installs newRunner as the next pattern generation
// and delivers the swap to every shard. It returns the new generation
// id. Segments dispatched after Reload returns are guaranteed to see
// the swap before they are scanned (shards apply pending commands
// before each segment), so a flow whose first segment arrives after a
// reload always starts on the new generation. Reload never waits on
// shard queues and is safe to call concurrently with Handle calls;
// concurrent Reloads serialize. After Close it returns ErrClosed.
//
// Validation is deliberately not Reload's job: callers must vet the
// candidate (decode + core.MFA.SelfCheck or equivalent) first, so that
// a bad rules file is rejected while the running generation keeps
// serving untouched.
func (e *Engine) Reload(newRunner func() flow.Runner, policy ReloadPolicy) (uint64, error) {
	if newRunner == nil {
		return 0, errors.New("engine: reload with nil runner factory")
	}
	return e.install(nil, newRunner, policy == ReloadReset)
}

// install is the one swap path. It records newRunner as the next
// generation of t's rule set (t nil: the default set, tenant 0) — or,
// with a nil newRunner, forgets the tenant — and queues the command on
// every shard, all under swapMu so shards receive commands in the order
// Engine.cur changed. It returns the rule set's new generation number.
func (e *Engine) install(t *tenant.Tenant, newRunner func() flow.Runner, reset bool) (uint64, error) {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return 0, ErrClosed
	}
	c := command{reset: reset}
	if t != nil {
		c.ten = t.Index()
	}
	var n uint64
	if newRunner == nil {
		delete(e.cur, c.ten)
	} else {
		c.gen = &generation{newRunner: newRunner}
		if t == nil {
			n = e.cur[0].id + 1
		} else {
			n = t.NextGeneration()
			c.gen.acct = t.Acct()
		}
		c.gen.id = packGen(c.ten, n)
		if e.cfg.Metrics != nil {
			c.gen.live = registerGenerationGauge(e.cfg.Metrics, t, n)
		}
		e.cur[c.ten] = c.gen
	}
	for _, s := range e.shards {
		s.queue(c)
	}
	return n, nil
}

// queue appends one command to the shard's list and nudges an idle
// shard. Never blocks.
func (s *shard) queue(c command) {
	s.cmdMu.Lock()
	s.cmds = append(s.cmds, c)
	s.pending.Store(true)
	s.cmdMu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default: // a wake is already pending; the shard will drain the list
	}
}

// applyPending drains the command list in arrival order. Runs on the
// shard goroutine only.
func (s *shard) applyPending() {
	s.cmdMu.Lock()
	cmds := s.cmds
	s.cmds = nil
	s.pending.Store(false)
	s.cmdMu.Unlock()
	for _, c := range cmds {
		apply(s.asm, c)
	}
	if len(cmds) > 0 {
		s.publish()
	}
}

// replay builds an assembler serving every current rule set — the
// shard construction and rebuild path, so a shard recovering from
// corruption serves the same generations as its siblings.
func (e *Engine) replay(cfg flow.Config, onMatch func(flow.Match)) *flow.Assembler {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	a := flow.NewAssembler(cfg, e.cur[0].newRunner, onMatch)
	for ten, g := range e.cur {
		apply(a, command{ten: ten, gen: g})
	}
	return a
}

// registerGenerationGauge creates the exact live-flow gauge for one
// generation of a rule set: mfa_generation_live_flows{generation} for
// the default set (t nil), mfa_tenant_generation_live_flows{tenant,
// generation} for a tenant's. Superseded generations read 0 once their
// flows drain; the series stays registered (one per swap) so a scrape
// can watch a drain complete.
func registerGenerationGauge(reg *telemetry.Registry, t *tenant.Tenant, n uint64) *telemetry.Gauge {
	gen := telemetry.L("generation", strconv.FormatUint(n, 10))
	if t == nil {
		return reg.Gauge("mfa_generation_live_flows",
			"Live flows on each pattern generation (exact; drained generations read 0).", gen)
	}
	return reg.Gauge("mfa_tenant_generation_live_flows",
		"Live flows on each (tenant, generation) pair (exact; drained generations read 0).",
		telemetry.L("tenant", t.ID()), gen)
}
