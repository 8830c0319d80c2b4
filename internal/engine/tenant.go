// Multi-tenant serving: (tenant, generation) swaps and dispatch gating.
//
// A tenant's rule-set swap is a whole-daemon reload scoped to one
// tenant: both go through install (reload.go), which records the
// generation, delivers one command to every shard's ordered command
// list, and lets each shard apply it on its own goroutine before the
// next segment it scans. Tenant generations are numbered per tenant and
// packed into the flow-layer generation id as tenant<<32 | generation,
// so one assembler-wide generation table serves all tenants without
// collision (the default rule set is tenant 0 and keeps its small ids —
// a single-tenant daemon's ids are unchanged).
//
// Dispatch admits a tagged segment only while its tenant is published
// in the registry; Put publishes a new tenant only after its first
// generation's command is queued on every shard, and Delete unpublishes
// before the teardown command is queued. A tagged segment can therefore
// never create a flow on the wrong rule set — at worst it lands on a
// shard after the teardown command and is dropped by the assembler's
// unknown-tenant check (counted in Stats.TenantDrops).
package engine

import (
	"errors"

	"matchfilter/internal/flow"
	"matchfilter/internal/tenant"
)

// packGen builds the assembler-wide generation id for a rule set's
// generation number: the tenant index in the high 32 bits, the low 32
// bits of the number below.
func packGen(idx uint32, gen uint64) uint64 {
	return uint64(idx)<<32 | (gen & 0xffffffff)
}

// ReloadTenant installs newRunner as tenant t's next generation on
// every shard and returns the per-tenant generation number. Semantics
// mirror Reload exactly, scoped to the tenant: segments dispatched
// after it returns are scanned post-swap; reset restarts the tenant's
// live flows on the new set, otherwise they drain on the old; the call
// never blocks on shard queues. Implements tenant.Swapper.
func (e *Engine) ReloadTenant(t *tenant.Tenant, newRunner func() flow.Runner, reset bool) (uint64, error) {
	if newRunner == nil {
		return 0, errors.New("engine: tenant reload with nil runner factory")
	}
	return e.install(t, newRunner, reset)
}

// DropTenant tears tenant t down on every shard: its flows are removed
// (runners discarded — they belong to a dead automaton) and later
// segments carrying its index are dropped. Implements tenant.Swapper.
func (e *Engine) DropTenant(t *tenant.Tenant) error {
	_, err := e.install(t, nil, false)
	return err
}
