package group

import "enclaves/internal/metrics"

// Leader-side instruments. Counters are lifetime totals across every Leader
// in the process; tests therefore assert on deltas, not absolutes. The
// naming follows the layer_event_total convention used by the other
// packages so the flat snapshot groups naturally.
var (
	mJoins     = metrics.NewCounter("group_joins_total")
	mLeaves    = metrics.NewCounter("group_leaves_total")
	mExpels    = metrics.NewCounter("group_expels_total")
	mEvictions = metrics.NewCounter("group_evictions_total")
	mRekeys    = metrics.NewCounter("group_rekeys_total")
	mRejected  = metrics.NewCounter("group_rejected_total")

	// mResumes counts sessions re-attached through the failover resumption
	// sub-protocol (no password re-handshake); mResumeRejected counts Resume
	// frames that failed authentication or freshness and fell back to a full
	// rejoin.
	mResumes        = metrics.NewCounter("group_resumes_total")
	mResumeRejected = metrics.NewCounter("group_resume_rejected_total")

	// mLKHSeals counts LKH key-box seals, one per box whatever its subtree
	// size (the first member writer to reach it seals it for all) — the
	// quantity LKH makes logarithmic: per rotation it is ~arity·depth,
	// versus the flat broadcast's n.
	mLKHSeals = metrics.NewCounter("group_lkh_seals_total")

	// mNotices counts notices (wire.MemberChanges) handed to member engines;
	// mNoticesFolded those folded into a notice already queued there.
	mNotices       = metrics.NewCounter("group_notices_total")
	mNoticesFolded = metrics.NewCounter("group_notices_folded_total")
	// mKeys and mKeysFolded count the same for key bodies (wire.NewGroupKey,
	// and wire.KeyBoxes under LKH): a folded key is one a member skips for
	// the newer key queued after it.
	mKeys       = metrics.NewCounter("group_keys_total")
	mKeysFolded = metrics.NewCounter("group_keys_folded_total")
	// mLKHFolded counts the LKH key boxes those folds drop, each for a newer
	// box to the same node.
	mLKHFolded = metrics.NewCounter("group_lkh_updates_folded_total")

	mAdminSent   = metrics.NewCounter("group_admin_sent_total")
	mAdminAcked  = metrics.NewCounter("group_admin_acked_total")
	mRetransmits = metrics.NewCounter("group_retransmits_total")
	mHeartbeats  = metrics.NewCounter("group_heartbeats_total")
	mOverflow    = metrics.NewCounter("group_outbox_overflow_total")

	// mMembers is the live accepted-member count (summed across leaders);
	// mOutboxDepth is the aggregate number of frames queued across every
	// member outbox — incremented on push, decremented as the writer drains
	// (and on teardown), so it reads as total backlog, not a point sample.
	mMembers     = metrics.NewGauge("group_members")
	mOutboxDepth = metrics.NewGauge("group_outbox_depth")

	// Directory instruments: live groups hosted by this process and dynamic
	// groups retired by the idle-TTL collector.
	mGroups          = metrics.NewGauge("group_directory_groups")
	mGroupsCollected = metrics.NewCounter("group_directory_collected_total")

	// Per-tenant families: in a multi-tenant daemon (Directory) every Leader
	// carries a tenant label, and these break the process-wide totals above
	// down by group so /metrics distinguishes tenants. A tenant's children
	// are dropped when its group is garbage-collected, keeping the families
	// proportional to live groups.
	mTenantJoins   = metrics.NewCounterVec("group_tenant_joins_total")
	mTenantLeaves  = metrics.NewCounterVec("group_tenant_leaves_total")
	mTenantRekeys  = metrics.NewCounterVec("group_tenant_rekeys_total")
	mTenantMembers = metrics.NewGaugeVec("group_tenant_members")
	mTenantEpoch   = metrics.NewGaugeVec("group_tenant_epoch")

	// mAckLatency times AdminMsg seal -> authenticated ack, the round trip
	// that gates the whole pipeline. mBroadcastHold times how long an admin
	// broadcast holds the global leader lock — the contention a broadcast
	// imposes on every other member's progress. Sealing happens when the
	// connection's writer drains the outbox, so this measures pure enqueue
	// fan-out.
	mAckLatency    = metrics.NewHistogram("group_ack_latency_us")
	mBroadcastHold = metrics.NewHistogram("group_broadcast_hold_us")
	// mSealLatency times one per-member AEAD seal in the connection's writer.
	mSealLatency = metrics.NewHistogram("group_seal_latency_us")
)

// tenantMetrics is one leader's handle on the per-tenant families. A nil
// handle (single-tenant leader, no label) makes every method a no-op, so the
// hot paths carry no conditional clutter.
type tenantMetrics struct {
	label  string
	joins  *metrics.Counter
	leaves *metrics.Counter
	rekeys *metrics.Counter
	count  *metrics.Gauge
	epoch  *metrics.Gauge
}

func newTenantMetrics(label string) *tenantMetrics {
	if label == "" {
		return nil
	}
	return &tenantMetrics{
		label:  label,
		joins:  mTenantJoins.With(label),
		leaves: mTenantLeaves.With(label),
		rekeys: mTenantRekeys.With(label),
		count:  mTenantMembers.With(label),
		epoch:  mTenantEpoch.With(label),
	}
}

// joined counts one join (or resume); memberDelta tracks the live member
// count separately because a rejoin that displaces a live session is a join
// without a count change.
func (t *tenantMetrics) joined() {
	if t != nil {
		t.joins.Inc()
	}
}

// left counts one departure of any kind — voluntary leave, eviction, or
// expulsion — paired with its count decrement (departures are only recorded
// when the member was still registered, so the pairing is unconditional).
func (t *tenantMetrics) left() {
	if t != nil {
		t.leaves.Inc()
		t.count.Add(-1)
	}
}

func (t *tenantMetrics) memberDelta(d int64) {
	if t != nil {
		t.count.Add(d)
	}
}

func (t *tenantMetrics) rekey(epoch uint64) {
	if t != nil {
		t.rekeys.Inc()
		t.epoch.Set(int64(epoch))
	}
}

// dropTenant removes a garbage-collected group's children from every tenant
// family.
func dropTenant(label string) {
	mTenantJoins.Remove(label)
	mTenantLeaves.Remove(label)
	mTenantRekeys.Remove(label)
	mTenantMembers.Remove(label)
	mTenantEpoch.Remove(label)
}
