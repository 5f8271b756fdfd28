package member

import "enclaves/internal/metrics"

// Member-side instruments, totals across every Member/Session in the
// process. mRejected mirrors the per-member Rejected() counter into the
// global snapshot; the rest cover the liveness machinery: watchdog trips
// (leader declared silent), re-acks (duplicate AdminMsg answered from the
// ack cache), and rejoin attempts by the auto-rejoin supervisor.
var (
	mEvents        = metrics.NewCounter("member_events_total")
	mRejected      = metrics.NewCounter("member_rejected_total")
	mWatchdogTrips = metrics.NewCounter("member_watchdog_trips_total")
	mReacks        = metrics.NewCounter("member_reacks_total")
	mRejoins       = metrics.NewCounter("member_rejoins_total")

	// Failover resumption: attempts by the supervisor, sessions actually
	// re-attached without a password re-handshake, and attempts that fell
	// back to the full rejoin.
	mResumeAttempts = metrics.NewCounter("member_resume_attempts_total")
	mResumed        = metrics.NewCounter("member_resumed_total")
	mResumeFallback = metrics.NewCounter("member_resume_fallback_total")

	// LKH: key boxes opened into the path-key bag.
	mKeyUpdates = metrics.NewCounter("member_key_updates_total")
)
