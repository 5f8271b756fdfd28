//go:build linux

package main

import "fmt"

// perLayer assembles the per-layer metrics of one workload: the in-process
// probes; deltas of the daemon's counters scraped around the traced paced
// phase; spans of the generator's own calls; and /proc figures. base is the
// untraced paced phase the traced one (tp) is compared with.
func perLayer(w workload, b *bench, base, tp *pass) map[string]metric {
	out := make(map[string]metric, 96)
	for name, m := range b.probes {
		out[name] = m
	}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	delta := func(key string) float64 { return tp.scrape1[key] - tp.scrape0[key] }
	medianMs := func(v []int64) float64 { return ms(median(sortedCopy(v))) }

	deliveries := float64(len(tp.delivery))
	sessions := float64(w.sessions())
	tt, bt := tp.pacedTotals(), base.pacedTotals()
	changes, daemonCPU, clientCPU := tt.changes, tt.daemonCPU, tt.selfCPU
	last := tp.rounds[len(tp.rounds)-1].after

	set("queue.pushes_per_delivery", per(delta("queue_pushes_total"), deliveries), "count")
	set("queue.full_total", delta("queue_full_total"), "count")

	set("transport.frames_per_delivery", per(delta("transport_frames_sent_total")+delta("transport_frames_recv_total"), deliveries), "count")
	set("transport.bytes_per_payload_byte", per(delta("transport_bytes_sent_total"), deliveries*float64(w.Payload)), "ratio")
	set("transport.streams_killed", float64(tp.killed+base.killed), "count")

	admin := delta("group_admin_sent_total")
	set("group.admin_sent_per_change", per(admin-delta("group_heartbeats_total"), changes), "count")
	set("group.acks_per_admin", per(delta("group_admin_acked_total"), admin), "ratio")
	set("group.lkh_seals_per_change", per(delta("group_lkh_seals_total"), changes), "count")
	for _, c := range []string{"retransmits", "evictions", "outbox_overflow", "rejected"} {
		set("group."+c+"_total", delta("group_"+c+"_total"), "count")
	}

	// Joins and leaves happen in the traced pass only when the workload
	// churns in its paced phase; otherwise the untraced pass timed them.
	timed := tp
	if len(tp.joins) == 0 {
		timed = base
	}
	set("member.send_data_us", medianMs(tp.sendData)*1e3, "us")
	set("member.join_opts_ms", medianMs(timed.joinOpts), "ms")
	set("member.wait_ready_ms", medianMs(timed.waitReady), "ms")
	set("member.leave_us", medianMs(timed.leaves)*1e3, "us")
	set("member.client_cpu_us_per_delivery", per(clientCPU/1e3, deliveries), "us")
	set("member.rejected_total", float64(tp.rejected), "count")
	set("member.rekey_window_drops", float64(tp.windowDrops), "count")

	set("daemon.cpu_us_per_delivery", per(daemonCPU/1e3, deliveries), "us")
	set("daemon.cpu_ms_per_change", per(daemonCPU/1e6, changes), "ms")
	set("daemon.ctxsw_per_delivery", per(tt.ctxsw, deliveries), "count")
	set("daemon.rss_kb_per_session", per(float64(last.daemon.rssKB), sessions), "KiB")
	set("daemon.goroutines_per_session", per(tp.scrape1["goroutines"], sessions), "count")

	// End-to-end figures that could not hold a regression bound on unchanged
	// code, so are diagnostics here rather than gated metrics: the ungated
	// medians, taken from the untraced pass as the gated ones are, and the
	// tails (run-to-run spread 65-420 % on the reference VM), pooled over
	// the pass.
	all, _, _ := endToEnd(base, nil)
	for _, d := range ungatedDefs {
		out["e2e."+d.Name] = all[d.Name]
	}
	set("e2e.delivery_p99_ms", ms(float64(percentile(latencies(tp.delivery), 0.99))), "ms")
	set("e2e.join_p90_ms", ms(float64(percentile(latencies(timed.joins), 0.9))), "ms")
	set("e2e.rekey_converge_p90_ms", ms(float64(percentile(latencies(timed.convs), 0.9))), "ms")

	// Budget. Accounted is what the probes say the blocking path costs: the
	// member's seal, one mux round trip over loopback (the two one-way hops,
	// with their frame encode, decode and reader wake-ups), the relay's one
	// re-encode, and the receiver's open. The rest of the traced p50 is time
	// in daemon and member queues and scheduling, which nothing outside the
	// program can split further.
	size := 32
	if w.Payload >= 1024 {
		size = 4096
	}
	probe := func(format string) float64 { return b.probes[fmt.Sprintf(format, size)].Value }
	cryptoUs := (probe("crypto.seal_ns_%d") + probe("crypto.open_ns_%d")) / 1e3
	accounted := cryptoUs + probe("wire.encode_frame_ns_%d")/1e3 + b.probes["transport.mux_rtt_us"].Value
	tracedP50 := float64(percentile(latencies(tp.delivery), 0.5))
	set("budget.delivery_accounted_us", accounted, "us")
	set("budget.delivery_unaccounted_us", tracedP50/1e3-accounted, "us")
	set("budget.delivery_crypto_share", per(cryptoUs, accounted), "ratio")
	// A join is the engines' handshake and the key's admin round trip, plus
	// two loopback round trips: the handshake's, and KeyAck out, key back.
	joinAccounted := (b.probes["core.handshake_us"].Value + b.probes["core.admin_roundtrip_us"].Value + 2*b.probes["transport.mux_rtt_us"].Value) / 1e3
	set("budget.join_accounted_ms", joinAccounted, "ms")
	set("budget.join_unaccounted_ms", ms(midmean(latencies(timed.joins)))-joinAccounted, "ms")

	// Validity of the measurement itself.
	for name, m := range generatorMetrics(base) {
		out[name] = m
	}
	baseP50 := float64(percentile(latencies(base.delivery), 0.5))
	baseCPU := per(bt.daemonCPU, float64(len(base.delivery)))
	set("bench.trace_overhead_pct", 100*per(tracedP50-baseP50, baseP50), "%")
	set("bench.trace_overhead_cpu_pct", 100*per(per(daemonCPU, deliveries)-baseCPU, baseCPU), "%")
	set("bench.build_s", b.buildSeconds, "s")
	set("bench.samples_delivery", deliveries, "count")
	set("bench.samples_join", float64(len(timed.joins)), "count")
	set("bench.samples_rekey", float64(len(timed.convs)), "count")
	set("bench.mcasts_in_rekey_window", float64(tp.inWindow), "count")
	return out
}
