package main

import (
	"fmt"

	"anception/internal/anception"
	"anception/internal/hypervisor"
)

// counters is one device's public counters at one instant.
type counters struct {
	layer    anception.LayerStats
	switches int
	grants   hypervisor.GrantStats
}

func readCounters(d *anception.Device) counters {
	in, out := d.CVM.WorldSwitches()
	c := counters{layer: d.Layer.Stats(), switches: in + out}
	if g := d.Grants(); g != nil {
		c.grants = g.Stats()
	}
	return c
}

// layerDelta sums the counter movement of several devices over a window.
type layerDelta struct {
	redirected, intercepted int64
	switches                int64
	grantMaps, grantBytes   int64

	cacheHits, cacheMisses, flushes, coalesced, readAhead int64

	doorbells, reaps int64
	maxInflight      int64

	ringChosen, syncChosen, grantChosen, copyChosen int64
	cacheServed, cacheSkipped, explorations         int64

	chains, specServed, mispredicts, specDropped int64

	replyHits, sessionTxns, binderTxns int64

	netOps, netRingOps, batches, batchedFDs int64
}

func (d *layerDelta) add(before, after counters) {
	a, b := after.layer, before.layer
	redirected := int64(a.Redirected-b.Redirected) + int64(a.BinderBridged-b.BinderBridged)
	d.redirected += redirected
	d.intercepted += redirected + int64(a.HostExecuted-b.HostExecuted) +
		int64(a.Split-b.Split) + int64(a.UIPassthrough-b.UIPassthrough)
	d.switches += int64(after.switches - before.switches)
	d.grantMaps += int64(after.grants.Maps - before.grants.Maps)
	d.grantBytes += after.grants.BytesGranted - before.grants.BytesGranted

	d.cacheHits += int64(a.Cache.Hits - b.Cache.Hits)
	d.cacheMisses += int64(a.Cache.Misses - b.Cache.Misses)
	d.flushes += int64(a.Cache.Flushes - b.Cache.Flushes)
	d.coalesced += int64(a.Cache.CoalescedWrites - b.Cache.CoalescedWrites)
	d.readAhead += int64(a.Cache.ReadAheadPages - b.Cache.ReadAheadPages)

	d.doorbells += int64(a.Ring.Doorbells - b.Ring.Doorbells)
	d.reaps += int64(a.Ring.Reaps - b.Ring.Reaps)
	d.maxInflight = max(d.maxInflight, int64(a.Ring.MaxInFlight))

	d.ringChosen += a.Policy.RingChosen - b.Policy.RingChosen
	d.syncChosen += a.Policy.SyncChosen - b.Policy.SyncChosen
	d.grantChosen += a.Policy.GrantChosen - b.Policy.GrantChosen
	d.copyChosen += a.Policy.CopyChosen - b.Policy.CopyChosen
	d.cacheServed += a.Policy.CacheServed - b.Policy.CacheServed
	d.cacheSkipped += a.Policy.CacheSkipped - b.Policy.CacheSkipped
	d.explorations += a.Policy.Explorations - b.Policy.Explorations

	d.chains += a.Fusion.Chains - b.Fusion.Chains
	d.specServed += a.Fusion.SpecServed - b.Fusion.SpecServed
	d.mispredicts += a.Fusion.Mispredicts - b.Fusion.Mispredicts
	d.specDropped += a.Fusion.SpecDropped - b.Fusion.SpecDropped

	d.replyHits += int64(a.Binder.ReplyHits - b.Binder.ReplyHits)
	d.sessionTxns += int64(a.Binder.SessionTxns - b.Binder.SessionTxns)
	d.binderTxns += int64(a.BinderBridged - b.BinderBridged)

	d.netOps += a.Net.Submitted - b.Net.Submitted
	d.netRingOps += a.Net.RingOps - b.Net.RingOps
	d.batches += a.Net.Batches - b.Net.Batches
	d.batchedFDs += a.Net.BatchedFDs - b.Net.BatchedFDs
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// metrics turns the window's counter movement into the per-layer
// counter metrics. ops is the window's benchmark operation count and
// bulkOps the subset that moved 64 KiB.
func (d *layerDelta) metrics(ops, bulkOps int) map[string]float64 {
	n := int64(ops)
	decisions := d.ringChosen + d.syncChosen
	return map[string]float64{
		"anception.redirected_frac":               ratio(d.redirected, d.intercepted),
		"hypervisor.world_switches_per_op":        ratio(d.switches, n),
		"hypervisor.grant_maps_per_bulk_op":       ratio(d.grantMaps, int64(bulkOps)),
		"anception.grants.bytes_per_op":           ratio(d.grantBytes, n),
		"anception.cache.hit_ratio":               ratio(d.cacheHits, d.cacheHits+d.cacheMisses),
		"anception.cache.flushes_per_op":          ratio(d.flushes, n),
		"anception.cache.coalesced_writes_per_op": ratio(d.coalesced, n),
		"anception.cache.readahead_pages_per_op":  ratio(d.readAhead, n),
		"marshal.ring.doorbells_per_op":           ratio(d.doorbells, n),
		"marshal.ring.reaps_per_op":               ratio(d.reaps, n),
		"marshal.ring.max_inflight":               float64(d.maxInflight),
		"anception.policy.ring_frac":              ratio(d.ringChosen, decisions),
		"anception.policy.grant_frac":             ratio(d.grantChosen, d.grantChosen+d.copyChosen),
		"anception.policy.cache_served_frac":      ratio(d.cacheServed, d.cacheServed+d.cacheSkipped),
		"anception.policy.explorations_per_op":    ratio(d.explorations, n),
		"anception.fusion.chains_per_op":          ratio(d.chains, n),
		"anception.fusion.spec_useful_ratio":      ratio(d.specServed, d.specServed+d.mispredicts+d.specDropped),
		"anception.binder.reply_hit_ratio":        ratio(d.replyHits, d.binderTxns),
		"anception.binder.session_txns_per_op":    ratio(d.sessionTxns, n),
		"anception.net.ring_frac":                 ratio(d.netRingOps, d.netOps),
		"anception.net.accept_batch":              ratio(d.batchedFDs, d.batches),
	}
}

// checkIdentities checks the accounting identities a closed device must
// satisfy: every ring slot, fused link, binder session transaction and
// socket op ended exactly one way, and no grant is live.
func checkIdentities(label string, d *anception.Device) []string {
	var bad []string
	s := d.Layer.Stats()
	check := func(path string, submitted, completed, failed int64) {
		if submitted != completed+failed {
			bad = append(bad, fmt.Sprintf("%s: %s Submitted %d != Completed %d + Failed %d",
				label, path, submitted, completed, failed))
		}
	}
	check("ring", int64(s.Ring.Submitted), int64(s.Ring.Completed), int64(s.Ring.Failed))
	check("fusion", s.Fusion.Submitted, s.Fusion.Completed, s.Fusion.Failed)
	check("binder", int64(s.Binder.Submitted), int64(s.Binder.Completed), int64(s.Binder.Failed))
	check("net", s.Net.Submitted, s.Net.Completed, s.Net.Failed)
	if g := d.Grants(); g != nil && g.Active() != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d grants still active after close", label, g.Active()))
	}
	return bad
}
