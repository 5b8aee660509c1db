//! The wire side of sharding: which NIC a burst's frames land on or
//! leave through ([`ShardPolicy`]).

use super::{ShardPolicy, System};
use twin_machine::Event;
use twin_net::Frame;
use twin_trace::TraceEvent;
use twin_xen::DomainKind;

impl System {
    /// Splits one burst's frames into per-NIC groups under the sharding
    /// policy. Order within a group preserves arrival order, so per-flow
    /// order is preserved whenever a flow maps to a single NIC (always,
    /// for every policy here).
    pub(super) fn shard_frames(&mut self, frames: Vec<Frame>) -> Vec<(u32, Vec<Frame>)> {
        let n = self.world.nics.len() as u32;
        if n == 1 {
            return vec![(0, frames)];
        }
        match self.opts.shard {
            ShardPolicy::Static(dev) => vec![(dev.min(n - 1), frames)],
            ShardPolicy::RoundRobin => {
                let dev = self.rr_next % n;
                self.rr_next = (self.rr_next + 1) % n;
                vec![(dev, frames)]
            }
            policy @ (ShardPolicy::FlowHash | ShardPolicy::Affinity) => {
                let mut groups: Vec<(u32, Vec<Frame>)> = Vec::new();
                for f in frames {
                    let dev = if policy == ShardPolicy::Affinity {
                        self.affinity_dev(&f, n)
                    } else {
                        ShardPolicy::flow_hash_dev(f.flow, n)
                    };
                    match groups.iter_mut().find(|(d, _)| *d == dev) {
                        Some((_, v)) => v.push(f),
                        None => groups.push((dev, vec![f])),
                    }
                }
                groups
            }
        }
    }

    /// Device choice for one frame under [`ShardPolicy::Affinity`].
    ///
    /// Flows that cannot be tied to a scheduled vCPU — the scheduler
    /// model is off, the frame is not guest-bound, or the guest has no
    /// registered vCPU — take the exact [`ShardPolicy::FlowHash`]
    /// placement, so the policy is FlowHash-equivalent whenever the
    /// scheduler is disabled. Scheduled flows stick to a NIC whose
    /// softirq CPU matches the guest's vCPU; when the scheduler has
    /// moved the guest, the flow follows only after the configured
    /// hysteresis interval *and* once the old device's RX ring is
    /// drained — frames still queued there would overtake the migrated
    /// ones and break per-flow order.
    fn affinity_dev(&mut self, f: &Frame, n: u32) -> u32 {
        let hash_dev = ShardPolicy::flow_hash_dev(f.flow, n);
        if self.sched.is_none() {
            return hash_dev;
        }
        // Only guest-bound RX frames are steered: delivery locality is
        // a receive-side property (NIC softirq CPU vs the owning
        // guest's vCPU). TX and non-guest frames keep the oblivious
        // hash, so the wire interleave never depends on the scheduler.
        let Some(g) = self.world.xen.as_ref().and_then(|x| {
            x.domains
                .iter()
                .find(|d| d.kind == DomainKind::Guest && d.mac == f.dst)
                .map(|d| d.id.0)
        }) else {
            return hash_dev;
        };
        let sched = self.sched.as_ref().expect("checked above");
        let Some(cpu) = sched.cpu_of(g) else {
            return hash_dev;
        };
        let local: Vec<u32> = (0..n).filter(|&d| sched.nic_cpu(d) == cpu).collect();
        let target = if local.is_empty() {
            hash_dev
        } else {
            // Spread a guest's flows across its local NICs by the same
            // hash the oblivious policy uses.
            local[ShardPolicy::flow_hash_dev(f.flow, local.len() as u32) as usize]
        };
        let hysteresis = sched.options().affinity_hysteresis;
        match self.affinity_flow_dev.get(&f.flow).copied() {
            None => {
                self.affinity_flow_dev.insert(f.flow, target);
                self.guests[g as usize].placements += 1;
                self.machine.meter.count_event(Event::AffinityPlace);
                self.machine.trace_event(TraceEvent::AffinityPlace {
                    guest: g,
                    flow: f.flow,
                    dev: target,
                });
                target
            }
            Some(cur) if cur == target => cur,
            Some(cur) => {
                let now = self.machine.meter.now();
                let moved_at = self.guests[g as usize].affinity_moved_at;
                let old_ring_drained = self.world.nics[cur as usize].rx_pending() == 0;
                if now.saturating_sub(moved_at) >= hysteresis && old_ring_drained {
                    self.affinity_flow_dev.insert(f.flow, target);
                    self.guests[g as usize].affinity_moved_at = now;
                    self.guests[g as usize].migrations += 1;
                    self.machine.meter.count_event(Event::AffinityMigrate);
                    self.machine.trace_event(TraceEvent::AffinityMigrate {
                        guest: g,
                        flow: f.flow,
                        from_dev: cur,
                        to_dev: target,
                    });
                    target
                } else {
                    cur
                }
            }
        }
    }
}
