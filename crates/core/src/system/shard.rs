//! The wire side of sharding: which NIC a burst's frames land on or
//! leave through ([`ShardPolicy`]).

use super::{ShardPolicy, System};
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
            ShardPolicy::Static => vec![(0, frames)],
            ShardPolicy::RoundRobin => {
                let dev = self.rr_next % n;
                self.rr_next = (self.rr_next + 1) % n;
                vec![(dev, frames)]
            }
            policy @ (ShardPolicy::FlowHash | ShardPolicy::Affinity) => {
                // Every group is allocated once, big enough for whatever
                // of the burst is left when it opens.
                let mut groups: Vec<(u32, Vec<Frame>)> = Vec::with_capacity(n as usize);
                let total = frames.len();
                for (i, f) in frames.into_iter().enumerate() {
                    let dev = if policy == ShardPolicy::Affinity {
                        self.affinity_dev(&f, n)
                    } else {
                        ShardPolicy::flow_hash_dev(f.flow, n)
                    };
                    match groups.iter_mut().find(|(d, _)| *d == dev) {
                        Some((_, v)) => v.push(f),
                        None => {
                            let mut group = Vec::with_capacity(total - i);
                            group.push(f);
                            groups.push((dev, group));
                        }
                    }
                }
                groups
            }
        }
    }

    /// Device choice for one frame under [`ShardPolicy::Affinity`].
    ///
    /// Flows that cannot be tied to a scheduled vCPU — the frame is not
    /// guest-bound, or the guest has no registered vCPU — take the exact
    /// [`ShardPolicy::FlowHash`] placement, so the policy is
    /// FlowHash-equivalent until a vCPU is registered. A scheduled flow
    /// is placed once, on a NIC whose softirq CPU matches the guest's
    /// vCPU, and stays there: vCPUs never move.
    fn affinity_dev(&mut self, f: &Frame, n: u32) -> u32 {
        let hash_dev = ShardPolicy::flow_hash_dev(f.flow, n);
        let Some(sched) = self.sched.as_ref() else {
            return hash_dev;
        };
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
        let Some(cpu) = sched.cpu_of(g) else {
            return hash_dev;
        };
        if let Some(&dev) = self.affinity_flow_dev.get(&f.flow) {
            return dev;
        }
        let local: Vec<u32> = (0..n).filter(|&d| sched.nic_cpu(d) == cpu).collect();
        let dev = if local.is_empty() {
            hash_dev
        } else {
            // Spread a guest's flows across its local NICs by the same
            // hash the oblivious policy uses.
            local[ShardPolicy::flow_hash_dev(f.flow, local.len() as u32) as usize]
        };
        self.affinity_flow_dev.insert(f.flow, dev);
        self.machine.note(TraceEvent::AffinityPlace {
            guest: g,
            flow: f.flow,
            dev,
        });
        dev
    }
}
