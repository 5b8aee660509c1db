//! What a run did, as one value: the oracle every "knob on ≡ knob off"
//! claim is checked against.
//!
//! Each mechanism on the datapath (batching, sharding, deferred upcalls,
//! moderation, zero-copy, tracing, affinity) claims to move cycles and
//! never traffic, the way the paper's §4 claims the rewritten hypervisor
//! instance computes exactly what the original driver computes.
//! [`System::outcome`] captures what such a claim is about — the wire,
//! every endpoint's delivery log and backlog, both skb pools and the
//! registry — and [`Outcome::check`] states the claim once, at three
//! strengths ([`Law`]).

use crate::measure;
use crate::system::{System, World};
use std::collections::BTreeMap;
use twin_machine::Event;
use twin_net::Frame;
use twin_trace::MetricSet;
use twin_xen::{DomId, DomainKind};

/// One receive endpoint: a guest domain on a guest configuration, else
/// the host stack as endpoint 0.
#[derive(Clone, Debug, PartialEq)]
pub struct Endpoint {
    /// Domain id (0 for the host stack).
    pub id: DomId,
    /// Frames delivered, in delivery order.
    pub delivered: Vec<Frame>,
    /// Frames demuxed toward it and not yet delivered.
    pub queued: usize,
}

impl Endpoint {
    fn name(&self) -> String {
        match self.id.0 {
            0 => "host stack".to_string(),
            g => format!("guest {g}"),
        }
    }

    /// The first delivery of a flow whose seq is not above the flow's
    /// previous one, named.
    fn inversion(&self) -> Option<String> {
        let mut flows = flows(&self.delivered).into_iter();
        let (flow, (a, b)) = flows.find_map(|(f, s)| Some((f, inversions(&s).next()?)))?;
        Some(format!("{} flow {flow}: seq {b} after {a}", self.name()))
    }
}

/// Each flow's seqs in `log`, in delivery order.
fn flows(log: &[Frame]) -> BTreeMap<u32, Vec<u64>> {
    let mut flows = BTreeMap::<u32, Vec<u64>>::new();
    for f in log {
        flows.entry(f.flow).or_default().push(f.seq);
    }
    flows
}

/// Per-(endpoint, flow) sequence inversions across delivery logs:
/// deliveries whose seq is not above the previous one of the same flow
/// in the same log.
pub(crate) fn reorders<'a>(logs: impl Iterator<Item = &'a [Frame]>) -> u64 {
    let seqs = logs.flat_map(|log| flows(log).into_values());
    seqs.map(|s| inversions(&s).count() as u64).sum()
}

/// How much of two [`Outcome`]s must agree. Each law includes the ones
/// before it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Law {
    /// Identical wire frames; the same `(flow, seq)` multiset per
    /// endpoint; no per-(endpoint, flow) inversion on either side; equal
    /// backlogs; equal free counts in each skb pool. Cross-flow
    /// interleaving may differ.
    SameFlows,
    /// [`Law::SameFlows`] plus identical per-endpoint delivery sequences.
    SameTraffic,
    /// [`Law::SameTraffic`] plus an identical registry, except the flight
    /// recorder's own `trace.*` keys.
    BitExact,
}

/// What a run did: taken by [`System::outcome`], compared by
/// [`Outcome::check`].
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// The registry ([`System::metrics`]) at the time of capture.
    pub metrics: MetricSet,
    /// Frames that reached the wire since the last drain, NIC by NIC.
    pub wire: Vec<Frame>,
    /// Every receive endpoint, in domain order.
    pub endpoints: Vec<Endpoint>,
    /// Free skbs in dom0's pool.
    pub dom0_free: usize,
    /// Free skbs in the hypervisor's reserved pool (0 without one).
    pub hyper_free: usize,
}

impl Outcome {
    /// Frames delivered to endpoint `id`, in order (empty for an id that
    /// is no endpoint).
    pub fn delivered(&self, id: DomId) -> &[Frame] {
        let endpoint = self.endpoints.iter().find(|e| e.id == id);
        endpoint.map_or(&[], |e| &e.delivered)
    }

    /// Frames queued toward every endpoint and not yet delivered (what
    /// [`System::rx_backlog`] read at capture).
    pub fn backlog(&self) -> usize {
        self.endpoints.iter().map(|e| e.queued).sum()
    }

    /// Free skbs across both pools.
    pub fn free_skbs(&self) -> usize {
        self.dom0_free + self.hyper_free
    }

    /// Per-(endpoint, flow) sequence inversions: deliveries whose seq is
    /// not above the previous one of the same flow at the same endpoint.
    pub fn reorders(&self) -> u64 {
        reorders(self.endpoints.iter().map(|e| e.delivered.as_slice()))
    }

    /// The registry's count of meter row `e`.
    pub fn event(&self, e: Event) -> u64 {
        self.metrics.counter(&format!("event.{}", e.name()))
    }

    /// Sum of the registry's `{prefix}{n}.{field}` over every `n` (all
    /// NICs' `rx_missed`, all guests' `queue_drops`).
    pub fn total(&self, prefix: &str, field: &str) -> u64 {
        measure::total(&self.metrics, prefix, field)
    }

    /// Checks that `other` agrees with `self` under `law`; the error
    /// names the first difference (the endpoint and flow, the pool or
    /// the registry key).
    ///
    /// # Errors
    ///
    /// The first disagreement, `self`'s side first.
    pub fn check(&self, other: &Outcome, law: Law) -> Result<(), String> {
        let pairs = || self.endpoints.iter().zip(&other.endpoints);
        let ids = |o: &Outcome| o.endpoints.iter().map(|e| e.id.0).collect::<Vec<_>>();
        let pools = |o: &Outcome| (o.dom0_free, o.hyper_free);
        let (p, q) = (pools(self), pools(other));
        let sides = [("left", self), ("right", other)];
        let registries = (law >= Law::BitExact).then(|| (registry(self), registry(other)));
        let differences = [
            first_diff(&self.wire, &other.wire)
                .map(|(i, x, y)| format!("wire frame {i}: {}", versus(x, y))),
            (ids(self) != ids(other))
                .then(|| format!("endpoints {:?} vs {:?}", ids(self), ids(other))),
            sides.iter().find_map(|(side, o)| {
                let inversion = o.endpoints.iter().find_map(Endpoint::inversion)?;
                Some(format!("{side}: {inversion}"))
            }),
            pairs().find_map(|(a, b)| {
                let (fa, fb) = (flows(&a.delivered), flows(&b.delivered));
                let (f, x, y) = first_key_diff(&fa, &fb)?;
                Some(format!("{} flow {f}: seqs {x:?} vs {y:?}", a.name()))
            }),
            pairs().find_map(|(a, b)| {
                let (name, x, y) = (a.name(), a.queued, b.queued);
                (x != y).then(|| format!("{name} backlog {x} vs {y}"))
            }),
            (p != q).then(|| format!("free skbs (dom0, hypervisor) {p:?} vs {q:?}")),
            pairs()
                .filter(|_| law >= Law::SameTraffic)
                .find_map(|(a, b)| {
                    let (i, x, y) = first_diff(&a.delivered, &b.delivered)?;
                    Some(format!("{} delivery {i}: {}", a.name(), versus(x, y)))
                }),
            registries.as_ref().and_then(|(a, b)| {
                let (key, x, y) = first_key_diff(a, b)?;
                let value = |v: Option<&String>| v.map_or("absent".into(), String::clone);
                Some(format!("{key} {} vs {}", value(x), value(y)))
            }),
        ];
        differences.into_iter().flatten().next().map_or(Ok(()), Err)
    }
}

/// Adjacent seqs of one flow where the second is not above the first.
fn inversions(seqs: &[u64]) -> impl Iterator<Item = (u64, u64)> + '_ {
    let pairs = seqs.windows(2).map(|w| (w[0], w[1]));
    pairs.filter(|(a, b)| b <= a)
}

/// The registry entries a [`Law::BitExact`] comparison covers — all but
/// the recorder's own `trace.*` keys —, each value rendered.
fn registry(o: &Outcome) -> BTreeMap<&str, String> {
    let m = &o.metrics;
    let counters = m.counters().map(|(k, v)| (k, v.to_string()));
    let histograms = m.histograms().map(|(k, h)| (k, format!("{h:?}")));
    let entries = counters.chain(histograms);
    entries.filter(|(k, _)| !k.starts_with("trace.")).collect()
}

/// The first index at which two sequences differ (one running out counts).
fn first_diff<'a, T: PartialEq>(
    a: &'a [T],
    b: &'a [T],
) -> Option<(usize, Option<&'a T>, Option<&'a T>)> {
    let at = |i| (i, a.get(i), b.get(i));
    (0..a.len().max(b.len())).map(at).find(|(_, x, y)| x != y)
}

/// The smallest key whose entries differ between two maps (absence
/// counts).
fn first_key_diff<'a, K: Ord, V: PartialEq>(
    a: &'a BTreeMap<K, V>,
    b: &'a BTreeMap<K, V>,
) -> Option<(&'a K, Option<&'a V>, Option<&'a V>)> {
    let keys = a.keys().chain(b.keys());
    let key = keys.filter(|k| a.get(k) != b.get(k)).min()?;
    Some((key, a.get(key), b.get(key)))
}

fn versus(x: Option<&Frame>, y: Option<&Frame>) -> String {
    let show = |f: Option<&Frame>| f.map(|f| (f.flow, f.seq, f.dst));
    format!("(flow, seq, dst) {:?} vs {:?}", show(x), show(y))
}

impl System {
    /// Captures what the run did so far as an [`Outcome`]. Charges
    /// nothing; drains the wire as [`System::take_wire_frames`] does.
    pub fn outcome(&mut self) -> Outcome {
        let endpoints = endpoints(&self.world, self.guest()).map(|(id, log, queued)| Endpoint {
            id,
            delivered: log.to_vec(),
            queued,
        });
        let k = &self.world.kernel;
        Outcome {
            endpoints: endpoints.collect(),
            dom0_free: k.pool.available(),
            hyper_free: k.hyper_pool.as_ref().map_or(0, |p| p.available()),
            metrics: self.metrics(),
            wire: self.take_wire_frames(),
        }
    }

    /// Frames demuxed toward every receive endpoint and not yet
    /// delivered. Reads only: unlike [`System::outcome`] it leaves the
    /// wire alone, so a run can poll it while draining.
    pub fn rx_backlog(&self) -> usize {
        endpoints(&self.world, self.guest()).map(|e| e.2).sum()
    }
}

/// Each receive endpoint's id, delivery log and demux backlog: the guest
/// domains when the measured endpoint is `guest`, else the host stack as
/// endpoint 0.
pub(crate) fn endpoints(
    world: &World,
    guest: Option<DomId>,
) -> impl Iterator<Item = (DomId, &[Frame], usize)> {
    let xen = guest.and(world.xen.as_ref());
    let domains = xen.into_iter().flat_map(|x| &x.domains);
    let guests = domains.filter(|d| d.kind == DomainKind::Guest);
    let guests = guests.map(|d| (d.id, d.rx_delivered.as_slice(), d.rx_queue.len()));
    let host = (DomId(0), world.kernel.rx_delivered.as_slice(), 0);
    guests.chain(xen.is_none().then_some(host))
}

#[cfg(test)]
mod tests {
    use super::{Law, Outcome};
    use crate::{peer_mac, Config, ShardPolicy, System, SystemOptions};
    use twin_net::{Frame, MacAddr};

    /// Two NICs, three guests, six flows (flow `f` to guest `f % 3 + 1`)
    /// and some transmit traffic.
    fn run() -> Outcome {
        let opts = SystemOptions {
            num_nics: 2,
            shard: ShardPolicy::FlowHash,
            ..SystemOptions::default()
        };
        let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
        for g in [2, 3] {
            sys.add_guest(MacAddr::for_guest(g)).unwrap();
        }
        for k in 0..3u32 {
            sys.transmit_burst(4).unwrap();
            let frames: Vec<Frame> = (0..12u32)
                .map(|i| {
                    let flow = (k + i) % 6;
                    let dst = MacAddr::for_guest(flow % 3 + 1);
                    Frame::data(dst, peer_mac(), 10 + flow, u64::from(k * 2 + i / 6))
                })
                .collect();
            sys.receive_burst(&frames).unwrap();
        }
        sys.outcome()
    }

    /// Which of the three laws `b` passes against `a`, weakest first —
    /// after checking each error names `what`.
    fn verdicts(a: &Outcome, b: &Outcome, what: &str) -> [bool; 3] {
        [Law::SameFlows, Law::SameTraffic, Law::BitExact].map(|law| match a.check(b, law) {
            Ok(()) => true,
            Err(e) => {
                assert!(e.contains(what), "{law:?}: {e:?} does not name {what:?}");
                false
            }
        })
    }

    /// Starts from two identical runs, perturbs the second with `perturb`
    /// and returns the verdicts.
    fn perturbed(what: &str, perturb: impl FnOnce(&mut Outcome)) -> [bool; 3] {
        let (a, mut b) = (run(), run());
        perturb(&mut b);
        verdicts(&a, &b, what)
    }

    /// The position of a frame of `flow` in `log`, the `nth` one.
    fn nth_of(log: &[Frame], flow: u32, nth: usize) -> usize {
        let mut at = log.iter().enumerate().filter(|(_, f)| f.flow == flow);
        at.nth(nth).unwrap().0
    }

    #[test]
    fn identical_runs_agree_at_every_law() {
        let (a, b) = (run(), run());
        assert_eq!(verdicts(&a, &b, ""), [true; 3]);
        assert_eq!(a.endpoints.len(), 3);
        assert!(a.endpoints.iter().all(|e| e.delivered.len() == 12));
        assert_eq!((a.wire.len(), a.reorders(), a.backlog()), (12, 0, 0));
    }

    #[test]
    fn a_dropped_frame_fails_same_flows() {
        let v = perturbed("guest 2 flow 11", |b| {
            b.endpoints[1]
                .delivered
                .retain(|f| (f.flow, f.seq) != (11, 1));
        });
        assert_eq!(v, [false; 3]);
    }

    #[test]
    fn two_frames_of_one_flow_swapped_fail_same_flows() {
        let v = perturbed("right: guest 1 flow 10", |b| {
            let log = &mut b.endpoints[0].delivered;
            let (i, j) = (nth_of(log, 10, 0), nth_of(log, 10, 1));
            log.swap(i, j);
        });
        assert_eq!(v, [false; 3]);
    }

    #[test]
    fn a_frame_moved_to_another_guest_fails_same_flows() {
        let v = perturbed("guest 1 flow 13", |b| {
            let at = nth_of(&b.endpoints[0].delivered, 13, 0);
            let f = b.endpoints[0].delivered.remove(at);
            b.endpoints[2].delivered.push(f);
        });
        assert_eq!(v, [false; 3]);
    }

    #[test]
    fn one_extra_wire_frame_fails_same_flows() {
        let v = perturbed("wire frame 12", |b| {
            b.wire.push(b.wire[0].clone());
        });
        assert_eq!(v, [false; 3]);
    }

    #[test]
    fn an_skb_not_returned_to_its_pool_fails_same_flows() {
        let v = perturbed("free skbs (dom0, hypervisor)", |b| b.dom0_free -= 1);
        assert_eq!(v, [false; 3]);
    }

    #[test]
    fn frames_of_two_flows_swapped_fail_same_traffic_only() {
        let v = perturbed("guest 1 delivery", |b| {
            let log = &mut b.endpoints[0].delivered;
            let i = (0..log.len()).find(|&i| log[i].flow != log[i + 1].flow);
            log.swap(i.unwrap(), i.unwrap() + 1);
        });
        assert_eq!(v, [true, false, false]);
    }

    #[test]
    fn one_more_charged_cycle_fails_bit_exact_only() {
        let v = perturbed("meter.cycles.Xen", |b| {
            let cycles = b.metrics.counter("meter.cycles.Xen");
            b.metrics.set("meter.cycles.Xen", cycles + 1);
        });
        assert_eq!(v, [true, true, false]);
    }

    #[test]
    fn a_differing_trace_key_passes_every_law() {
        let v = perturbed("", |b| b.metrics.set("trace.events_recorded", 7));
        assert_eq!(v, [true; 3]);
    }
}
