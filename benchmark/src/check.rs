//! Output checks. Every reference comes from the generator's own record
//! of what it offered — never from the program — and each check is one
//! `selftest` proves can fail.
//!
//! * **identity**: a delivered (or transmitted) frame is one the
//!   generator offered, unchanged, at the endpoint it was addressed to,
//!   exactly once;
//! * **order**: per (endpoint, flow), sequence numbers only increase;
//! * **conservation**: offered = delivered + early drops + queue drops +
//!   ring drops + still queued + still in a ring, in total, and no guest
//!   accounts for more than it was offered;
//! * **zero loss** on every workload that is not deliberately overloaded;
//! * **ledger**: the four per-domain cycle counts sum to the virtual time
//!   the window spans (exactly when nothing idles, at most otherwise).

use crate::runner::{Observed, HOST_STACK};
use crate::workloads::{Op, Scenario};
use std::collections::{BTreeMap, HashMap, HashSet};
use twindrivers::net::{EtherType, Frame, MacAddr, MTU};
use twindrivers::trace::MetricSet;

/// Flows `transmit_burst` cycles over, as its documentation states:
/// `1 + seq % 8`.
const TX_FLOWS: u64 = 8;

/// The external peer every transmitted frame is addressed to.
fn tx_peer() -> MacAddr {
    MacAddr([0x02, 0x16, 0x3e, 0x00, 0x03, 0xe8])
}

#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Offered packets that broke a check.
    pub failed: u64,
    /// One line per broken invariant.
    pub violations: Vec<String>,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    fn fail(&mut self, packets: u64, what: String) {
        self.failed += packets.max(1);
        self.violations.push(what);
    }

    pub fn merge(&mut self, other: Report) {
        self.failed += other.failed;
        self.violations.extend(other.violations);
    }
}

/// Frames the measured window offered for receive.
fn offered_frames(sc: &Scenario) -> impl Iterator<Item = &Frame> {
    sc.ops.iter().flat_map(|op| match op {
        Op::Rx(frames) | Op::Arrive { frames, .. } => frames.as_slice(),
        Op::Tx(_) => &[],
    })
}

/// The endpoint a frame is addressed to: the guest whose MAC it carries,
/// or the dom0 / native stack when no guest is measured.
fn endpoint(sc: &Scenario, f: &Frame) -> u32 {
    if !sc.guest() {
        return HOST_STACK;
    }
    (1..=3)
        .find(|g| MacAddr::for_guest(*g) == f.dst)
        .unwrap_or(u32::MAX)
}

/// Sum of a per-guest or per-NIC counter family (`guest{g}.<field>` /
/// `nic{i}.<field>`).
pub fn family_sum(ms: &MetricSet, prefix: &str, field: &str) -> u64 {
    ms.counters_with_prefix(prefix)
        .filter(|(k, _)| {
            k[prefix.len()..]
                .split_once('.')
                .is_some_and(|(id, f)| f == field && id.bytes().all(|b| b.is_ascii_digit()))
        })
        .map(|(_, v)| v)
        .sum()
}

pub const DOMAINS: [&str; 4] = ["dom0", "domU", "Xen", "e1000"];

/// Cycles charged in the window, per domain label in [`DOMAINS`] order.
pub fn domain_cycles(obs: &Observed) -> [u64; 4] {
    DOMAINS.map(|d| obs.delta.counter(&format!("meter.cycles.{d}")))
}

pub fn check(sc: &Scenario, obs: &Observed) -> Report {
    let mut r = Report::default();
    let offered = sc.offered() as u64;
    if sc.transmit() {
        check_wire(sc, obs, &mut r);
    } else {
        check_delivery(sc, obs, &mut r);
        check_conservation(sc, obs, &mut r);
    }
    if !sc.open_loop() && obs.accepted != offered {
        r.fail(
            offered.abs_diff(obs.accepted),
            format!(
                "{}: calls reported {} packets, {offered} offered",
                sc.label, obs.accepted
            ),
        );
    }
    let charged: u64 = domain_cycles(obs).iter().sum();
    let exact = !sc.open_loop();
    if (exact && charged != obs.window_cycles) || charged > obs.window_cycles {
        r.fail(
            1,
            format!(
                "{}: ledger — domains sum to {charged} cycles, the window spans {}",
                sc.label, obs.window_cycles
            ),
        );
    }
    r
}

fn check_delivery(sc: &Scenario, obs: &Observed, r: &mut Report) {
    // What was offered: (flow, seq) → (endpoint, frame).
    let offered: HashMap<(u32, u64), (u32, &Frame)> = offered_frames(sc)
        .map(|f| ((f.flow, f.seq), (endpoint(sc, f), f)))
        .collect();
    let mut seen: HashSet<(u32, u64)> = HashSet::with_capacity(offered.len());
    let (mut wrong, mut dup, mut reordered) = (0u64, 0u64, 0u64);
    for (ep, frames) in &obs.delivered {
        let mut last: BTreeMap<u32, u64> = BTreeMap::new();
        for f in frames {
            match offered.get(&(f.flow, f.seq)) {
                Some((want_ep, want)) if want_ep == ep && *want == f => {}
                _ => {
                    wrong += 1;
                    continue;
                }
            }
            if !seen.insert((f.flow, f.seq)) {
                dup += 1;
            }
            if last.insert(f.flow, f.seq).is_some_and(|prev| f.seq <= prev) {
                reordered += 1;
            }
        }
    }
    if wrong > 0 {
        r.fail(
            wrong,
            format!(
                "{}: {wrong} delivered frames were never offered as delivered (identity)",
                sc.label
            ),
        );
    }
    if dup > 0 {
        r.fail(dup, format!("{}: {dup} frames delivered twice", sc.label));
    }
    if reordered > 0 {
        r.fail(
            reordered,
            format!(
                "{}: {reordered} frames out of per-(endpoint, flow) order",
                sc.label
            ),
        );
    }
}

fn check_conservation(sc: &Scenario, obs: &Observed, r: &mut Report) {
    let mut offered_by: BTreeMap<u32, u64> = BTreeMap::new();
    for f in offered_frames(sc) {
        *offered_by.entry(endpoint(sc, f)).or_default() += 1;
    }
    let offered: u64 = offered_by.values().sum();
    let delivered: u64 = obs.delivered.values().map(|v| v.len() as u64).sum();
    let early = family_sum(&obs.delta, "guest", "early_drops");
    let queue = family_sum(&obs.delta, "guest", "queue_drops");
    // A gauge, not a counter: what sits in the demux queues at close.
    let queued = family_sum(&obs.at_close, "guest", "queued");
    let ring = family_sum(&obs.delta, "nic", "rx_missed");
    let accounted = delivered + early + queue + ring + queued + obs.ring_pending;
    if accounted != offered {
        r.fail(
            offered.abs_diff(accounted),
            format!(
                "{}: conservation — offered {offered} ≠ delivered {delivered} + early {early} + queue {queue} + ring {ring} + queued {queued} + in-ring {}",
                sc.label, obs.ring_pending
            ),
        );
    }
    if sc.guest() {
        for (g, n) in &offered_by {
            let c = |f: &str| obs.delta.counter(&format!("guest{g}.{f}"));
            let got = obs.delivered.get(g).map_or(0, |v| v.len() as u64);
            let queued = obs.at_close.counter(&format!("guest{g}.queued"));
            let known = got + c("early_drops") + c("queue_drops") + queued;
            if known > *n {
                r.fail(
                    known - n,
                    format!(
                        "{}: guest {g} accounts for {known} frames, {n} offered",
                        sc.label
                    ),
                );
            }
        }
    }
    if sc.lossless && delivered != offered {
        r.fail(
            offered - delivered.min(offered),
            format!(
                "{}: {} of {offered} frames lost on a lossless workload",
                sc.label,
                offered - delivered.min(offered)
            ),
        );
    }
}

fn check_wire(sc: &Scenario, obs: &Observed, r: &mut Report) {
    let offered = sc.offered() as u64;
    let first: u64 = sc.warm.iter().map(|op| op.packets() as u64).sum();
    let src = MacAddr::for_guest(u32::from(sc.guest()));
    let mut seen = vec![false; offered as usize];
    let mut last: BTreeMap<u32, u64> = BTreeMap::new();
    let (mut wrong, mut reordered) = (0u64, 0u64);
    for f in &obs.wire {
        let idx = f.seq.wrapping_sub(first);
        let good = idx < offered
            && !seen[idx as usize]
            && f.dst == tx_peer()
            && f.src == src
            && f.ethertype == EtherType::Ipv4
            && f.payload_len == MTU
            && u64::from(f.flow) == 1 + f.seq % TX_FLOWS;
        if !good {
            wrong += 1;
            continue;
        }
        seen[idx as usize] = true;
        if last.insert(f.flow, f.seq).is_some_and(|prev| f.seq <= prev) {
            reordered += 1;
        }
    }
    let missing = seen.iter().filter(|s| !**s).count() as u64;
    if wrong > 0 {
        r.fail(
            wrong,
            format!(
                "{}: {wrong} wire frames are not the packets asked for (identity)",
                sc.label
            ),
        );
    }
    if reordered > 0 {
        r.fail(
            reordered,
            format!(
                "{}: {reordered} wire frames out of per-flow order",
                sc.label
            ),
        );
    }
    if missing > 0 {
        r.fail(
            missing,
            format!(
                "{}: {missing} of {offered} packets never reached the wire",
                sc.label
            ),
        );
    }
}
