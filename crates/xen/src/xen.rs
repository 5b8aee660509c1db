//! The hypervisor proper: domain switching, hypercalls, event channels,
//! grant tables and softirq work — with every operation charged to
//! [`CostDomain::Xen`] at the calibrated costs.

use crate::domain::{DomId, Domain, DomainKind};
use std::collections::BTreeMap;
use twin_machine::{CostDomain, Event, Machine, SpaceId, Term};
use twin_net::MacAddr;

/// Grant-table activity attributed to one NIC (the device whose traffic
/// caused the operation), so multi-NIC sweeps can see where grant cost
/// lands.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DevGrantStats {
    /// Pages mapped for this device's traffic.
    pub maps: u64,
    /// Pages unmapped for this device's traffic.
    pub unmaps: u64,
    /// Packet-sized grant copies performed for this device's traffic
    /// (the data movement zero-copy mode eliminates).
    pub copies: u64,
}

/// Grant-table statistics no meter row counts: the per-device breakdown
/// of operations whose causing NIC is known, and the copies. The total
/// maps and unmaps are the meter's [`Event::GrantMap`] and
/// [`Event::GrantUnmap`] rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GrantStats {
    /// Packet-sized grant copies (counted by the datapaths that perform
    /// them; pure bookkeeping — the copy cycles are charged at the copy
    /// site).
    pub copies: u64,
    /// Per-NIC breakdown, keyed by device id. Operations with no
    /// attributable device (the revocation and eviction unmaps) appear
    /// only in the totals.
    pub per_device: BTreeMap<u32, DevGrantStats>,
}

impl GrantStats {
    /// This device's breakdown (zeroes when it never caused a grant op).
    pub fn device(&self, dev: u32) -> DevGrantStats {
        self.per_device.get(&dev).copied().unwrap_or_default()
    }
}

/// Deferred hypervisor work (the schedulable context in which the
/// hypervisor driver's interrupt handler runs, paper §4.4).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Softirq {
    /// Run the hypervisor driver's interrupt handler for a NIC.
    DriverIrq {
        /// Which NIC raised the interrupt.
        nic: u32,
    },
    /// Drain the deferred-upcall ring: raised when the ring crosses its
    /// high-water mark, so queued upcalls get a bounded-latency kick even
    /// if no burst-pass flush point arrives soon. Duplicate raises
    /// coalesce like any softirq; if a natural flush drained the ring
    /// first, the handler is a no-op.
    UpcallFlush,
    /// Run one budgeted NAPI poll pass over a masked NIC: raised while
    /// the device is in poll mode instead of [`Softirq::DriverIrq`] (the
    /// device's interrupt is masked, so nothing vectors). Duplicate
    /// raises coalesce per device, like the interrupt source.
    NapiPoll {
        /// Which NIC to poll.
        nic: u32,
    },
}

impl Softirq {
    /// Stable label used in trace exports.
    pub fn label(self) -> &'static str {
        match self {
            Softirq::DriverIrq { .. } => "driver_irq",
            Softirq::UpcallFlush => "upcall_flush",
            Softirq::NapiPoll { .. } => "napi_poll",
        }
    }
}

/// The Xen-like hypervisor state machine.
#[derive(Debug)]
pub struct Xen {
    /// All domains; index 0 is dom0.
    pub domains: Vec<Domain>,
    /// Currently running domain.
    pub current: DomId,
    /// Grant-table activity.
    pub grants: GrantStats,
    /// Pending softirq work.
    pub softirqs: Vec<Softirq>,
    /// Softirq raises coalesced into already-pending work.
    pub softirqs_coalesced: u64,
}

impl Xen {
    /// Creates the hypervisor with dom0 attached to `dom0_space`.
    pub fn new(dom0_space: SpaceId) -> Xen {
        Xen {
            domains: vec![Domain::new(
                DomId::DOM0,
                dom0_space,
                DomainKind::Driver,
                MacAddr::for_guest(0),
            )],
            current: DomId::DOM0,
            grants: GrantStats::default(),
            softirqs: Vec::new(),
            softirqs_coalesced: 0,
        }
    }

    /// Creates a guest domain and returns its id.
    pub fn add_guest(&mut self, space: SpaceId, mac: MacAddr) -> DomId {
        let id = DomId(self.domains.len() as u32);
        self.domains
            .push(Domain::new(id, space, DomainKind::Guest, mac));
        id
    }

    /// Borrows a domain.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn domain(&self, id: DomId) -> &Domain {
        &self.domains[id.0 as usize]
    }

    /// Mutably borrows a domain.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn domain_mut(&mut self, id: DomId) -> &mut Domain {
        &mut self.domains[id.0 as usize]
    }

    /// Finds the guest owning a MAC address (receive demultiplexing,
    /// paper §5.3).
    pub fn guest_by_mac(&self, mac: MacAddr) -> Option<DomId> {
        self.domains
            .iter()
            .find(|d| d.mac == mac && d.kind == DomainKind::Guest)
            .map(|d| d.id)
    }

    /// Switches execution to another domain, charging the full cost of
    /// the address-space switch and its TLB/cache fallout — the dominant
    /// overhead the paper eliminates (§2).
    pub fn switch_to(&mut self, m: &mut Machine, to: DomId) {
        if to == self.current {
            return;
        }
        m.pay_to(CostDomain::Xen, Term::DomainSwitch);
        m.meter.count_event(Event::DomainSwitch);
        self.current = to;
    }

    /// Charges one hypercall entry/exit.
    pub fn hypercall(&mut self, m: &mut Machine) {
        m.pay_to(CostDomain::Xen, Term::Hypercall);
        m.meter.count_event(Event::Hypercall);
    }

    /// Delivers a virtual interrupt (event) to a domain.
    pub fn send_virq(&mut self, m: &mut Machine, to: DomId, port: u32) {
        m.pay_to(CostDomain::Xen, Term::VirqDeliver);
        m.meter.count_event(Event::Virq);
        self.domain_mut(to).pending_virqs.push(port);
    }

    /// Maps one granted page (baseline I/O-channel path).
    pub fn grant_map(&mut self, m: &mut Machine) {
        m.pay_to(CostDomain::Xen, Term::GrantMap);
        m.meter.count_event(Event::GrantMap);
    }

    /// [`Xen::grant_map`] with the causing NIC known: identical charge
    /// and event, plus the per-device attribution.
    pub fn grant_map_dev(&mut self, m: &mut Machine, dev: u32) {
        self.grant_map(m);
        self.grants.per_device.entry(dev).or_default().maps += 1;
    }

    /// Unmaps one granted page.
    pub fn grant_unmap(&mut self, m: &mut Machine) {
        m.pay_to(CostDomain::Xen, Term::GrantUnmap);
        m.meter.count_event(Event::GrantUnmap);
    }

    /// [`Xen::grant_unmap`] with the causing NIC known.
    pub fn grant_unmap_dev(&mut self, m: &mut Machine, dev: u32) {
        self.grant_unmap(m);
        self.grants.per_device.entry(dev).or_default().unmaps += 1;
    }

    /// Counts one packet-sized grant copy for a device. Bookkeeping
    /// only — the copy cycles are charged where the copy happens, so
    /// attribution (and the off-mode cycle totals) are untouched.
    pub fn note_grant_copy(&mut self, dev: Option<u32>) {
        self.grants.copies += 1;
        if let Some(dev) = dev {
            self.grants.per_device.entry(dev).or_default().copies += 1;
        }
    }

    /// Queues softirq work (driver interrupt deferred out of hard-irq
    /// context so dom0's virtual interrupt flag is respected, §4.4).
    ///
    /// Identical pending work is **coalesced**: raising `DriverIrq` for a
    /// NIC that already has one queued is a no-op, exactly like a level
    /// interrupt latched while its softirq is still pending — one handler
    /// pass will reap every descriptor the hardware filled meanwhile.
    pub fn raise_softirq(&mut self, work: Softirq) {
        if self.softirqs.contains(&work) {
            self.softirqs_coalesced += 1;
            return;
        }
        self.softirqs.push(work);
    }

    /// Takes pending softirq work if dom0's virtual interrupt flag
    /// permits running the driver interrupt handler.
    pub fn take_runnable_softirqs(&mut self) -> Vec<Softirq> {
        if !self.domain(DomId::DOM0).virq_enabled {
            return Vec::new();
        }
        std::mem::take(&mut self.softirqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> (Machine, Xen) {
        let mut m = Machine::new();
        let dom0 = m.new_space();
        (m, Xen::new(dom0))
    }

    #[test]
    fn switch_charges_xen_once_per_change() {
        let (mut m, mut xen) = mk();
        let g = m.new_space();
        let gid = xen.add_guest(g, MacAddr::for_guest(1));
        xen.switch_to(&mut m, gid);
        xen.switch_to(&mut m, gid); // no-op
        assert_eq!(m.meter.event(Event::DomainSwitch), 1);
        assert_eq!(m.meter.cycles(CostDomain::Xen), m.cost[Term::DomainSwitch]);
        xen.switch_to(&mut m, DomId::DOM0);
        assert_eq!(m.meter.event(Event::DomainSwitch), 2);
    }

    #[test]
    fn mac_demux_finds_guests_not_dom0() {
        let (mut m, mut xen) = mk();
        let g = m.new_space();
        let gid = xen.add_guest(g, MacAddr::for_guest(7));
        assert_eq!(xen.guest_by_mac(MacAddr::for_guest(7)), Some(gid));
        assert_eq!(
            xen.guest_by_mac(MacAddr::for_guest(0)),
            None,
            "dom0 is not a guest"
        );
        assert_eq!(xen.guest_by_mac(MacAddr::for_guest(99)), None);
    }

    #[test]
    fn virq_queues_and_charges() {
        let (mut m, mut xen) = mk();
        xen.send_virq(&mut m, DomId::DOM0, 3);
        assert_eq!(xen.domain(DomId::DOM0).pending_virqs, vec![3]);
        assert_eq!(m.meter.event(Event::Virq), 1);
    }

    #[test]
    fn softirq_respects_dom0_virq_flag() {
        let (_m, mut xen) = mk();
        xen.raise_softirq(Softirq::DriverIrq { nic: 0 });
        xen.domain_mut(DomId::DOM0).virq_enabled = false;
        assert!(xen.take_runnable_softirqs().is_empty());
        xen.domain_mut(DomId::DOM0).virq_enabled = true;
        assert_eq!(xen.take_runnable_softirqs().len(), 1);
        assert!(xen.softirqs.is_empty());
    }

    #[test]
    fn softirqs_coalesce_duplicate_driver_irqs() {
        let (_m, mut xen) = mk();
        xen.raise_softirq(Softirq::DriverIrq { nic: 0 });
        xen.raise_softirq(Softirq::DriverIrq { nic: 0 });
        xen.raise_softirq(Softirq::DriverIrq { nic: 0 });
        assert_eq!(xen.softirqs.len(), 1, "one pending pass covers all");
        assert_eq!(xen.softirqs_coalesced, 2);
        assert_eq!(xen.take_runnable_softirqs().len(), 1);
    }

    #[test]
    fn softirq_coalescing_is_per_device() {
        // Each NIC is its own softirq source: duplicates coalesce only
        // within a device, and one pass carries every raised device in
        // raise order.
        let (_m, mut xen) = mk();
        xen.raise_softirq(Softirq::DriverIrq { nic: 0 });
        xen.raise_softirq(Softirq::DriverIrq { nic: 1 });
        xen.raise_softirq(Softirq::DriverIrq { nic: 0 });
        xen.raise_softirq(Softirq::DriverIrq { nic: 2 });
        xen.raise_softirq(Softirq::DriverIrq { nic: 1 });
        assert_eq!(xen.softirqs.len(), 3, "three devices pending");
        assert_eq!(xen.softirqs_coalesced, 2, "per-device duplicates only");
        let work = xen.take_runnable_softirqs();
        assert_eq!(
            work,
            vec![
                Softirq::DriverIrq { nic: 0 },
                Softirq::DriverIrq { nic: 1 },
                Softirq::DriverIrq { nic: 2 },
            ]
        );
        assert!(xen.softirqs.is_empty());
    }

    #[test]
    fn grant_ops_count() {
        let (mut m, mut xen) = mk();
        xen.grant_map(&mut m);
        xen.grant_unmap(&mut m);
        assert_eq!(m.meter.event(Event::GrantMap), 1);
        assert_eq!(m.meter.event(Event::GrantUnmap), 1);
        assert_eq!(xen.grants, GrantStats::default(), "no device, no copy");
        assert!(
            m.meter.cycles(CostDomain::Xen) >= m.cost[Term::GrantMap] + m.cost[Term::GrantUnmap]
        );
    }

    #[test]
    fn grant_ops_attribute_per_device() {
        let (mut m, mut xen) = mk();
        xen.grant_map_dev(&mut m, 0);
        xen.grant_map_dev(&mut m, 2);
        xen.grant_unmap_dev(&mut m, 2);
        xen.grant_map(&mut m); // no attributable device
        xen.note_grant_copy(Some(2));
        xen.note_grant_copy(None);
        assert_eq!(xen.grants.copies, 2, "the total covers attributed and not");
        assert_eq!(
            xen.grants.device(2),
            DevGrantStats {
                maps: 1,
                unmaps: 1,
                copies: 1
            }
        );
        assert_eq!(xen.grants.device(0).maps, 1);
        assert_eq!(xen.grants.device(7), DevGrantStats::default());
        // Device-attributed ops charge and count exactly like the plain
        // ones: the rows total attributed and not.
        assert_eq!(m.meter.event(Event::GrantMap), 3);
        assert_eq!(m.meter.event(Event::GrantUnmap), 1);
    }
}
