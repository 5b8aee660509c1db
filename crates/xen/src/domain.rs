//! Domains: dom0 and guests, with their address spaces, virtual
//! interrupt state and (for the TwinDrivers path) per-guest receive
//! queues.

use twin_machine::SpaceId;
use twin_net::{Frame, MacAddr};

/// Domain identifier; dom0 is always id 0.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DomId(pub u32);

impl DomId {
    /// The driver domain.
    pub const DOM0: DomId = DomId(0);
}

/// Kind of domain.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DomainKind {
    /// The privileged driver domain.
    Driver,
    /// An unprivileged guest.
    Guest,
}

/// A virtual machine: address space, MAC identity, virtual interrupt
/// flag, pending events and the TwinDrivers receive queue.
#[derive(Clone, Debug)]
pub struct Domain {
    /// Identifier.
    pub id: DomId,
    /// Address space.
    pub space: SpaceId,
    /// Driver domain or guest.
    pub kind: DomainKind,
    /// MAC address of the domain's (virtual) interface.
    pub mac: MacAddr,
    /// Virtual interrupt-enable flag — the paper's §4.4: "the dom0 kernel
    /// masks and unmasks a virtual interrupt flag instead of the real CPU
    /// interrupt flag".
    pub virq_enabled: bool,
    /// Pending virtual interrupts (event-channel ports).
    pub pending_virqs: Vec<u32>,
    /// Frames demultiplexed to this guest by the hypervisor driver,
    /// waiting to be copied in when the guest is scheduled (paper §5.3).
    pub rx_queue: Vec<Frame>,
    /// Bound on `rx_queue`: when set, the demux drops frames for this
    /// guest once its backlog reaches the cap instead of queueing them
    /// unboundedly — the receive-livelock drop point (all the reap and
    /// demux work is already paid by then; that waste is the livelock).
    /// `None` (the default) keeps the unbounded pre-overload behaviour.
    pub rx_queue_cap: Option<usize>,
    /// Frames fully delivered into the guest (after the copy).
    pub rx_delivered: Vec<Frame>,
}

impl Domain {
    /// Creates a domain.
    pub fn new(id: DomId, space: SpaceId, kind: DomainKind, mac: MacAddr) -> Domain {
        Domain {
            id,
            space,
            kind,
            mac,
            virq_enabled: true,
            pending_virqs: Vec::new(),
            rx_queue: Vec::new(),
            rx_queue_cap: None,
            rx_delivered: Vec::new(),
        }
    }

    /// Queues one demultiplexed frame toward this guest, honouring the
    /// backlog cap. Returns `false` when the frame was dropped at the
    /// cap, which the caller notes as a `Fate::QueueCap` death (it
    /// charges nothing extra: the work wasted on a capped frame was
    /// already spent reaping it).
    pub fn queue_rx(&mut self, frame: Frame) -> bool {
        if let Some(cap) = self.rx_queue_cap {
            if self.rx_queue.len() >= cap {
                return false;
            }
        }
        self.rx_queue.push(frame);
        true
    }

    /// Consumes every pending event on `port`, returning how many were
    /// pending — how a handler acknowledges e.g. the batched
    /// upcall-completion event without disturbing other ports' events.
    pub fn drain_virqs(&mut self, port: u32) -> usize {
        let before = self.pending_virqs.len();
        self.pending_virqs.retain(|p| *p != port);
        before - self.pending_virqs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dom0_is_id_zero() {
        assert_eq!(DomId::DOM0, DomId(0));
    }

    #[test]
    fn new_domain_defaults() {
        let d = Domain::new(
            DomId(1),
            SpaceId(1),
            DomainKind::Guest,
            MacAddr::for_guest(1),
        );
        assert!(d.virq_enabled);
        assert!(d.pending_virqs.is_empty());
        assert!(d.rx_queue.is_empty());
    }

    #[test]
    fn drain_virqs_is_per_port() {
        let mut d = Domain::new(
            DomId(1),
            SpaceId(1),
            DomainKind::Guest,
            MacAddr::for_guest(1),
        );
        d.pending_virqs.extend([4, 32, 4, 32, 7]);
        assert_eq!(d.drain_virqs(32), 2);
        assert_eq!(d.pending_virqs, vec![4, 4, 7]);
        assert_eq!(d.drain_virqs(32), 0);
    }
}
