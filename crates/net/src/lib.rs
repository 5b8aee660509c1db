//! # twin-net — networking substrate
//!
//! Ethernet frames and MAC addresses used by the NIC model, the kernel
//! network stack model and the workload generators (netperf-like
//! streaming, paper §6.2; web traffic, §6.3).
//!
//! Frames carry their 14-byte Ethernet header as real bytes (so the
//! hypervisor's receive demultiplexing by destination MAC — paper §5.3 —
//! operates on actual memory contents) plus a payload *length*; bulk
//! payload bytes are not materialised, which keeps multi-gigabit
//! simulations cheap while preserving every header-touching code path.

use std::fmt;

/// Standard Ethernet MTU (payload bytes).
pub const MTU: u32 = 1500;

/// Ethernet header length in bytes.
pub const ETH_HEADER_LEN: u32 = 14;

/// Bits on the wire per frame of `len` payload bytes: preamble (8) +
/// header (14) + FCS (4) + inter-frame gap (12) are accounted so that
/// throughput numbers line up with what netperf reports on real gigabit
/// hardware.
pub fn wire_bits(payload_len: u32) -> u64 {
    ((payload_len + ETH_HEADER_LEN + 8 + 4 + 12) as u64) * 8
}

/// A 48-bit MAC address.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// A deterministic locally-administered address for guest `n`.
    pub fn for_guest(n: u32) -> MacAddr {
        MacAddr([0x02, 0x16, 0x3e, (n >> 16) as u8, (n >> 8) as u8, n as u8])
    }

    /// A deterministic locally-administered address for physical NIC `n`
    /// (distinct OUI byte from the guest range, so hardware and guest
    /// identities never collide in demultiplexing tests).
    pub fn for_nic(n: u32) -> MacAddr {
        MacAddr([0x02, 0x16, 0x4e, (n >> 16) as u8, (n >> 8) as u8, n as u8])
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == MacAddr::BROADCAST
    }

    /// Parses `aa:bb:cc:dd:ee:ff` notation.
    pub fn parse(s: &str) -> Option<MacAddr> {
        let mut out = [0u8; 6];
        let mut parts = s.split(':');
        for b in &mut out {
            *b = u8::from_str_radix(parts.next()?, 16).ok()?;
        }
        parts.next().is_none().then_some(MacAddr(out))
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType values used by the models.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// Anything else (raw value).
    Other(u16),
}

impl EtherType {
    /// The 16-bit wire value.
    pub fn value(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// From the 16-bit wire value.
    pub fn from_value(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet frame: real header fields plus payload length and a flow
/// tag for bookkeeping in workloads.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType.
    pub ethertype: EtherType,
    /// Payload length in bytes (not materialised).
    pub payload_len: u32,
    /// Flow identifier (workload bookkeeping; not on the wire).
    pub flow: u32,
    /// Sequence number within the flow (workload bookkeeping).
    pub seq: u64,
}

impl Frame {
    /// A full-MTU IPv4 data frame for `flow`.
    pub fn data(dst: MacAddr, src: MacAddr, flow: u32, seq: u64) -> Frame {
        Frame {
            dst,
            src,
            ethertype: EtherType::Ipv4,
            payload_len: MTU,
            flow,
            seq,
        }
    }

    /// Total frame length (header + payload) in bytes.
    pub fn len(&self) -> u32 {
        ETH_HEADER_LEN + self.payload_len
    }

    /// Frames are never empty (the header is always present).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Serialises the 14-byte Ethernet header.
    pub fn header_bytes(&self) -> [u8; ETH_HEADER_LEN as usize] {
        let mut h = [0u8; ETH_HEADER_LEN as usize];
        h[0..6].copy_from_slice(&self.dst.0);
        h[6..12].copy_from_slice(&self.src.0);
        h[12..14].copy_from_slice(&self.ethertype.value().to_be_bytes());
        h
    }

    /// Parses a 14-byte Ethernet header (inverse of
    /// [`Frame::header_bytes`], with zeroed bookkeeping fields).
    pub fn from_header_bytes(h: &[u8], payload_len: u32) -> Option<Frame> {
        if h.len() < ETH_HEADER_LEN as usize {
            return None;
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&h[0..6]);
        src.copy_from_slice(&h[6..12]);
        let et = u16::from_be_bytes([h[12], h[13]]);
        Some(Frame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: EtherType::from_value(et),
            payload_len,
            flow: 0,
            seq: 0,
        })
    }
}

/// Length of the bookkeeping metadata (flow id + sequence number) stored
/// immediately after the Ethernet header in simulated packet buffers.
pub const META_LEN: u32 = 12;

/// Bytes of a frame materialised in simulated memory: the Ethernet
/// header, then [`META_LEN`] bookkeeping bytes.
pub const WIRE_PREFIX_LEN: usize = (ETH_HEADER_LEN + META_LEN) as usize;

impl Frame {
    /// Serialises the wire prefix actually materialised in simulated
    /// memory: 14 header bytes followed by [`META_LEN`] bookkeeping bytes
    /// (flow id, sequence number). The rest of the payload is length-only.
    pub fn wire_prefix(&self) -> [u8; WIRE_PREFIX_LEN] {
        let h = ETH_HEADER_LEN as usize;
        let mut p = [0u8; WIRE_PREFIX_LEN];
        p[..h].copy_from_slice(&self.header_bytes());
        p[h..h + 4].copy_from_slice(&self.flow.to_le_bytes());
        p[h + 4..].copy_from_slice(&self.seq.to_le_bytes());
        p
    }

    /// Parses a wire prefix written by [`Frame::wire_prefix`].
    /// `total_len` is header + payload.
    pub fn from_wire_prefix(bytes: &[u8], total_len: u32) -> Option<Frame> {
        if bytes.len() < WIRE_PREFIX_LEN || total_len < ETH_HEADER_LEN {
            return None;
        }
        let mut f = Frame::from_header_bytes(bytes, total_len - ETH_HEADER_LEN)?;
        let h = ETH_HEADER_LEN as usize;
        f.flow = u32::from_le_bytes(bytes[h..h + 4].try_into().ok()?);
        f.seq = u64::from_le_bytes(bytes[h + 4..h + 12].try_into().ok()?);
        Some(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_parse_roundtrip() {
        let m = MacAddr::for_guest(5);
        let s = m.to_string();
        assert_eq!(MacAddr::parse(&s), Some(m));
        assert_eq!(MacAddr::parse("zz:00:00:00:00:00"), None);
        assert_eq!(MacAddr::parse("00:11:22:33:44"), None);
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!m.is_broadcast());
    }

    #[test]
    fn guest_macs_unique() {
        let a = MacAddr::for_guest(1);
        let b = MacAddr::for_guest(2);
        assert_ne!(a, b);
    }

    #[test]
    fn frame_header_roundtrip() {
        let f = Frame::data(MacAddr::for_guest(1), MacAddr::for_guest(2), 3, 4);
        let h = f.header_bytes();
        let g = Frame::from_header_bytes(&h, f.payload_len).unwrap();
        assert_eq!(g.dst, f.dst);
        assert_eq!(g.src, f.src);
        assert_eq!(g.ethertype, EtherType::Ipv4);
        assert_eq!(g.payload_len, MTU);
        assert!(Frame::from_header_bytes(&h[..10], 0).is_none());
    }

    #[test]
    fn ethertype_values() {
        assert_eq!(EtherType::Ipv4.value(), 0x0800);
        assert_eq!(EtherType::from_value(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from_value(0x1234), EtherType::Other(0x1234));
    }

    #[test]
    fn wire_prefix_roundtrip() {
        let f = Frame {
            dst: MacAddr::for_guest(9),
            src: MacAddr::for_guest(8),
            ethertype: EtherType::Ipv4,
            payload_len: 700,
            flow: 0xabcd,
            seq: 0x1122_3344_5566,
        };
        let p = f.wire_prefix();
        let g = Frame::from_wire_prefix(&p, f.len()).unwrap();
        assert_eq!(g, f);
        assert!(Frame::from_wire_prefix(&p[..10], f.len()).is_none());
    }

    #[test]
    fn wire_bits_accounts_overheads() {
        // A 1500-byte frame is 1538 bytes on the wire.
        assert_eq!(wire_bits(MTU), 1538 * 8);
    }
}
