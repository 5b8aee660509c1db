//! The e1000 network driver, written in twin-isa assembly.
//!
//! This is the "guest OS driver" the whole paper revolves around: the
//! rewriter derives the hypervisor instance from this source, exactly as
//! the paper compiles the Linux e1000 driver to assembly and rewrites it
//! (§5.1). The structure mirrors the real driver:
//!
//! * `e1000_xmit_fill` — the descriptor-fill half of transmit (map the
//!   buffer(s) for DMA, write descriptors, bookkeeping — no doorbell);
//! * `e1000_xmit_frame` — take the TX lock, reap completed descriptors
//!   (`e1000_clean_tx`), fill one packet, bump `TDT` with one MMIO write;
//! * `e1000_xmit_batch` — the burst entry: one lock acquisition, one reap
//!   pass, N fills, **one** `TDT` doorbell for the whole burst;
//! * `e1000_intr` → `e1000_clean_rx` — read `ICR`, reap every `DD`
//!   receive descriptor in one pass, `eth_type_trans`, `netif_rx`,
//!   replenish buffers, bump `RDT` once;
//! * `e1000_poll_rx_batch` — NAPI-style polled receive: reap without an
//!   `ICR` read, for callers that already coalesced the interrupt;
//! * `e1000_poll_rx_budget` → `e1000_clean_rx_budget` — the budgeted
//!   NAPI poll pass (the real `e1000_clean` weight loop): reap at most
//!   `budget` descriptors, so one overloaded device cannot hold the
//!   softirq context for an unbounded pass; the caller re-arms the
//!   interrupt when a pass drains below budget;
//! * probe/open/close/watchdog/ethtool paths that call the long tail of
//!   kernel support routines (the paper counts 97 for the real driver —
//!   only the ten in Table 1 appear on the error-free TX/RX path).
//!
//! The adapter structs live in the data section, so in the TwinDrivers
//! configuration they reside in dom0 memory and are shared by both driver
//! instances (paper §3.2).
//!
//! **Multi-NIC:** the data section holds [`MAX_NICS`] adapter slots of
//! [`ADAPTER_STRIDE`] bytes, and `cur_adapter` points at the active slot
//! (the same indirection a real driver performs with `netdev_priv`).
//! `e1000_probe(dev)` selects slot `dev`, and the `*_dev` entry points
//! (`e1000_xmit_frame_dev`, `e1000_xmit_batch_dev`,
//! `e1000_poll_rx_batch_dev`, `e1000_intr_dev`) take a trailing device id
//! that re-selects the slot before tail-jumping into the shared body, so
//! one driver image serves N NICs with fully isolated per-device state.
//! The classic entries are untouched — single-NIC costs are identical.
//!
//! Control-path entries without a device argument (`e1000_close`,
//! `e1000_get_stats`, `e1000_set_mac`, `e1000_update_stats`, …) operate
//! on the slot selected through `e1000_set_device(dev)`; the watchdog is
//! armed once per device with the device index as its timer data, so
//! each NIC's periodic link check runs against its own slot no matter
//! what the fast path selected last.

use crate::routines::{Usage, ROUTINES};

/// Number of descriptors per ring (one 4 KiB page of 16-byte descriptors
/// would be 256; we use 128 and a 2 KiB ring, still page-contiguous).
pub const RING_SIZE: u32 = 128;

/// Maximum NICs one driver image can serve: the `.data` section reserves
/// this many adapter slots (the paper's testbed drove 5 NICs from one
/// driver; we round up to a power of two).
pub const MAX_NICS: usize = 8;

/// Bytes between consecutive adapter slots in the `adapter` array
/// (`adapter + dev * ADAPTER_STRIDE` is device `dev`'s struct).
pub const ADAPTER_STRIDE: u64 = 128;

/// Adapter struct field offsets (see the `.data` section in [`source`]).
pub mod adapter {
    /// MMIO base VA (dom0 mapping of the register window).
    pub const HW_ADDR: u64 = 0;
    /// net_device pointer.
    pub const NETDEV: u64 = 4;
    /// TX ring VA.
    pub const TX_RING: u64 = 8;
    /// TX ring machine address.
    pub const TX_RING_DMA: u64 = 12;
    /// Next TX descriptor to use.
    pub const TX_NEXT_USE: u64 = 20;
    /// Next TX descriptor to reap.
    pub const TX_NEXT_CLEAN: u64 = 24;
    /// RX ring VA.
    pub const RX_RING: u64 = 28;
    /// RX ring machine address.
    pub const RX_RING_DMA: u64 = 32;
    /// RDT shadow.
    pub const RX_NEXT_USE: u64 = 40;
    /// Next RX descriptor to reap.
    pub const RX_NEXT_CLEAN: u64 = 44;
    /// TX spinlock word.
    pub const TX_LOCK: u64 = 48;
    /// VA of the `skb*[RING_SIZE]` TX bookkeeping array.
    pub const TX_SKB: u64 = 52;
    /// VA of the RX bookkeeping array.
    pub const RX_SKB: u64 = 56;
    /// Stats: packets transmitted.
    pub const TX_PACKETS: u64 = 60;
    /// Stats: bytes transmitted.
    pub const TX_BYTES: u64 = 64;
    /// Stats: packets received.
    pub const RX_PACKETS: u64 = 68;
    /// Stats: bytes received.
    pub const RX_BYTES: u64 = 72;
    /// Stats: TX errors (ring full).
    pub const TX_ERRORS: u64 = 76;
    /// Stats: RX errors (allocation failures).
    pub const RX_ERRORS: u64 = 80;
    /// Watchdog invocations.
    pub const WATCHDOG_RUNS: u64 = 84;
    /// Interrupt count.
    pub const IRQ_COUNT: u64 = 88;
    /// Hardware stats mirror (GPRC/GPTC/MPC), filled by the watchdog.
    pub const HW_STATS: u64 = 100;
    /// Checksum-context scratch word (partial pseudo-header sum).
    pub const CSUM_SCRATCH: u64 = 112;
    /// Cached PHY BMSR, refreshed by the watchdog.
    pub const PHY_STATUS: u64 = 116;
    /// Frames delivered by the most recent `e1000_clean_rx` pass.
    pub const RX_REAPED: u64 = 120;
}

/// Returns the driver's assembly source. The `.extern` block and
/// `e1000_sw_init` are generated from [`ROUTINES`]: every routine the
/// driver imports is declared, and every one it has no structured call
/// for is probed once.
pub fn source() -> String {
    let imported = ROUTINES
        .iter()
        .filter(|r| !matches!(r.usage, Usage::Dom0Only));
    let externs: Vec<String> = imported.map(|r| format!(".extern {}\n", r.name)).collect();
    // A config-path function that exercises the long tail of kernel
    // support routines once each (the real driver touches ~97 routines
    // across its init / config / error paths).
    let mut sw_init = String::from(
        "
    .globl e1000_sw_init
e1000_sw_init:
    pushl %ebp
    movl %esp, %ebp
",
    );
    for r in ROUTINES.iter().filter(|r| matches!(r.usage, Usage::Probed)) {
        let n = r.name;
        sw_init.push_str(&format!("    pushl $0\n    call {n}\n    addl $4, %esp\n"));
    }
    sw_init.push_str("    popl %ebp\n    ret\n");

    // The block's first line is flush left (the pinned text has it so).
    format!("{}{CODE}{sw_init}{DATA}", externs.join("    "))
}

const CODE: &str = r#"
    .text

# ---------------------------------------------------------------------
# e1000_fill_desc(idx, buf, len, cmd): write one TX descriptor.
# ---------------------------------------------------------------------
    .globl e1000_fill_desc
e1000_fill_desc:
    pushl %ebp
    movl %esp, %ebp
    movl cur_adapter, %ecx
    movl 8(%ecx), %ecx          # tx_ring
    movl 8(%ebp), %eax          # idx
    shll $4, %eax
    addl %eax, %ecx             # desc
    movl 12(%ebp), %eax
    movl %eax, (%ecx)           # buffer address
    movl 16(%ebp), %eax
    movl %eax, 8(%ecx)          # length
    movl 20(%ebp), %eax
    movb %eax, 11(%ecx)         # cmd
    movb $0, 12(%ecx)           # clear status
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_clean_tx(): reap DD descriptors, unmap and free skbs.
# Caller holds the TX lock.
# ---------------------------------------------------------------------
    .globl e1000_clean_tx
e1000_clean_tx:
    pushl %ebp
    movl %esp, %ebp
    pushl %ebx
    pushl %esi
    pushl %edi
    movl cur_adapter, %ebx
    movl 24(%ebx), %esi         # next_clean
.Lctx_loop:
    cmpl 20(%ebx), %esi         # caught up with next_use?
    je .Lctx_done
    movl 8(%ebx), %ecx
    movl %esi, %eax
    shll $4, %eax
    addl %eax, %ecx             # desc
    movzbl 12(%ecx), %eax
    testl $1, %eax              # DD set?
    je .Lctx_done
    movb $0, 12(%ecx)
    movl 52(%ebx), %ecx         # tx_skb array
    movl %esi, %eax
    shll $2, %eax
    addl %eax, %ecx
    movl (%ecx), %edi           # skb (0 for fragment slots)
    movl $0, (%ecx)
    cmpl $0, %edi
    je .Lctx_next
    pushl 4(%edi)
    pushl (%edi)
    call dma_unmap_single
    addl $8, %esp
    movl 28(%edi), %eax         # nr_frags
    cmpl $0, %eax
    je .Lctx_free
    pushl 24(%edi)
    pushl 20(%edi)
    call dma_unmap_page
    addl $8, %esp
.Lctx_free:
    pushl %edi
    call dev_kfree_skb_any
    addl $4, %esp
.Lctx_next:
    incl %esi
    andl $127, %esi
    jmp .Lctx_loop
.Lctx_done:
    movl %esi, 24(%ebx)
    popl %edi
    popl %esi
    popl %ebx
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_xmit_fill(skb) -> 0 ok, 1 no-descriptor/runt.
# The descriptor-fill half of transmit: maps the buffer(s), writes the
# descriptor(s) and updates bookkeeping, but does NOT touch TDT. The
# caller holds the TX lock and issues the doorbell, so a burst of fills
# shares a single posted MMIO write.
# ---------------------------------------------------------------------
    .globl e1000_xmit_fill
e1000_xmit_fill:
    pushl %ebp
    movl %esp, %ebp
    pushl %ebx
    pushl %esi
    pushl %edi
    movl cur_adapter, %ebx
    movl 8(%ebp), %edi          # skb
    movl 20(%ebx), %esi         # next_use
    # free descriptors = (next_clean - next_use - 1) mod ring; a packet
    # needs 1 + nr_frags slots (a fragmented packet takes two, so the
    # single-slot collision test would let a burst lap the ring)
    movl 24(%ebx), %eax
    subl %esi, %eax
    decl %eax
    andl $127, %eax
    movl 28(%edi), %ecx         # nr_frags
    incl %ecx                   # descriptors needed
    cmpl %ecx, %eax
    jl .Lfill_full
    # sanity: reject runt frames (below the Ethernet minimum)
    movl 4(%edi), %eax
    addl 24(%edi), %eax         # linear + fragment bytes
    cmpl $14, %eax
    jl .Lfill_full
    # pseudo-header checksum over the first 16 bytes, folded into the
    # hardware checksum context (the real driver prepares a context
    # descriptor with exactly this kind of partial sum)
    movl (%edi), %edx           # skb->data
    movl $0, %eax
    movl $4, %ecx
.Lfill_csum:
    addl (%edx), %eax
    addl $4, %edx
    decl %ecx
    jne .Lfill_csum
    movl %eax, %edx
    shrl $16, %edx
    addl %edx, %eax             # fold carries
    andl $0xffff, %eax
    movl %eax, 112(%ebx)        # adapter csum context scratch
    pushl 4(%edi)               # len
    pushl (%edi)                # data
    call dma_map_single
    addl $8, %esp               # eax = machine address
    movl 28(%edi), %ecx         # nr_frags
    cmpl $0, %ecx
    jne .Lfill_frag
    pushl $9                    # cmd = EOP|RS
    pushl 4(%edi)
    pushl %eax
    pushl %esi
    call e1000_fill_desc
    addl $16, %esp
    jmp .Lfill_store
.Lfill_frag:
    pushl $8                    # cmd = RS (more descriptors follow)
    pushl 4(%edi)
    pushl %eax
    pushl %esi
    call e1000_fill_desc
    addl $16, %esp
    pushl 24(%edi)              # frag len
    pushl 20(%edi)              # frag machine page
    call dma_map_page
    addl $8, %esp
    movl %esi, %ecx
    incl %ecx
    andl $127, %ecx
    pushl $9                    # cmd = EOP|RS
    pushl 24(%edi)
    pushl %eax
    pushl %ecx
    call e1000_fill_desc
    addl $16, %esp
    # zero the fragment slot's bookkeeping entry
    movl 52(%ebx), %eax
    movl %esi, %edx
    incl %edx
    andl $127, %edx
    shll $2, %edx
    addl %edx, %eax
    movl $0, (%eax)
.Lfill_store:
    movl 52(%ebx), %ecx
    movl %esi, %edx
    shll $2, %edx
    addl %edx, %ecx
    movl %edi, (%ecx)           # remember skb at its first descriptor
    movl 28(%edi), %edx         # nr_frags
    leal 1(%esi,%edx,1), %eax
    andl $127, %eax
    movl %eax, 20(%ebx)         # next_use
    incl 60(%ebx)               # tx_packets
    movl 4(%edi), %eax
    addl 24(%edi), %eax         # plus frag bytes (0 if none)
    addl %eax, 64(%ebx)         # tx_bytes
    movl $0, %eax
    jmp .Lfill_out
.Lfill_full:
    incl 76(%ebx)               # tx_errors
    movl $1, %eax
.Lfill_out:
    popl %edi
    popl %esi
    popl %ebx
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_xmit_frame(skb, dev) -> 0 ok, 1 busy: the per-packet entry,
# now a burst of one — lock, reap, fill, one doorbell.
# ---------------------------------------------------------------------
    .globl e1000_xmit_frame
e1000_xmit_frame:
    pushl %ebp
    movl %esp, %ebp
    pushl %ebx
    pushl %esi
    movl cur_adapter, %ebx
    movl cur_adapter, %eax
    addl $48, %eax
    pushl %eax
    call spin_trylock
    addl $4, %esp
    cmpl $0, %eax
    je .Lxmit_busy
    call e1000_clean_tx
    pushl 8(%ebp)
    call e1000_xmit_fill
    addl $4, %esp
    movl %eax, %esi             # fill status
    cmpl $0, %esi
    jne .Lxmit_nokick
    movl (%ebx), %ecx           # hw_addr
    movl 20(%ebx), %eax
    movl %eax, 0x3818(%ecx)     # TDT: the posted doorbell write
.Lxmit_nokick:
    movl cur_adapter, %eax
    addl $48, %eax
    pushl $0
    pushl %eax
    call spin_unlock_irqrestore
    addl $8, %esp
    movl %esi, %eax
    jmp .Lxmit_out
.Lxmit_busy:
    movl $1, %eax
.Lxmit_out:
    popl %esi
    popl %ebx
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_xmit_batch(array, count, dev) -> frames accepted.
# One lock acquisition, one reap pass and one TDT doorbell move the
# whole burst; `array` holds `count` skb pointers in driver memory.
# Stops early when the ring fills; the caller owns unaccepted skbs.
# ---------------------------------------------------------------------
    .globl e1000_xmit_batch
e1000_xmit_batch:
    pushl %ebp
    movl %esp, %ebp
    pushl %ebx
    pushl %esi
    movl cur_adapter, %ebx
    movl cur_adapter, %eax
    addl $48, %eax
    pushl %eax
    call spin_trylock
    addl $4, %esp
    cmpl $0, %eax
    je .Lxb_busy
    call e1000_clean_tx
    movl $0, %esi               # accepted
.Lxb_loop:
    cmpl 12(%ebp), %esi         # whole burst placed?
    je .Lxb_kick
    movl 8(%ebp), %eax          # skb pointer array
    movl %esi, %edx
    shll $2, %edx
    addl %edx, %eax
    movl (%eax), %eax           # skb
    pushl %eax
    call e1000_xmit_fill
    addl $4, %esp
    cmpl $0, %eax
    jne .Lxb_kick               # ring full: kick what we have
    incl %esi
    jmp .Lxb_loop
.Lxb_kick:
    cmpl $0, %esi
    je .Lxb_unlock
    movl (%ebx), %ecx           # hw_addr
    movl 20(%ebx), %eax
    movl %eax, 0x3818(%ecx)     # single doorbell for the whole burst
.Lxb_unlock:
    movl cur_adapter, %eax
    addl $48, %eax
    pushl $0
    pushl %eax
    call spin_unlock_irqrestore
    addl $8, %esp
    movl %esi, %eax
    jmp .Lxb_out
.Lxb_busy:
    movl $0, %eax
.Lxb_out:
    popl %esi
    popl %ebx
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_clean_rx() -> frames delivered: reap every DD descriptor in one
# pass (the burst half of receive), hand each to the stack, replenish,
# and bump RDT once at the end of the pass.
# ---------------------------------------------------------------------
    .globl e1000_clean_rx
e1000_clean_rx:
    pushl %ebp
    movl %esp, %ebp
    pushl %ebx
    pushl %esi
    pushl %edi
    movl cur_adapter, %ebx
    movl $0, 120(%ebx)          # reap count for this pass
    movl 44(%ebx), %esi         # rx next_clean
.Lcrx_loop:
    movl 28(%ebx), %ecx
    movl %esi, %eax
    shll $4, %eax
    addl %eax, %ecx             # desc
    movzbl 12(%ecx), %eax
    testl $1, %eax              # DD?
    je .Lcrx_done
    movl 56(%ebx), %edx         # rx_skb array
    movl %esi, %eax
    shll $2, %eax
    addl %eax, %edx
    movl (%edx), %edi           # skb
    # hardware error bits (descriptor byte 13): count and drop
    movzbl 13(%ecx), %eax
    cmpl $0, %eax
    jne .Lcrx_badframe
    movl 8(%ecx), %eax
    andl $0xffff, %eax
    # sanity: length must fit the posted buffer
    cmpl $2048, %eax
    jg .Lcrx_badframe
    movl %eax, 4(%edi)          # skb->len = descriptor length
    pushl 4(%edi)
    pushl (%ecx)
    call dma_unmap_single
    addl $8, %esp
    pushl 4(%ebx)               # dev
    pushl %edi
    call eth_type_trans
    addl $8, %esp
    movl %eax, 12(%edi)         # skb->protocol
    incl 68(%ebx)               # rx_packets
    incl 120(%ebx)              # reap count
    movl 4(%edi), %eax
    addl %eax, 72(%ebx)         # rx_bytes
    pushl %edi
    call netif_rx
    addl $4, %esp
    pushl $2048
    pushl 4(%ebx)
    call netdev_alloc_skb
    addl $8, %esp
    cmpl $0, %eax
    je .Lcrx_nomem
    movl %eax, %edi             # new skb
    movl 56(%ebx), %edx
    movl %esi, %ecx
    shll $2, %ecx
    addl %ecx, %edx
    movl %eax, (%edx)
    pushl $2048
    pushl (%edi)
    call dma_map_single
    addl $8, %esp
    movl 28(%ebx), %ecx
    movl %esi, %edx
    shll $4, %edx
    addl %edx, %ecx
    movl %eax, (%ecx)           # fresh buffer for hardware
    movb $0, 12(%ecx)
    jmp .Lcrx_adv
.Lcrx_badframe:
    incl 80(%ebx)               # rx_errors
    # reuse the same buffer: clear status, keep skb posted
    movl 28(%ebx), %ecx
    movl %esi, %edx
    shll $4, %edx
    addl %edx, %ecx
    movb $0, 12(%ecx)
    movb $0, 13(%ecx)
    jmp .Lcrx_adv
.Lcrx_nomem:
    incl 80(%ebx)               # rx_errors
.Lcrx_adv:
    movl %esi, 40(%ebx)         # RDT shadow
    incl %esi
    andl $127, %esi
    jmp .Lcrx_loop
.Lcrx_done:
    movl %esi, 44(%ebx)
    movl (%ebx), %ecx
    movl 40(%ebx), %eax
    movl %eax, 0x2818(%ecx)     # RDT
    movl 120(%ebx), %eax        # return frames delivered
    popl %edi
    popl %esi
    popl %ebx
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_poll_rx_batch(dev) -> frames reaped: NAPI-style polled receive.
# No ICR read — the caller (hypervisor softirq or a polling kernel)
# already knows work is pending, so one coalesced interrupt ack covers
# the whole burst.
# ---------------------------------------------------------------------
    .globl e1000_poll_rx_batch
e1000_poll_rx_batch:
    pushl %ebp
    movl %esp, %ebp
    call e1000_clean_rx
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_clean_rx_budget(budget) -> frames delivered: the NAPI weight
# loop (the real e1000_clean). Identical reap/replenish body to
# e1000_clean_rx, but stops after `budget` frames so one pass cannot
# monopolise the softirq context; the leftover DD descriptors stay
# posted for the next poll. RDT is still bumped once per pass.
# ---------------------------------------------------------------------
    .globl e1000_clean_rx_budget
e1000_clean_rx_budget:
    pushl %ebp
    movl %esp, %ebp
    pushl %ebx
    pushl %esi
    pushl %edi
    movl cur_adapter, %ebx
    movl $0, 120(%ebx)          # reap count for this pass
    movl 44(%ebx), %esi         # rx next_clean
.Lcrb_loop:
    movl 120(%ebx), %eax
    cmpl 8(%ebp), %eax          # weight exhausted?
    jge .Lcrb_done
    movl 28(%ebx), %ecx
    movl %esi, %eax
    shll $4, %eax
    addl %eax, %ecx             # desc
    movzbl 12(%ecx), %eax
    testl $1, %eax              # DD?
    je .Lcrb_done
    movl 56(%ebx), %edx         # rx_skb array
    movl %esi, %eax
    shll $2, %eax
    addl %eax, %edx
    movl (%edx), %edi           # skb
    # hardware error bits (descriptor byte 13): count and drop
    movzbl 13(%ecx), %eax
    cmpl $0, %eax
    jne .Lcrb_badframe
    movl 8(%ecx), %eax
    andl $0xffff, %eax
    # sanity: length must fit the posted buffer
    cmpl $2048, %eax
    jg .Lcrb_badframe
    movl %eax, 4(%edi)          # skb->len = descriptor length
    pushl 4(%edi)
    pushl (%ecx)
    call dma_unmap_single
    addl $8, %esp
    pushl 4(%ebx)               # dev
    pushl %edi
    call eth_type_trans
    addl $8, %esp
    movl %eax, 12(%edi)         # skb->protocol
    incl 68(%ebx)               # rx_packets
    incl 120(%ebx)              # reap count
    movl 4(%edi), %eax
    addl %eax, 72(%ebx)         # rx_bytes
    pushl %edi
    call netif_rx
    addl $4, %esp
    pushl $2048
    pushl 4(%ebx)
    call netdev_alloc_skb
    addl $8, %esp
    cmpl $0, %eax
    je .Lcrb_nomem
    movl %eax, %edi             # new skb
    movl 56(%ebx), %edx
    movl %esi, %ecx
    shll $2, %ecx
    addl %ecx, %edx
    movl %eax, (%edx)
    pushl $2048
    pushl (%edi)
    call dma_map_single
    addl $8, %esp
    movl 28(%ebx), %ecx
    movl %esi, %edx
    shll $4, %edx
    addl %edx, %ecx
    movl %eax, (%ecx)           # fresh buffer for hardware
    movb $0, 12(%ecx)
    jmp .Lcrb_adv
.Lcrb_badframe:
    incl 80(%ebx)               # rx_errors
    # reuse the same buffer: clear status, keep skb posted
    movl 28(%ebx), %ecx
    movl %esi, %edx
    shll $4, %edx
    addl %edx, %ecx
    movb $0, 12(%ecx)
    movb $0, 13(%ecx)
    jmp .Lcrb_adv
.Lcrb_nomem:
    incl 80(%ebx)               # rx_errors
.Lcrb_adv:
    movl %esi, 40(%ebx)         # RDT shadow
    incl %esi
    andl $127, %esi
    jmp .Lcrb_loop
.Lcrb_done:
    movl %esi, 44(%ebx)
    movl (%ebx), %ecx
    movl 40(%ebx), %eax
    movl %eax, 0x2818(%ecx)     # RDT
    movl 120(%ebx), %eax        # return frames delivered
    popl %edi
    popl %esi
    popl %ebx
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_poll_rx_budget(netdev, budget) -> frames reaped: one budgeted
# NAPI poll pass. Like e1000_poll_rx_batch, no ICR read — the device
# is masked while polled, so there is nothing to ack.
# ---------------------------------------------------------------------
    .globl e1000_poll_rx_budget
e1000_poll_rx_budget:
    pushl %ebp
    movl %esp, %ebp
    pushl 12(%ebp)              # budget
    call e1000_clean_rx_budget
    addl $4, %esp
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_set_device(devid): select the adapter slot that subsequent
# entry-point invocations operate on (cur_adapter = adapter + devid*128).
# ---------------------------------------------------------------------
    .globl e1000_set_device
e1000_set_device:
    pushl %ebp
    movl %esp, %ebp
    movl 8(%ebp), %eax
    shll $7, %eax
    addl $adapter, %eax
    movl %eax, cur_adapter
    popl %ebp
    ret

# ---------------------------------------------------------------------
# Device-id-taking fast-path entries for the multi-NIC sharded datapath:
# each selects its adapter slot, then tail-jumps into the shared body.
# The extra trailing devid argument is invisible to the body (cdecl: the
# caller owns the frame). Single-NIC callers keep using the classic
# entries, whose cost is unchanged.
# ---------------------------------------------------------------------
    .globl e1000_xmit_frame_dev
e1000_xmit_frame_dev:           # (skb, netdev, devid)
    movl 12(%esp), %eax
    shll $7, %eax
    addl $adapter, %eax
    movl %eax, cur_adapter
    jmp e1000_xmit_frame

    .globl e1000_xmit_batch_dev
e1000_xmit_batch_dev:           # (array, count, netdev, devid)
    movl 16(%esp), %eax
    shll $7, %eax
    addl $adapter, %eax
    movl %eax, cur_adapter
    jmp e1000_xmit_batch

    .globl e1000_poll_rx_batch_dev
e1000_poll_rx_batch_dev:        # (netdev, devid)
    movl 8(%esp), %eax
    shll $7, %eax
    addl $adapter, %eax
    movl %eax, cur_adapter
    jmp e1000_poll_rx_batch

    .globl e1000_intr_dev
e1000_intr_dev:                 # (netdev, devid)
    movl 8(%esp), %eax
    shll $7, %eax
    addl $adapter, %eax
    movl %eax, cur_adapter
    jmp e1000_intr

    .globl e1000_poll_rx_budget_dev
e1000_poll_rx_budget_dev:       # (netdev, budget, devid)
    movl 12(%esp), %eax
    shll $7, %eax
    addl $adapter, %eax
    movl %eax, cur_adapter
    jmp e1000_poll_rx_budget

# ---------------------------------------------------------------------
# e1000_intr(dev): interrupt service routine.
# ---------------------------------------------------------------------
    .globl e1000_intr
e1000_intr:
    pushl %ebp
    movl %esp, %ebp
    pushl %ebx
    pushl %esi
    movl cur_adapter, %ebx
    incl 88(%ebx)
    movl (%ebx), %ecx
    movl 0xC0(%ecx), %esi       # ICR (read-to-clear)
    cmpl $0, %esi
    je .Lintr_out
    testl $0x80, %esi           # RXT0
    je .Lintr_tx
    call e1000_clean_rx
.Lintr_tx:
    testl $1, %esi              # TXDW
    je .Lintr_out
    movl cur_adapter, %eax
    addl $48, %eax
    pushl %eax
    call spin_trylock
    addl $4, %esp
    cmpl $0, %eax
    je .Lintr_out
    call e1000_clean_tx
    movl cur_adapter, %eax
    addl $48, %eax
    pushl $0
    pushl %eax
    call spin_unlock_irqrestore
    addl $8, %esp
.Lintr_out:
    popl %esi
    popl %ebx
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_alloc_rx_buffers(): fill the whole RX ring with fresh skbs.
# ---------------------------------------------------------------------
    .globl e1000_alloc_rx_buffers
e1000_alloc_rx_buffers:
    pushl %ebp
    movl %esp, %ebp
    pushl %ebx
    pushl %esi
    pushl %edi
    movl cur_adapter, %ebx
    movl $0, %esi
.Larb_loop:
    cmpl $128, %esi
    je .Larb_done
    pushl $2048
    pushl 4(%ebx)
    call netdev_alloc_skb
    addl $8, %esp
    cmpl $0, %eax
    je .Larb_done
    movl %eax, %edi
    movl 56(%ebx), %edx
    movl %esi, %ecx
    shll $2, %ecx
    addl %ecx, %edx
    movl %eax, (%edx)           # rx_skb[i]
    pushl $2048
    pushl (%edi)
    call dma_map_single
    addl $8, %esp
    movl 28(%ebx), %ecx
    movl %esi, %edx
    shll $4, %edx
    addl %edx, %ecx
    movl %eax, (%ecx)
    movb $0, 12(%ecx)
    incl %esi
    jmp .Larb_loop
.Larb_done:
    popl %edi
    popl %esi
    popl %ebx
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_open(dev): program rings, enable engines and interrupts.
# ---------------------------------------------------------------------
    .globl e1000_open
e1000_open:
    pushl %ebp
    movl %esp, %ebp
    pushl %ebx
    movl cur_adapter, %ebx
    movl (%ebx), %ecx
    movl 12(%ebx), %eax
    movl %eax, 0x3800(%ecx)     # TDBAL
    movl $2048, %eax
    movl %eax, 0x3808(%ecx)     # TDLEN = 128 * 16
    movl $0, %eax
    movl %eax, 0x3810(%ecx)     # TDH
    movl $2, %eax
    movl %eax, 0x400(%ecx)      # TCTL.EN (before first TDT write)
    movl $0, %eax
    movl %eax, 0x3818(%ecx)     # TDT
    movl 32(%ebx), %eax
    movl %eax, 0x2800(%ecx)     # RDBAL
    movl $2048, %eax
    movl %eax, 0x2808(%ecx)     # RDLEN
    movl $0, %eax
    movl %eax, 0x2810(%ecx)     # RDH
    call e1000_alloc_rx_buffers
    movl (%ebx), %ecx
    movl $127, %eax
    movl %eax, 0x2818(%ecx)     # RDT: 127 buffers posted
    movl $127, %eax
    movl %eax, 40(%ebx)
    movl $0, 44(%ebx)
    movl $2, %eax
    movl %eax, 0x100(%ecx)      # RCTL.EN
    movl $0x81, %eax
    movl %eax, 0xD0(%ecx)       # IMS = RXT0 | TXDW
    pushl 8(%ebp)
    call netif_start_queue
    addl $4, %esp
    movl $0, %eax
    popl %ebx
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_close(dev)
# ---------------------------------------------------------------------
    .globl e1000_close
e1000_close:
    pushl %ebp
    movl %esp, %ebp
    pushl %ebx
    movl cur_adapter, %ebx
    movl (%ebx), %ecx
    movl $0xffffffff, %eax
    movl %eax, 0xD8(%ecx)       # IMC: mask everything
    movl $0, %eax
    movl %eax, 0x400(%ecx)
    movl %eax, 0x100(%ecx)
    pushl 8(%ebp)
    call netif_stop_queue
    addl $4, %esp
    pushl $0
    call del_timer
    addl $4, %esp
    movl $0, %eax
    popl %ebx
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_update_stats(): read hardware counters into the mirror.
# ---------------------------------------------------------------------
    .globl e1000_update_stats
e1000_update_stats:
    pushl %ebp
    movl %esp, %ebp
    pushl %ebx
    movl cur_adapter, %ebx
    movl (%ebx), %ecx
    movl 0x4074(%ecx), %eax     # GPRC
    movl %eax, 100(%ebx)
    movl 0x4080(%ecx), %eax     # GPTC
    movl %eax, 104(%ebx)
    movl 0x4010(%ecx), %eax     # MPC
    movl %eax, 108(%ebx)
    popl %ebx
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_watchdog(data): periodic link check + stats refresh. The timer
# data is this device's index (probe arms one timer per NIC), so the
# watchdog always operates on its own adapter slot regardless of which
# device the fast path last selected.
# ---------------------------------------------------------------------
    .globl e1000_watchdog
e1000_watchdog:
    pushl %ebp
    movl %esp, %ebp
    pushl %ebx
    movl 8(%ebp), %eax
    shll $7, %eax
    addl $adapter, %eax
    movl %eax, cur_adapter
    movl cur_adapter, %ebx
    incl 84(%ebx)
    movl (%ebx), %ecx
    # read the PHY BMSR through MDIC: issue read op, poll READY
    movl $0x08010000, %eax      # read op, PHY reg 1 (BMSR)
    movl %eax, 0x20(%ecx)       # MDIC
.Lwd_mdic_poll:
    movl 0x20(%ecx), %eax
    testl $0x10000000, %eax     # READY?
    je .Lwd_mdic_poll
    andl $0xffff, %eax
    movl %eax, 116(%ebx)        # cached PHY status
    testl $4, %eax              # BMSR link status
    je .Lwd_nolink
    movl 0x8(%ecx), %eax        # STATUS (link)
    testl $2, %eax
    je .Lwd_nolink
    pushl 4(%ebx)
    call netif_carrier_ok
    addl $4, %esp
.Lwd_nolink:
    call e1000_update_stats
    pushl 8(%ebp)               # re-arm with this device's index
    pushl $e1000_watchdog
    pushl $100
    call mod_timer
    addl $12, %esp
    popl %ebx
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_get_stats(dev) -> pointer to the stats block.
# ---------------------------------------------------------------------
    .globl e1000_get_stats
e1000_get_stats:
    movl cur_adapter, %eax
    addl $60, %eax
    ret

# ---------------------------------------------------------------------
# e1000_set_mac(dev, addr): write RAL/RAH from a 6-byte buffer.
# ---------------------------------------------------------------------
    .globl e1000_set_mac
e1000_set_mac:
    pushl %ebp
    movl %esp, %ebp
    pushl %ebx
    movl cur_adapter, %ebx
    movl 12(%ebp), %edx         # addr buffer
    movl (%edx), %eax
    movl (%ebx), %ecx
    movl %eax, 0x5400(%ecx)     # RAL0
    movzwl 4(%edx), %eax
    movl %eax, 0x5404(%ecx)     # RAH0
    movl $0, %eax
    popl %ebx
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_set_multi(dev): rebuild the multicast filter (config path).
# ---------------------------------------------------------------------
    .globl e1000_set_multi
e1000_set_multi:
    pushl %ebp
    movl %esp, %ebp
    pushl $0
    pushl $0
    call crc32
    addl $8, %esp
    pushl $0
    pushl $0
    call set_bit
    addl $8, %esp
    movl $0, %eax
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_change_mtu(dev, mtu)
# ---------------------------------------------------------------------
    .globl e1000_change_mtu
e1000_change_mtu:
    pushl %ebp
    movl %esp, %ebp
    movl 12(%ebp), %eax
    cmpl $68, %eax
    jl .Lmtu_bad
    cmpl $9000, %eax
    jg .Lmtu_bad
    movl $0, %eax
    popl %ebp
    ret
.Lmtu_bad:
    movl $-22, %eax             # -EINVAL
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_tx_timeout(dev): error path — reset statistics and reap.
# ---------------------------------------------------------------------
    .globl e1000_tx_timeout
e1000_tx_timeout:
    pushl %ebp
    movl %esp, %ebp
    pushl $0
    call printk
    addl $4, %esp
    pushl $0
    call schedule_work
    addl $4, %esp
    popl %ebp
    ret

# ---------------------------------------------------------------------
# ethtool operations (config path; called through the ops table).
# ---------------------------------------------------------------------
    .globl e1000_get_settings
e1000_get_settings:
    pushl %ebp
    movl %esp, %ebp
    pushl $0
    call mii_ethtool_gset
    addl $4, %esp
    movl $0, %eax
    popl %ebp
    ret

    .globl e1000_get_drvinfo
e1000_get_drvinfo:
    pushl %ebp
    movl %esp, %ebp
    pushl %esi
    pushl %edi
    movl 8(%ebp), %edi          # caller's info buffer
    cmpl $0, %edi
    je .Ldrvinfo_done
    movl $driver_name, %esi
    movl $6, %ecx               # "e1000\0"
    rep movsb
.Ldrvinfo_done:
    movl $0, %eax
    popl %edi
    popl %esi
    popl %ebp
    ret

    .globl e1000_get_link
e1000_get_link:
    pushl %ebp
    movl %esp, %ebp
    pushl $0
    call mii_link_ok
    addl $4, %esp
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_ethtool_dispatch(op, arg): indirect call through the ops table —
# exercises stlb_call translation in the hypervisor instance.
# ---------------------------------------------------------------------
    .globl e1000_ethtool_dispatch
e1000_ethtool_dispatch:
    pushl %ebp
    movl %esp, %ebp
    movl 8(%ebp), %eax          # op index
    shll $2, %eax
    movl e1000_ethtool_ops(%eax), %ecx
    pushl 12(%ebp)
    call *%ecx
    addl $4, %esp
    popl %ebp
    ret

# ---------------------------------------------------------------------
# e1000_probe(dev_index): init hardware, rings and kernel plumbing.
# ---------------------------------------------------------------------
    .globl e1000_probe
e1000_probe:
    pushl %ebp
    movl %esp, %ebp
    pushl %ebx
    pushl %esi
    pushl %edi
    # the device index selects this device's adapter slot; every later
    # entry point reaches the same slot through cur_adapter
    movl 8(%ebp), %eax
    shll $7, %eax               # * ADAPTER_STRIDE (128)
    addl $adapter, %eax
    movl %eax, cur_adapter
    movl cur_adapter, %ebx
    pushl 8(%ebp)
    call pci_enable_device
    addl $4, %esp
    pushl 8(%ebp)
    call pci_set_master
    addl $4, %esp
    pushl 8(%ebp)
    call pci_request_regions
    addl $4, %esp
    pushl $16
    pushl 8(%ebp)
    call pci_read_config_dword
    addl $8, %esp
    pushl 8(%ebp)
    call ioremap
    addl $4, %esp
    movl %eax, (%ebx)           # hw_addr
    pushl $256
    call alloc_etherdev
    addl $4, %esp
    movl %eax, 4(%ebx)          # netdev
    # read the MAC out of the EEPROM (words 0..2) and validate the
    # image checksum (words 0..3 must sum to 0xBABA), as e1000_probe does
    movl (%ebx), %ecx
    movl $0, %esi               # word index
    movl $0, %edi               # running checksum
.Lprobe_eeprom:
    movl %esi, %eax
    shll $8, %eax               # address in bits 8..16
    movl %eax, 0x14(%ecx)       # EERD
.Lprobe_eerd_poll:
    movl 0x14(%ecx), %eax
    testl $0x10, %eax           # DONE?
    je .Lprobe_eerd_poll
    shrl $16, %eax              # data word
    addl %eax, %edi
    cmpl $3, %esi
    jge .Lprobe_eeprom_next
    # stash MAC words into the adapter (92 + 2*i)
    movl cur_adapter, %edx
    addl $92, %edx
    movl %esi, %eax
    addl %eax, %eax
    addl %eax, %edx
    movl 0x14(%ecx), %eax
    shrl $16, %eax
    movw %eax, (%edx)
.Lprobe_eeprom_next:
    incl %esi
    cmpl $4, %esi
    jne .Lprobe_eeprom
    andl $0xffff, %edi
    cmpl $0xbaba, %edi          # checksum must match
    je .Lprobe_eeprom_ok
    pushl $0
    call printk                 # complain, keep going (RAL/RAH fallback)
    addl $4, %esp
.Lprobe_eeprom_ok:
    # MAC from receive-address registers into the adapter copy
    movl (%ebx), %ecx
    movl 0x5400(%ecx), %eax
    movl %eax, 92(%ebx)
    movl 0x5404(%ecx), %eax
    movl %eax, 96(%ebx)
    # descriptor rings (DMA-coherent)
    movl cur_adapter, %eax
    addl $12, %eax
    pushl %eax
    pushl $2048
    call dma_alloc_coherent
    addl $8, %esp
    movl %eax, 8(%ebx)          # tx_ring VA
    movl cur_adapter, %eax
    addl $32, %eax
    pushl %eax
    pushl $2048
    call dma_alloc_coherent
    addl $8, %esp
    movl %eax, 28(%ebx)         # rx_ring VA
    # zero both descriptor rings (string stores; rewritten into the
    # page-chunked loop of paper §5.1.1 for the hypervisor instance)
    movl 8(%ebx), %edi
    movl $0, %eax
    movl $512, %ecx
    rep stosl
    movl 28(%ebx), %edi
    movl $0, %eax
    movl $512, %ecx
    rep stosl
    # bookkeeping arrays
    pushl $512
    call kmalloc
    addl $4, %esp
    movl %eax, 52(%ebx)
    pushl $512
    call kmalloc
    addl $4, %esp
    movl %eax, 56(%ebx)
    # ring indices and lock
    movl $0, 20(%ebx)
    movl $0, 24(%ebx)
    movl $0, 40(%ebx)
    movl $0, 44(%ebx)
    movl cur_adapter, %eax
    addl $48, %eax
    pushl %eax
    call spin_lock_init
    addl $4, %esp
    # kernel plumbing
    pushl $0
    call init_timer
    addl $4, %esp
    pushl 8(%ebp)               # timer data: this device's index
    pushl $e1000_watchdog
    pushl $100
    call mod_timer
    addl $12, %esp
    pushl $e1000_intr
    pushl 8(%ebp)
    call request_irq
    addl $8, %esp
    pushl 4(%ebx)
    call register_netdev
    addl $4, %esp
    pushl 4(%ebx)
    call netif_carrier_on
    addl $4, %esp
    pushl $0
    call printk
    addl $4, %esp
    call e1000_sw_init
    movl $0, %eax
    popl %edi
    popl %esi
    popl %ebx
    popl %ebp
    ret
"#;

const DATA: &str = r#"
    .data
    .align 4
    .globl adapter
adapter:
    .zero 1024                  # MAX_NICS (8) slots of ADAPTER_STRIDE (128)
    .globl cur_adapter
cur_adapter:
    .long adapter               # active slot (slot 0 until a probe/select)
    .globl e1000_netdev_ops
e1000_netdev_ops:
    .long e1000_open
    .long e1000_close
    .long e1000_xmit_frame
    .long e1000_get_stats
    .long e1000_set_mac
    .long e1000_set_multi
    .long e1000_change_mtu
    .long e1000_tx_timeout
    .globl e1000_ethtool_ops
e1000_ethtool_ops:
    .long e1000_get_settings
    .long e1000_get_drvinfo
    .long e1000_get_link
    .globl driver_name
driver_name:
    .asciz "e1000"
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use twin_isa::asm::assemble;

    #[test]
    fn driver_assembles() {
        let m = assemble("e1000", &source()).expect("driver source must assemble");
        assert!(
            m.text.len() > 300,
            "driver has {} instructions",
            m.text.len()
        );
        for f in [
            "e1000_probe",
            "e1000_open",
            "e1000_xmit_frame",
            "e1000_xmit_fill",
            "e1000_xmit_batch",
            "e1000_poll_rx_batch",
            "e1000_poll_rx_budget",
            "e1000_intr",
            "e1000_clean_rx",
            "e1000_clean_rx_budget",
            "e1000_clean_tx",
            "e1000_watchdog",
            "e1000_get_stats",
            "e1000_set_device",
            "e1000_xmit_frame_dev",
            "e1000_xmit_batch_dev",
            "e1000_poll_rx_batch_dev",
            "e1000_poll_rx_budget_dev",
            "e1000_intr_dev",
        ] {
            assert!(m.labels.contains_key(f), "missing {f}");
            assert!(m.globals.contains(f));
        }
        assert!(m.data.symbols.contains_key("adapter"));
        // Function-pointer tables are relocated data.
        assert!(m.data.relocs.iter().any(|r| r.symbol == "e1000_xmit_frame"));
    }

    /// Captured on the commit before the `.extern` block and
    /// `e1000_sw_init` were generated from `ROUTINES`: the emitted text
    /// must not move (row order and `Usage` decide it).
    #[test]
    fn source_is_pinned_byte_for_byte() {
        let src = source();
        let fnv1a = src.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(src.len(), 37_915);
        assert_eq!(fnv1a, 0xd808_2dfe_ffd4_058c, "{fnv1a:#x}");
        assert_eq!(src.matches(".extern ").count(), 98);
        assert_eq!(assemble("e1000", &src).unwrap().text.len(), 1_073);
    }

    #[test]
    fn adapter_array_holds_max_nics_slots() {
        let m = assemble("e1000", &source()).unwrap();
        let adapter = m.data.symbols["adapter"];
        let cur = m.data.symbols["cur_adapter"];
        assert_eq!(
            cur - adapter,
            MAX_NICS as u64 * ADAPTER_STRIDE,
            "cur_adapter sits right after the slot array"
        );
        // cur_adapter is initialised (via a data reloc) to slot 0.
        assert!(m
            .data
            .relocs
            .iter()
            .any(|r| r.offset == cur && r.symbol == "adapter"));
    }

    // Every adapter field fits inside one slot.
    const _: () = assert!(adapter::RX_REAPED < ADAPTER_STRIDE);

    #[test]
    fn driver_calls_a_large_support_surface() {
        let m = assemble("e1000", &source()).unwrap();
        let undef = m.undefined_symbols();
        // The ten fast-path routines plus the long tail.
        assert!(undef.contains("netif_rx"));
        assert!(undef.contains("spin_trylock"));
        assert!(
            undef.len() >= 90,
            "support surface is {} routines",
            undef.len()
        );
    }

    #[test]
    fn mem_reference_fraction_matches_paper() {
        // Paper §4.1: "in a typical driver, only roughly 25% of the
        // instructions reference memory".
        let m = assemble("e1000", &source()).unwrap();
        let mem = m.text.iter().filter(|i| i.needs_svm()).count();
        let frac = mem as f64 / m.text.len() as f64;
        assert!(
            (0.10..0.45).contains(&frac),
            "mem fraction {frac:.2} out of plausible range"
        );
    }
}
