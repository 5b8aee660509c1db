//! The driver↔kernel interface, stated once: [`ROUTINES`] has one row per
//! support routine — its name, how the e1000 source uses it, and, for the
//! paper's ten Table 1 routines, what the hypervisor needs to know to run
//! or defer it. The driver's `.extern` block and `e1000_sw_init`
//! ([`crate::e1000::source`]), dom0's dispatch
//! ([`crate::Dom0Kernel::handle_extern`]), the hypervisor's native /
//! upcall split and the Figure 10 knob are all read off this table; a
//! crossing resolves the name to a [`RoutineId`] once and carries that.

use DeferClass::{Continuation, Deferred, Provisional};
use Usage::{Called, Dom0Only, Probed};

/// How a Table 1 routine forced onto the upcall path executes when the
/// deferred-upcall engine is active (never consulted in synchronous
/// mode, which stays the paper's §4.2 path). Routines outside Table 1
/// have no class: they are always synchronous upcalls — two domain
/// switches per call, after draining the ring so dom0 sees older queued
/// work first.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DeferClass {
    /// The caller never consumes the result inline (frees, unmaps,
    /// unlocks): enqueue into the deferred ring and continue with 0;
    /// dom0 executes the call — and posts the completion — at the next
    /// flush.
    Deferred,
    /// The result is consumed inline but the hypervisor can compute it
    /// (DMA mapping is the deterministic page translation it already
    /// performs for the stlb): run the body locally for a provisional
    /// result, enqueue, continue; dom0's flush execution recomputes the
    /// identical value.
    Provisional,
    /// The result is consumed inline and only dom0 can produce it
    /// (allocation from dom0's free list, delivery into dom0's stack):
    /// suspend the burst via a continuation — the whole ring drains in
    /// one switch-pair, FIFO, with this call last, and the caller resumes
    /// with the routine's dom0 return value.
    Continuation,
}

/// What the hypervisor knows about a Table 1 routine (paper §4.3).
#[derive(Copy, Clone, Debug)]
pub struct FastPath {
    /// Whether forcing it onto the upcall path costs two switches per
    /// *flush*, or per *suspension*.
    pub defer: DeferClass,
    /// Stack arguments a deferred ring entry saves (a slot holds four).
    pub arity: usize,
    /// Queued routines whose effect the native body reads (pool free
    /// lists, the shared lock word): the engine flushes first when the
    /// ring holds one of them.
    pub flush_first: &'static [&'static str],
    /// Whether the hypervisor body touches driver data, i.e. pays an
    /// explicit stlb lookup.
    pub touches_driver_data: bool,
}

/// How the e1000 source uses a routine.
#[derive(Copy, Clone, Debug)]
pub enum Usage {
    /// Called on the error-free transmit/receive path: a Table 1 row,
    /// implemented in the hypervisor.
    FastPath(FastPath),
    /// Referenced by the init/config/error paths only; `e1000_sw_init`
    /// probes it once with a null argument.
    Probed,
    /// Called by the structured driver code with real arguments (so
    /// `e1000_sw_init` does not double-call it blindly).
    Called,
    /// Implemented by dom0 but not imported by the driver.
    Dom0Only,
}

/// One support routine.
#[derive(Copy, Clone, Debug)]
pub struct Routine {
    /// The symbol the driver imports.
    pub name: &'static str,
    /// How the driver uses it.
    pub usage: Usage,
}

/// Index of a [`ROUTINES`] row: what an extern crossing carries once the
/// name is resolved, and the routine word of a deferred ring slot.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RoutineId(u8);

impl RoutineId {
    /// The one routine the paravirtual transmit glue calls by hand.
    pub const NETDEV_ALLOC_SKB: RoutineId = RoutineId::named("netdev_alloc_skb");

    /// The receive hand-off: the hypervisor's body demultiplexes where
    /// dom0's delivers, and the Figure 10 knob never forces it.
    pub const NETIF_RX: RoutineId = RoutineId::named("netif_rx");

    /// Resolves an extern name; `None` for a routine dom0 does not
    /// implement.
    pub fn lookup(name: &str) -> Option<RoutineId> {
        let i = ROUTINES.iter().position(|r| r.name == name)?;
        Some(RoutineId(i as u8))
    }

    /// The row named `name`, for a body to dispatch on through a `const`.
    ///
    /// # Panics
    ///
    /// When no row is named `name`, which in a `const` fails the build —
    /// why this `panic!` is allowed where the crate denies the rest.
    #[allow(clippy::panic)]
    pub const fn named(name: &str) -> RoutineId {
        let mut i = 0;
        while i < ROUTINES.len() {
            if str_eq(ROUTINES[i].name, name) {
                return RoutineId(i as u8);
            }
            i += 1;
        }
        panic!("not a ROUTINES row")
    }

    /// The row's position in [`ROUTINES`]; the ten Table 1 rows are
    /// `0..10`.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The routine's name.
    pub fn name(self) -> &'static str {
        ROUTINES[self.index()].name
    }

    /// The Table 1 columns, for a fast-path routine.
    pub fn fast_path(self) -> Option<&'static FastPath> {
        match &ROUTINES[self.index()].usage {
            Usage::FastPath(fp) => Some(fp),
            _ => None,
        }
    }

    /// True when some native body must see this routine's queued calls
    /// first — a free or an unlock, i.e. state dom0 is owed even if the
    /// driver that queued it is gone.
    pub fn is_flush_first(self) -> bool {
        ROUTINES.iter().any(
            |r| matches!(&r.usage, Usage::FastPath(fp) if fp.flush_first.contains(&self.name())),
        )
    }
}

/// `a == b`, in a `const fn`.
const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

const fn fast(
    name: &'static str,
    defer: DeferClass,
    arity: usize,
    flush_first: &'static [&'static str],
    touches_driver_data: bool,
) -> Routine {
    let usage = Usage::FastPath(FastPath {
        defer,
        arity,
        flush_first,
        touches_driver_data,
    });
    Routine { name, usage }
}

const fn row(name: &'static str, usage: Usage) -> Routine {
    Routine { name, usage }
}

const FREES: &[&str] = &["dev_kfree_skb_any", "dev_kfree_skb", "kfree_skb"];
const UNLOCK: &[&str] = &["spin_unlock_irqrestore"];

/// Every support routine the dom0 kernel model implements. The first ten
/// rows are the paper's Table 1 in the paper's order (columns: deferral
/// class, arity, flush-first set, touches driver data); the driver's
/// `.extern` block is every row but the `Dom0Only` ones, in this order.
pub const ROUTINES: &[Routine] = &[
    fast("netdev_alloc_skb", Continuation, 2, FREES, true),
    fast("dev_kfree_skb_any", Deferred, 1, &[], false),
    fast("netif_rx", Continuation, 1, &[], true),
    fast("dma_map_single", Provisional, 2, &[], false),
    fast("dma_map_page", Provisional, 2, &[], false),
    fast("dma_unmap_single", Deferred, 2, &[], false),
    fast("dma_unmap_page", Deferred, 2, &[], false),
    fast("spin_trylock", Continuation, 1, UNLOCK, true),
    fast("spin_unlock_irqrestore", Deferred, 2, &[], false),
    fast("eth_type_trans", Continuation, 2, &[], true),
    row("pci_enable_device", Called),
    row("pci_disable_device", Probed),
    row("pci_set_master", Called),
    row("pci_request_regions", Called),
    row("pci_release_regions", Probed),
    row("pci_read_config_dword", Called),
    row("pci_write_config_dword", Probed),
    row("pci_read_config_word", Probed),
    row("pci_write_config_word", Probed),
    row("pci_set_drvdata", Probed),
    row("pci_get_drvdata", Probed),
    row("pci_enable_msi", Probed),
    row("pci_disable_msi", Probed),
    row("ioremap", Called),
    row("iounmap", Probed),
    row("request_region", Probed),
    row("release_region", Probed),
    row("alloc_etherdev", Called),
    row("free_netdev", Probed),
    row("register_netdev", Called),
    row("unregister_netdev", Probed),
    row("netdev_priv", Probed),
    row("netif_start_queue", Called),
    row("netif_stop_queue", Called),
    row("netif_wake_queue", Probed),
    row("netif_queue_stopped", Probed),
    row("netif_carrier_on", Called),
    row("netif_carrier_off", Probed),
    row("netif_carrier_ok", Called),
    row("netif_device_attach", Probed),
    row("netif_device_detach", Probed),
    row("request_irq", Called),
    row("free_irq", Probed),
    row("synchronize_irq", Probed),
    row("disable_irq", Probed),
    row("enable_irq", Probed),
    row("kmalloc", Called),
    row("kfree", Probed),
    row("vmalloc", Probed),
    row("vfree", Probed),
    row("dma_alloc_coherent", Called),
    row("dma_free_coherent", Probed),
    row("dma_sync_single_for_cpu", Probed),
    row("dma_sync_single_for_device", Probed),
    row("spin_lock_init", Called),
    row("spin_lock_irqsave", Probed),
    row("mutex_lock", Probed),
    row("mutex_unlock", Probed),
    row("init_timer", Called),
    row("mod_timer", Called),
    row("del_timer", Called),
    row("del_timer_sync", Probed),
    row("round_jiffies", Probed),
    row("msleep", Probed),
    row("mdelay", Probed),
    row("udelay", Probed),
    row("schedule_work", Probed),
    row("cancel_work_sync", Probed),
    row("flush_scheduled_work", Probed),
    row("printk", Called),
    row("memcpy", Probed),
    row("memset", Called),
    row("memcmp", Probed),
    row("strcpy", Probed),
    row("strlen", Probed),
    row("snprintf", Probed),
    row("capable", Probed),
    row("copy_to_user", Probed),
    row("copy_from_user", Probed),
    row("mii_ethtool_gset", Called),
    row("mii_ethtool_sset", Probed),
    row("mii_link_ok", Called),
    row("mii_check_link", Probed),
    row("generic_mii_ioctl", Probed),
    row("crc32", Probed),
    row("set_bit", Probed),
    row("clear_bit", Probed),
    row("test_bit", Probed),
    row("skb_reserve", Probed),
    row("skb_put", Probed),
    row("skb_push", Probed),
    row("skb_pull", Probed),
    row("dev_alloc_skb", Probed),
    row("ethtool_op_get_link", Probed),
    row("random32", Probed),
    row("jiffies_read", Probed),
    row("cpu_to_le32", Probed),
    row("le32_to_cpu", Probed),
    row("dev_kfree_skb", Dom0Only),
    row("kfree_skb", Dom0Only),
];
