//! # twin-xen — the Xen-like hypervisor substrate
//!
//! Everything the paper's hypervisor side needs:
//!
//! * [`xen::Xen`] — domains, domain switches (the overhead TwinDrivers
//!   eliminates), hypercalls, event channels, grant tables, softirqs;
//! * [`grant::GrantCache`] — the map-once/recycle grant table behind the
//!   zero-copy datapath: pool pages mapped on first touch, LRU-evicted
//!   at capacity, revocable per domain (the quarantine seam);
//! * [`support::HyperSupport`] — hypervisor execution of the ten
//!   fast-path support routines (paper §4.3, Table 1: the
//!   `FastPath` rows of `twin_kernel::ROUTINES`) and the
//!   **upcall** mechanism that forwards everything else to dom0 (§4.2),
//!   including the Figure 10 knob that forces fast-path routines onto
//!   the upcall path;
//! * [`hyperdrv`] — the modified loader that places the rewritten driver
//!   in the hypervisor, resolving its data references to dom0 addresses
//!   and giving it a guarded hypervisor stack (§5.2).
//!
//! The `twin-xen` crate deliberately contains *mechanism only*; the four
//! measured system configurations (native Linux, dom0, baseline Xen
//! guest, TwinDrivers guest) are assembled in the `twindrivers` core
//! crate.

pub mod domain;
pub mod grant;
pub mod hyperdrv;
pub mod support;
pub mod upcall;
pub mod xen;

pub use domain::{DomId, Domain, DomainKind};
pub use grant::{GrantAccess, GrantCache, GrantCacheStats};
pub use hyperdrv::{
    load_hypervisor_driver, HypervisorDriver, HYP_CODE_BASE, HYP_STACK_BASE, HYP_STACK_PAGES,
    UPCALL_RING_BASE, UPCALL_RING_PAGES, UPCALL_RING_SLOTS, UPCALL_STACK_BASE, UPCALL_STACK_PAGES,
};
pub use support::{svm_helper, HyperSupport, UPCALL_PORT};
pub use upcall::{
    Completion, QueuedUpcall, UpcallEngine, UpcallMode, UpcallStats, UPCALL_COMPLETION_PORT,
};
pub use xen::{DevGrantStats, GrantStats, Softirq, Xen};
