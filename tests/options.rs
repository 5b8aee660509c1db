//! The `SystemOptions` field list, pinned.
//!
//! The rule: **a field needs two values in use outside `tests/`** — a
//! sweep, a figure or a benchmark workload that sets it away from its
//! default, so something measures the axis. A value only tests ever set
//! is a constant beside the code that reads it (`DOM0_POOL_SKBS`,
//! `UpcallEngine::DEFAULT_CAPACITY`, `ZC_POOL_FRAMES`), and two fields
//! that are one axis are one field (`Itr`). Adding a field fails to
//! compile here until the destructure below — and this table — names who
//! varies it:
//!
//! | field | varied by |
//! |---|---|
//! | `rewrite` | `twindrivers-repro ablations` (liveness, stack checks) |
//! | `upcall_count` | `upcall_sweep`, `twindrivers-repro upcalls` (Fig. 10) |
//! | `header_copy_bytes` | `twindrivers-repro ablations` (threshold sweep) |
//! | `iommu` | the one exception — safety code (paper §4.5), not a tuning axis: no cost term, judged by `tests/safety.rs::iommu_blocks_rogue_dma` |
//! | `driver_source` | `fault_sweep` (fault-injected driver) |
//! | `num_nics` | `shard_sweep` and six more sweeps; benchmark `twin_*_bulk`, `paced_multi`, `overload_4x` |
//! | `shard` | `shard_sweep` (RoundRobin), `affinity_sweep` (Affinity), the rest FlowHash; benchmark as above |
//! | `rx_flush_quantum` | `livelock_sweep`; benchmark `paced_multi`, `overload_4x` |
//! | `upcall_mode` | `upcall_sweep`, `fault_sweep`, Fig. 10 deferred column; benchmark `twin_*_bulk` |
//! | `itr` | `moderation_sweep` (`Fixed`), `autotune_sweep` (`Fixed` ladder vs `Auto`) |
//! | `upcall_flush_deadline_cycles` | `fault_sweep`; benchmark `twin_*_bulk` |
//! | `zero_copy` | `zerocopy_sweep`, `fault_sweep`; benchmark `twin_*_bulk` |
//! | `napi_weight` | `livelock_sweep`, `fault_sweep`; benchmark, all four non-paper workloads |
//! | `guest_weights` | `livelock_sweep`; benchmark `paced_multi`, `overload_4x` |
//! | `rx_backlog_watermark` | `livelock_sweep`; benchmark `paced_multi`, `overload_4x` |
//! | `rx_queue_cap` | `livelock_sweep`; benchmark `paced_multi`, `overload_4x` |
//! | `tracing` | `livelock_sweep`, `fault_sweep`, `affinity_sweep` (`TWIN_TRACE_OUT`); benchmark recorder-overhead pass |
//!
//! The second half pins what the build does with a knob the
//! configuration cannot honour, or a driver source missing an entry the
//! build calls: an error, never a silent no-op or a panic.

use twindrivers::{Config, Itr, ShardPolicy, System, SystemError, SystemOptions, UpcallMode};

#[test]
fn the_field_list_is_seventeen_and_the_defaults_are_the_paper_path() {
    // No `..`: a new field is a compile error until it is listed above.
    let SystemOptions {
        rewrite: _,
        upcall_count,
        header_copy_bytes,
        iommu,
        driver_source,
        num_nics,
        shard,
        rx_flush_quantum,
        upcall_mode,
        itr,
        upcall_flush_deadline_cycles,
        zero_copy,
        napi_weight,
        guest_weights,
        rx_backlog_watermark,
        rx_queue_cap,
        tracing,
    } = SystemOptions::default();
    // What the benchmark's `paper_b1` (the paper's four configurations,
    // one NIC, one packet in flight) depends on.
    assert_eq!(itr, Itr::Fixed(0));
    assert_eq!(upcall_mode, UpcallMode::Sync);
    assert_eq!(napi_weight, 0);
    assert!(!zero_copy);
    // The rest of the unextended path.
    assert_eq!((upcall_count, header_copy_bytes, num_nics), (0, 96, 1));
    assert_eq!((shard, rx_flush_quantum), (ShardPolicy::Static, 64));
    assert!(!iommu && !tracing);
    assert!(driver_source.is_none() && guest_weights.is_empty());
    assert!(upcall_flush_deadline_cycles.is_none());
    assert!(rx_backlog_watermark.is_none() && rx_queue_cap.is_none());
}

#[test]
fn a_knob_the_configuration_cannot_honour_is_a_build_error() {
    let twin = [Config::TwinDrivers].as_slice();
    let guests = [Config::XenGuest, Config::TwinDrivers].as_slice();
    let d = SystemOptions::default;
    #[rustfmt::skip]
    let knobs: [(&str, &[Config], SystemOptions); 11] = [
        ("upcall_count", twin, SystemOptions { upcall_count: 4, ..d() }),
        ("iommu", twin, SystemOptions { iommu: true, ..d() }),
        ("upcall_mode", twin, SystemOptions { upcall_mode: UpcallMode::Deferred, ..d() }),
        ("upcall_flush_deadline_cycles", twin,
            SystemOptions { upcall_flush_deadline_cycles: Some(300_000), ..d() }),
        ("napi_weight", twin, SystemOptions { napi_weight: 16, ..d() }),
        ("rx_queue_cap", twin, SystemOptions { rx_queue_cap: Some(8), ..d() }),
        ("guest_weights", twin, SystemOptions { guest_weights: vec![(1, 2)], ..d() }),
        ("rx_flush_quantum", twin, SystemOptions { rx_flush_quantum: 4, ..d() }),
        ("header_copy_bytes", twin, SystemOptions { header_copy_bytes: 64, ..d() }),
        ("zero_copy", guests, SystemOptions { zero_copy: true, ..d() }),
        ("rx_backlog_watermark", guests, SystemOptions { rx_backlog_watermark: Some(64), ..d() }),
    ];
    for config in Config::ALL {
        System::build(config).unwrap_or_else(|e| panic!("{config}: defaults must build: {e}"));
        for (knob, honoured_by, opts) in &knobs {
            match System::build_with(config, opts) {
                Ok(sys) => {
                    assert!(honoured_by.contains(&config), "{config}: {knob} built");
                    assert_eq!(sys.world.iommu.is_some(), opts.iommu, "{config}");
                    let cache = sys.metrics().counters_with_prefix("grantcache.").count();
                    assert_eq!(cache > 0, opts.zero_copy, "{config}");
                }
                Err(SystemError::Build(why)) => {
                    assert!(!honoured_by.contains(&config), "{config}: {why}");
                    assert!(
                        why.starts_with(&format!("{knob} requires ")),
                        "{config}: {why}"
                    );
                }
                Err(e) => panic!("{config} {knob}: {e}"),
            }
        }
    }
}

#[test]
fn a_driver_source_without_probe_or_open_is_a_build_error() {
    for entry in ["e1000_probe", "e1000_open"] {
        let opts = SystemOptions {
            driver_source: Some(twin_kernel::e1000::source().replace(entry, "e1000_renamed")),
            ..SystemOptions::default()
        };
        let err = System::build_with(Config::XenDom0, &opts).err();
        assert!(
            matches!(&err, Some(SystemError::Build(why)) if why.contains(entry)),
            "{entry}: {err:?}"
        );
    }
}
