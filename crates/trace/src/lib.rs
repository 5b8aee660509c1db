//! # twin-trace — flight recorder + metrics registry on the virtual clock
//!
//! Every performance claim the reproduction makes rests on the cycle
//! meter's per-domain attribution, but the system's *dynamic* behaviour —
//! NAPI interrupt→poll transitions, ITR retunes, DRR grant rounds,
//! grant-cache evictions, early drops, upcall flush causes — used to be
//! visible only as end-of-run aggregate counters scattered across five
//! stats structs. This crate provides:
//!
//! * [`FlightRecorder`] — a bounded ring buffer of typed [`TraceEvent`]s,
//!   each stamped with the monotonic virtual clock and the cost domain
//!   current at the emission site. Recording is **pure bookkeeping**: it
//!   never charges a cycle, so enabling tracing perturbs no committed
//!   baseline (the props suite proves traced ≡ untraced bit-exact).
//! * [`MetricSet`] — the unified snapshot/delta registry the sweeps and
//!   the benchmark consume: flat counters plus nearest-rank histogram
//!   summaries (built on [`SampleReservoir`], which lives here so every
//!   layer shares one reservoir implementation).
//! * [`export`] — a chrome://tracing JSON exporter (one track per cost
//!   domain × device, instant events for drops/retunes) and a flat JSON
//!   metrics dump, written when the `TWIN_TRACE_OUT` environment variable
//!   names an output directory.
//! * [`CallTrace`] — the Table 1 call-name trace: which routines the
//!   driver calls in which harness phase. The site that records a call
//!   also notes [`TraceEvent::KernelCall`] into the unified stream; the
//!   routine and the phase are `&'static str` labels, so building the
//!   event allocates nothing whether or not the recorder is on.
//!
//! This crate cannot name the meter's counters. Which [`TraceEvent`]
//! kinds are occurrences the meter counts, and under which row, is
//! stated once, next to those rows: `twin_machine::cost::row`. A site
//! emits an event through `twin_machine::Machine::note`, which counts
//! the row and records the event in one call.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub mod export;

/// Why an upcall-ring flush ran — the paper's "natural dom0 scheduling
/// points" plus the forced cases.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FlushCause {
    /// End of a burst pass (transmit, receive, or poll).
    BurstEnd,
    /// The ring filled: the next enqueue forced a drain first.
    RingFull,
    /// The high-water softirq kick (`Softirq::UpcallFlush`).
    HighWater,
    /// The deadline-driven virtual timer fired on an idle system.
    Deadline,
    /// A native fast-path routine would have raced a queued entry
    /// (pool state vs a queued free, the lock word vs a queued unlock).
    Conflict,
    /// A `Sync`-class upcall drained the ring first to preserve program
    /// order.
    SyncOrder,
    /// A `Continuation`-class call suspended the burst: the ring drains
    /// (that call last) so it can resume with dom0's return value.
    Continuation,
}

impl FlushCause {
    /// Stable label used in exports and event summaries.
    pub fn label(self) -> &'static str {
        match self {
            FlushCause::BurstEnd => "burst_end",
            FlushCause::RingFull => "ring_full",
            FlushCause::HighWater => "high_water",
            FlushCause::Deadline => "deadline",
            FlushCause::Conflict => "conflict",
            FlushCause::SyncOrder => "sync_order",
            FlushCause::Continuation => "continuation",
        }
    }
}

/// Where a frame died. Every death is one [`TraceEvent::FrameDrop`]
/// naming its fate and, for every fate but `Malformed`, the frame; the
/// fate's label is the event's kind.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Shed at the admission watermark, before any ring or reap work.
    EarlyDrop,
    /// Dropped at the guest's demux queue cap — after the reap, i.e.
    /// the livelock waste.
    QueueCap,
    /// Its destination MAC matched no guest.
    DemuxMiss,
    /// In flight on a device whose rings a fault teardown discarded.
    InflightLost,
    /// The driver handed up an skb too short to parse as a frame, so
    /// the death names no frame.
    Malformed,
}

impl Fate {
    /// Stable label: the [`TraceEvent::kind`] of a death of this fate.
    pub fn label(self) -> &'static str {
        match self {
            Fate::EarlyDrop => "early_drop",
            Fate::QueueCap => "queue_cap_drop",
            Fate::DemuxMiss => "demux_miss",
            Fate::InflightLost => "inflight_lost",
            Fate::Malformed => "malformed",
        }
    }
}

/// One typed flight-recorder event. Fields are the values an observer
/// needs to reconstruct *why* the transition happened — not a replay log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A hardware interrupt for `dev` was dispatched to its handler.
    IrqDelivered {
        /// Device id.
        dev: u32,
    },
    /// An interrupt cause for `dev` was latched but not delivered
    /// (moderation gating, or the mask of a poll-mode device).
    IrqMasked {
        /// Device id.
        dev: u32,
    },
    /// NAPI: `dev` acked + masked its interrupt and entered poll mode.
    NapiEnter {
        /// Device id.
        dev: u32,
    },
    /// NAPI: one budgeted poll pass over `dev` reaped `reaped` frames.
    NapiPoll {
        /// Device id.
        dev: u32,
        /// Frames reaped by this pass.
        reaped: u32,
    },
    /// NAPI: a pass came in under weight; `dev` re-armed (`IMS`) and left
    /// poll mode.
    NapiComplete {
        /// Device id.
        dev: u32,
    },
    /// The ITR auto-tuner rewrote `dev`'s throttle register.
    ItrRetune {
        /// Device id.
        dev: u32,
        /// Register value before the retune.
        old: u32,
        /// Register value after the retune.
        new: u32,
        /// The classified regime that drove the step
        /// (`lowest_latency` / `low_latency` / `bulk_latency`).
        regime: &'static str,
    },
    /// One DRR flush grant: `guest` held `deficit` frames of credit and
    /// was served `granted` frames this round.
    DrrGrant {
        /// Guest domain id.
        guest: u32,
        /// Deficit (frames of credit) at service time.
        deficit: u64,
        /// Frames actually flushed to the guest.
        granted: u32,
    },
    /// A frame died.
    FrameDrop {
        /// Where.
        fate: Fate,
        /// The guest it was bound for, when one is known.
        guest: Option<u32>,
        /// The frame's `(flow, seq)`; `None` only for a
        /// [`Fate::Malformed`] skb, which parses as no frame.
        frame: Option<(u32, u64)>,
    },
    /// A dom0 call was saved into the deferred-upcall ring.
    UpcallEnqueue {
        /// Support-routine name.
        routine: &'static str,
        /// Continuation id the completion will carry.
        cont_id: u64,
    },
    /// The deferred-upcall ring drained in one switch-pair.
    UpcallFlush {
        /// What triggered the flush.
        cause: FlushCause,
        /// Entries executed by the flush.
        drained: u32,
    },
    /// One flushed entry completed; its return value was posted back.
    UpcallCompletion {
        /// Support-routine name.
        routine: &'static str,
        /// Continuation id matched by the waiter.
        cont_id: u64,
    },
    /// Zero-copy grant cache: the pool page was already mapped.
    GrantCacheHit {
        /// Owning domain.
        dom: u32,
        /// Pool page index.
        page: u64,
    },
    /// Zero-copy grant cache: first touch mapped the page.
    GrantCacheMiss {
        /// Owning domain.
        dom: u32,
        /// Pool page index.
        page: u64,
    },
    /// Zero-copy grant cache: an LRU victim was unmapped to make room.
    GrantCacheEvict {
        /// Victim's owning domain.
        dom: u32,
        /// Victim pool page index.
        page: u64,
    },
    /// Zero-copy grant cache: a domain's mappings were revoked (the
    /// quarantine seam).
    GrantCacheRevoke {
        /// Domain whose grants were torn down.
        dom: u32,
        /// Mappings revoked.
        count: u32,
    },
    /// A kernel timer popped from the wheel and its handler ran.
    TimerFire {
        /// The timer's `data` cookie (the e1000 watchdogs store their
        /// device index here).
        data: u64,
    },
    /// A deferred softirq was dispatched.
    SoftirqDispatch {
        /// Softirq kind label (`driver_irq`, `napi_poll`, `upcall_flush`).
        kind: &'static str,
        /// Device the softirq targets (0 for device-less kinds).
        dev: u32,
    },
    /// A driver instance called a support routine (the Table 1 trace,
    /// consolidated from the old `twin_kernel::Trace`).
    KernelCall {
        /// Support-routine name.
        routine: &'static str,
        /// Harness phase label (`init` / `config` / `fastpath`).
        phase: &'static str,
    },
    /// SVM (or the execution watchdog) caught the hypervisor driver
    /// faulting while it drove `dev` — the moment the trust decision
    /// flips (paper §4.5).
    FaultDetected {
        /// Device the driver was servicing when it faulted.
        dev: u32,
        /// Abort-reason label (`illegal store to …`, `watchdog: …`).
        reason: String,
    },
    /// Fault containment began: `dev` left service and its leaked state
    /// (grants, queued upcalls, poll latches, watchdog) is being torn
    /// down. Paired with [`TraceEvent::QuarantineExit`] as a span.
    QuarantineEnter {
        /// Quarantined device id.
        dev: u32,
    },
    /// `dev` finished recovery and re-entered service; closes the
    /// quarantine span.
    QuarantineExit {
        /// Recovered device id.
        dev: u32,
    },
    /// The quarantined device was reset: adapter slot re-probed, rings
    /// reconstructed, IRQ re-requested, watchdog re-armed.
    DeviceReset {
        /// Reset device id.
        dev: u32,
    },
    /// In-flight accounting for one fault episode: `replayed` queued
    /// upcalls were executed natively (frees/unlocks restored), the
    /// rest plus the device's undelivered frames were `dropped` —
    /// bounded, counted loss.
    InflightAccounted {
        /// Faulted device id.
        dev: u32,
        /// Deferred upcalls replayed natively during teardown.
        replayed: u32,
        /// Deferred upcalls discarded plus in-flight frames lost.
        dropped: u32,
    },
    /// A guest's vCPU began a run interval (scheduler model).
    VcpuRun {
        /// Guest whose vCPU woke.
        guest: u32,
        /// Physical CPU the vCPU runs on.
        cpu: u32,
    },
    /// A guest's vCPU went to sleep; its flows' deliveries defer to the
    /// next [`TraceEvent::VcpuRun`].
    VcpuSleep {
        /// Guest whose vCPU slept.
        guest: u32,
        /// Physical CPU the vCPU was running on.
        cpu: u32,
    },
    /// The affinity shard policy placed a flow on the NIC whose softirq
    /// CPU matches the owning guest's vCPU.
    AffinityPlace {
        /// Owning guest.
        guest: u32,
        /// Placed flow id.
        flow: u32,
        /// Device the flow was pinned to.
        dev: u32,
    },
}

impl TraceEvent {
    /// Stable kind label — the key of
    /// [`FlightRecorder::counts_by_kind`] (which the sweeps' trace
    /// requirements read) and of the exporters.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::IrqDelivered { .. } => "irq_delivered",
            TraceEvent::IrqMasked { .. } => "irq_masked",
            TraceEvent::NapiEnter { .. } => "napi_enter",
            TraceEvent::NapiPoll { .. } => "napi_poll",
            TraceEvent::NapiComplete { .. } => "napi_complete",
            TraceEvent::ItrRetune { .. } => "itr_retune",
            TraceEvent::DrrGrant { .. } => "drr_grant",
            TraceEvent::FrameDrop { fate, .. } => fate.label(),
            TraceEvent::UpcallEnqueue { .. } => "upcall_enqueue",
            TraceEvent::UpcallFlush { .. } => "upcall_flush",
            TraceEvent::UpcallCompletion { .. } => "upcall_completion",
            TraceEvent::GrantCacheHit { .. } => "grant_cache_hit",
            TraceEvent::GrantCacheMiss { .. } => "grant_cache_miss",
            TraceEvent::GrantCacheEvict { .. } => "grant_cache_evict",
            TraceEvent::GrantCacheRevoke { .. } => "grant_cache_revoke",
            TraceEvent::TimerFire { .. } => "timer_fire",
            TraceEvent::SoftirqDispatch { .. } => "softirq_dispatch",
            TraceEvent::KernelCall { .. } => "kernel_call",
            TraceEvent::FaultDetected { .. } => "fault_detected",
            TraceEvent::QuarantineEnter { .. } => "quarantine_enter",
            TraceEvent::QuarantineExit { .. } => "quarantine_exit",
            TraceEvent::DeviceReset { .. } => "device_reset",
            TraceEvent::InflightAccounted { .. } => "inflight_accounted",
            TraceEvent::VcpuRun { .. } => "vcpu_run",
            TraceEvent::VcpuSleep { .. } => "vcpu_sleep",
            TraceEvent::AffinityPlace { .. } => "affinity_place",
        }
    }

    /// The domain the event is about, for the kinds that name one (a
    /// guest, or a grant's owner): the meter's per-domain split and the
    /// exporters' guest lanes both read it here.
    pub fn domain(&self) -> Option<u32> {
        use TraceEvent as T;
        match *self {
            T::FrameDrop { guest, .. } => guest,
            T::DrrGrant { guest, .. } | T::AffinityPlace { guest, .. } => Some(guest),
            T::VcpuRun { guest, .. } | T::VcpuSleep { guest, .. } => Some(guest),
            T::GrantCacheHit { dom, .. } | T::GrantCacheMiss { dom, .. } => Some(dom),
            T::GrantCacheEvict { dom, .. } | T::GrantCacheRevoke { dom, .. } => Some(dom),
            _ => None,
        }
    }
}

/// One recorded event: a monotone sequence number, the virtual-clock
/// stamp, the cost domain current at the emission site, and the payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotone per-recorder sequence number (never reused, so a stream
    /// that lost its oldest entries to eviction is still well-formed).
    pub seq: u64,
    /// Virtual clock at emission, in cycles.
    pub at: u64,
    /// Cost-domain label current at the emission site (`dom0`, `domU`,
    /// `Xen`, `e1000`).
    pub domain: &'static str,
    /// The payload.
    pub event: TraceEvent,
}

/// A bounded ring buffer of [`TraceRecord`]s. Disabled by default;
/// recording while disabled is a single branch. At capacity the oldest
/// record is evicted and counted in [`FlightRecorder::dropped`] — the
/// stream stays well-formed (monotone `seq` and `at`) with a visible gap
/// instead of growing without bound.
///
/// The recorder never touches the cycle meter: all stamps are taken by
/// the caller *reading* the clock, so a traced run charges exactly what
/// an untraced run charges.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    enabled: bool,
    capacity: usize,
    ring: VecDeque<TraceRecord>,
    next_seq: u64,
    dropped: u64,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// Default ring capacity (records).
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates a disabled recorder with the default capacity.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(FlightRecorder::DEFAULT_CAPACITY)
    }

    /// Creates a disabled recorder holding at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            enabled: false,
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off. Off discards nothing already held.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Resizes the ring, evicting oldest records if shrinking below the
    /// current length.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.ring.len() > self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event stamped `at` cycles in `domain`. No-op while
    /// disabled. Evicts the oldest record at capacity.
    pub fn record(&mut self, at: u64, domain: &'static str, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceRecord {
            seq: self.next_seq,
            at,
            domain,
            event,
        });
        self.next_seq += 1;
    }

    /// The held records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Held record count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Records evicted at capacity — surfaced in the metrics registry so
    /// a truncated stream is never mistaken for a complete one.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Event counts by kind over the held records.
    pub fn counts_by_kind(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for r in &self.ring {
            *out.entry(r.event.kind()).or_insert(0) += 1;
        }
        out
    }

    /// Drops every held record; `seq` and the dropped counter keep
    /// counting (clearing is a measurement boundary, not a replay
    /// point).
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

/// The Table 1 call-name trace: which support routines the driver calls
/// in which harness phase. It lives beside the flight recorder so call
/// tracing is one mechanism — the site that `record`s a call also notes
/// [`TraceEvent::KernelCall`] with the same routine and phase.
#[derive(Clone, Debug, Default)]
pub struct CallTrace {
    /// Current phase label (`"init"`, `"config"`, `"fastpath"`).
    pub phase: &'static str,
    /// Whether recording is enabled.
    pub enabled: bool,
    calls: BTreeMap<String, BTreeSet<&'static str>>,
}

impl CallTrace {
    /// Creates a disabled trace in phase `"init"`.
    pub fn new() -> CallTrace {
        CallTrace {
            phase: "init",
            enabled: false,
            calls: BTreeMap::new(),
        }
    }

    /// Records a call to `name` in the current phase.
    pub fn record(&mut self, name: &str) {
        if self.enabled {
            self.calls
                .entry(name.to_string())
                .or_default()
                .insert(self.phase);
        }
    }

    /// Routines observed in a given phase.
    pub fn names_in_phase(&self, phase: &str) -> BTreeSet<String> {
        self.calls
            .iter()
            .filter(|(_, phases)| phases.contains(&phase))
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// All distinct routines observed.
    pub fn all_names(&self) -> BTreeSet<String> {
        self.calls.keys().cloned().collect()
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A bounded uniform sample reservoir (Vitter's Algorithm R) with a
/// deterministic in-struct LCG, so long runs keep O(capacity) memory and
/// identical inputs always produce identical contents. Below capacity
/// every pushed value is retained, making percentiles exact — the regime
/// every committed sweep and test operates in.
#[derive(Clone, Debug)]
pub struct SampleReservoir {
    cap: usize,
    seen: u64,
    rng: u64,
    samples: Vec<u64>,
}

impl SampleReservoir {
    /// Creates an empty reservoir holding at most `cap` samples.
    pub fn new(cap: usize) -> SampleReservoir {
        SampleReservoir {
            cap: cap.max(1),
            seen: 0,
            rng: 0x5DEE_CE66_D569_3A53,
            samples: Vec::new(),
        }
    }

    /// Offers one sample; below capacity it is always kept, beyond it
    /// replaces a uniformly chosen held sample with probability
    /// `cap / seen` (Algorithm R).
    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            if self.samples.is_empty() {
                self.samples.reserve_exact(self.cap);
            }
            self.samples.push(v);
            return;
        }
        self.rng = self
            .rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (self.rng >> 16) % self.seen;
        if (j as usize) < self.cap {
            self.samples[j as usize] = v;
        }
    }

    /// The held samples (unordered).
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Total samples offered since the last clear.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Held sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Drops every sample and restarts the window (the RNG state is
    /// deliberately kept: clearing is a measurement boundary, not a
    /// replay point).
    pub fn clear(&mut self) {
        self.samples.clear();
        self.seen = 0;
    }
}

/// Nearest-rank summary of one histogram in a [`MetricSet`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples summarized.
    pub count: u64,
    /// Nearest-rank median.
    pub p50: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistogramSummary {
    /// Summarizes `samples` (any order).
    pub fn from_samples(samples: &[u64]) -> HistogramSummary {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        HistogramSummary {
            count: sorted.len() as u64,
            p50: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
            max: sorted.last().copied().unwrap_or(0),
        }
    }
}

/// The unified metrics registry: one flat, sorted namespace of counters
/// plus histogram summaries, with a snapshot/delta API. `System::metrics`
/// gathers the cycle meter, `NicStats`, the grant and upcall statistics,
/// per-guest drop counters and the recorder's own drop counter into one
/// of these. Its counters are monotone, so consumers take two snapshots
/// and subtract.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSet {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricSet {
    /// Creates an empty set.
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// Sets counter `name` to `v`.
    pub fn set(&mut self, name: impl Into<String>, v: u64) {
        self.counters.insert(name.into(), v);
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Counters whose name starts with `prefix`, sorted.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> {
        self.counters
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// Attaches a histogram summary under `name`.
    pub fn set_histogram(&mut self, name: impl Into<String>, h: HistogramSummary) {
        self.histograms.insert(name.into(), h);
    }

    /// Summarizes `samples` and attaches the result under `name`.
    pub fn record_samples(&mut self, name: impl Into<String>, samples: &[u64]) {
        self.set_histogram(name, HistogramSummary::from_samples(samples));
    }

    /// Histogram summary (empty when absent).
    pub fn histogram(&self, name: &str) -> HistogramSummary {
        self.histograms.get(name).copied().unwrap_or_default()
    }

    /// All histogram summaries, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, HistogramSummary)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Counter change since an `earlier` snapshot: `self − earlier`
    /// saturating per counter (counters absent earlier read as 0).
    /// Histogram summaries are **window-scoped**, not subtractable — the
    /// delta carries the later snapshot's summaries unchanged.
    pub fn delta_since(&self, earlier: &MetricSet) -> MetricSet {
        let mut counters = BTreeMap::new();
        for (k, v) in &self.counters {
            counters.insert(k.clone(), v.saturating_sub(earlier.counter(k)));
        }
        MetricSet {
            counters,
            histograms: self.histograms.clone(),
        }
    }

    /// Flat JSON dump: `{"counters": {...}, "histograms": {...}}`, keys
    /// sorted (deterministic byte-for-byte for identical sets).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{}\": {}", export::escape_json(k), v));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}}",
                export::escape_json(k),
                h.count,
                h.p50,
                h.p99,
                h.max
            ));
        }
        s.push_str("\n  }\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(dev: u32) -> TraceEvent {
        TraceEvent::IrqDelivered { dev }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = FlightRecorder::new();
        r.record(10, "Xen", ev(0));
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 0);
        r.set_enabled(true);
        r.record(10, "Xen", ev(0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.recorded(), 1);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn overflow_evicts_oldest_and_keeps_stream_well_formed() {
        let mut r = FlightRecorder::with_capacity(4);
        r.set_enabled(true);
        for i in 0..10u64 {
            r.record(100 * i, "Xen", ev(i as u32));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.recorded(), 10);
        let recs: Vec<&TraceRecord> = r.records().collect();
        // Oldest evicted: the survivors are the newest four, in order,
        // with monotone seq and clock.
        assert_eq!(recs[0].seq, 6);
        assert!(recs.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert!(recs.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn shrinking_capacity_evicts_and_counts() {
        let mut r = FlightRecorder::with_capacity(8);
        r.set_enabled(true);
        for i in 0..8u64 {
            r.record(i, "dom0", ev(0));
        }
        r.set_capacity(3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 5);
        assert_eq!(r.records().next().unwrap().seq, 5);
    }

    #[test]
    fn counts_by_kind_counts_held_records() {
        let mut r = FlightRecorder::new();
        r.set_enabled(true);
        r.record(1, "Xen", ev(0));
        r.record(2, "Xen", ev(1));
        r.record(
            3,
            "Xen",
            TraceEvent::FrameDrop {
                fate: Fate::EarlyDrop,
                guest: Some(2),
                frame: Some((1, 0)),
            },
        );
        let c = r.counts_by_kind();
        assert_eq!(c.get("irq_delivered"), Some(&2));
        assert_eq!(c.get("early_drop"), Some(&1));
    }

    #[test]
    fn call_trace_phases() {
        let mut t = CallTrace::new();
        t.enabled = true;
        t.phase = "init";
        t.record("kmalloc");
        t.phase = "fastpath";
        t.record("netif_rx");
        t.record("kmalloc");
        assert_eq!(t.names_in_phase("fastpath").len(), 2);
        assert_eq!(t.all_names().len(), 2);
        assert!(t.names_in_phase("init").contains("kmalloc"));
    }

    #[test]
    fn metric_delta_saturates_and_keeps_new_counters() {
        let mut a = MetricSet::new();
        a.set("x", 10);
        a.set("gone", 5);
        let mut b = MetricSet::new();
        b.set("x", 17);
        b.set("fresh", 3);
        let d = b.delta_since(&a);
        assert_eq!(d.counter("x"), 7);
        assert_eq!(d.counter("fresh"), 3);
        assert_eq!(d.counter("gone"), 0, "absent later: no delta entry");
    }

    #[test]
    fn metric_histograms_are_nearest_rank() {
        let mut m = MetricSet::new();
        m.record_samples("lat", &[5, 1, 3, 2, 4]);
        let h = m.histogram("lat");
        assert_eq!(h.count, 5);
        assert_eq!(h.p50, 3);
        assert_eq!(h.p99, 5);
        assert_eq!(h.max, 5);
        assert_eq!(m.histogram("missing"), HistogramSummary::default());
    }

    #[test]
    fn metric_json_is_deterministic_and_sorted() {
        let mut m = MetricSet::new();
        m.set("b.two", 2);
        m.set("a.one", 1);
        m.record_samples("lat", &[7]);
        let j = m.to_json();
        assert_eq!(j, m.clone().to_json());
        let a = j.find("a.one").unwrap();
        let b = j.find("b.two").unwrap();
        assert!(a < b, "keys sorted");
        assert!(j.contains("\"p99\": 7"));
    }

    #[test]
    fn prefix_query() {
        let mut m = MetricSet::new();
        m.set("nic0.rx", 1);
        m.set("nic1.rx", 2);
        m.set("guest2.drops", 3);
        let nics: Vec<(&str, u64)> = m.counters_with_prefix("nic").collect();
        assert_eq!(nics.len(), 2);
        assert_eq!(nics[0], ("nic0.rx", 1));
    }

    #[test]
    fn reservoir_below_capacity_is_exact() {
        let mut r = SampleReservoir::new(8);
        for v in [4u64, 1, 3, 2] {
            r.push(v);
        }
        assert_eq!(r.samples(), &[4, 1, 3, 2]);
        assert_eq!(r.seen(), 4);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.seen(), 0);
    }

    #[test]
    fn reservoir_is_deterministic_past_capacity() {
        let run = || {
            let mut r = SampleReservoir::new(16);
            for v in 0..1000u64 {
                r.push(v);
            }
            r.samples().to_vec()
        };
        assert_eq!(run(), run());
        assert_eq!(run().len(), 16);
        // Bounded at capacity, every offer counted, and still a subset
        // of what was pushed.
        assert!(run().iter().all(|&v| v < 1000));
        let mut r = SampleReservoir::new(16);
        (0..1000u64).for_each(|v| r.push(v));
        assert_eq!((r.len(), r.seen()), (16, 1000));
    }

    #[test]
    fn reservoir_spreads_over_the_whole_stream() {
        // A uniform reservoir over a long stream must keep samples from
        // early, middle and late thirds — a head-only or tail-only cap
        // would skew the percentiles a long paced run reports.
        let n = 300_000u64;
        let mut r = SampleReservoir::new(1024);
        for v in 0..n {
            r.push(v);
        }
        let third = |lo: u64, hi: u64| r.samples().iter().filter(|&&v| v >= lo && v < hi).count();
        let (a, b, c) = (
            third(0, n / 3),
            third(n / 3, 2 * n / 3),
            third(2 * n / 3, n),
        );
        assert_eq!(a + b + c, 1024);
        for (name, k) in [("early", a), ("middle", b), ("late", c)] {
            assert!(
                (170..=512).contains(&k),
                "{name} third holds {k} of 1024 samples"
            );
        }
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        let one = [42u64];
        assert_eq!(percentile(&one, 50.0), 42);
        assert_eq!(percentile(&one, 99.0), 42);
    }
}
