//! The deferred-upcall engine: a per-device-driver ring of queued dom0
//! upcalls with completions and continuations.
//!
//! The paper's upcall path (§4.2) pays two domain switches per *call* —
//! Figure 10 shows transmit throughput collapsing from 3902 to 359 Mb/s
//! as fast-path routines are forced onto it. With the burst pipeline in
//! place, most forced upcalls do not need their result immediately:
//! frees, unmaps and unlocks are fire-and-forget, and DMA mapping is a
//! deterministic translation the hypervisor can compute locally. This
//! engine queues such calls as `(routine, saved parameters, continuation
//! id)` records and batch-executes the whole ring in **one** switch-pair
//! at the next natural dom0 scheduling point (end of a burst pass, a
//! queue-full forced flush, or a timeout kick), amortizing the two
//! switches per *flush* instead of per *call* — the same restructuring
//! that batching applied to interrupts, and the transition-batching idea
//! of software-only passthrough (arXiv:1508.06367).
//!
//! Routines whose results are consumed inline and only dom0 can produce
//! (buffer allocation, stack delivery) instead **suspend the burst via a
//! continuation**: the ring drains FIFO with the suspending call last,
//! and the caller resumes with that routine's dom0 return value, which is
//! posted back — like every completion — through the event channel. The
//! per-routine choice is the [`twin_kernel::DeferClass`] column of
//! [`twin_kernel::ROUTINES`].
//!
//! The engine is pure bookkeeping: costs, domain switches and the actual
//! dom0 execution are driven by [`crate::support::HyperSupport`], which
//! owns an engine instance.

use std::collections::VecDeque;
use twin_kernel::RoutineId;

/// Event-channel port on which batched completions are posted back to the
/// interrupted context ([`crate::support::UPCALL_PORT`] carries the
/// requests).
pub const UPCALL_COMPLETION_PORT: u32 = 32;

/// Whether upcalls execute synchronously (the paper's §4.2 path, exact)
/// or through the deferred ring.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum UpcallMode {
    /// Every upcall switches to dom0 and back, per call (default; the
    /// PR 2 path, cycle-exact).
    #[default]
    Sync,
    /// Upcalls are queued per their [`twin_kernel::DeferClass`] policy
    /// and batch-executed at flush points.
    Deferred,
}

/// One queued upcall: the routine, its saved stack parameters and the
/// continuation id its completion will carry.
#[derive(Clone, Debug)]
pub struct QueuedUpcall {
    /// The support routine.
    pub routine: RoutineId,
    /// Saved stack arguments (cdecl order).
    pub args: Vec<u32>,
    /// Continuation id; completions are matched on it.
    pub cont_id: u64,
    /// Virtual time (`CycleMeter::now`) at enqueue (latency accounting).
    pub enqueued_cycles: u64,
}

/// One completion: the routine's dom0 return value, posted back through
/// the event channel after a flush executed the queued call.
#[derive(Clone, Debug)]
pub struct Completion {
    /// Continuation id of the request this completes.
    pub cont_id: u64,
    /// Routine that ran.
    pub routine: RoutineId,
    /// dom0 return value.
    pub ret: u32,
}

/// Engine statistics the meter does not count. Enqueues, flushes and
/// completions are the meter's payments of their `Term::Upcall*` rows,
/// forced flushes and continuations its `Event::Upcall*` rows, each
/// counted where [`crate::support::HyperSupport`] does the work.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct UpcallStats {
    /// Deepest the ring has been.
    pub max_depth: usize,
}

/// The deferred-upcall ring plus completion store. Requests are FIFO;
/// completions stay available until consumed with
/// [`UpcallEngine::take_completion`].
#[derive(Clone, Debug)]
pub struct UpcallEngine {
    /// Execution mode.
    pub mode: UpcallMode,
    /// Statistics.
    pub stats: UpcallStats,
    capacity: usize,
    queue: VecDeque<QueuedUpcall>,
    completions: Vec<Completion>,
    next_cont_id: u64,
    /// Deadline-driven flush configuration: when set, the first enqueue
    /// into an empty ring arms a virtual timer `deadline_cycles` ahead,
    /// so an *idle* system's queued upcalls still complete in bounded
    /// time (the burst-pass flush points only fire while traffic flows).
    deadline_cycles: Option<u64>,
    /// Virtual cycle at which the armed deadline fires; cleared by the
    /// drain of any flush (whoever flushes first disarms it).
    flush_due_at: Option<u64>,
    /// Cycles-to-completion per upcall (completion minus enqueue), for
    /// the latency-percentile measurement. Synchronous upcalls also
    /// record their (short) latency here.
    latency: Vec<u64>,
}

impl Default for UpcallEngine {
    fn default() -> UpcallEngine {
        UpcallEngine::new()
    }
}

impl UpcallEngine {
    /// Default ring capacity (entries); bounded by the mapped ring pages
    /// ([`crate::hyperdrv::UPCALL_RING_SLOTS`]).
    pub const DEFAULT_CAPACITY: usize = 128;

    /// Creates a synchronous-mode engine with the default capacity.
    pub fn new() -> UpcallEngine {
        UpcallEngine {
            mode: UpcallMode::Sync,
            stats: UpcallStats::default(),
            capacity: UpcallEngine::DEFAULT_CAPACITY,
            queue: VecDeque::new(),
            completions: Vec::new(),
            next_cont_id: 1,
            deadline_cycles: None,
            flush_due_at: None,
            latency: Vec::new(),
        }
    }

    /// Configures the deadline-driven flush: `Some(cycles)` arms a
    /// virtual timer at the first enqueue into an empty ring; `None`
    /// (the default) disables it.
    pub fn set_flush_deadline(&mut self, cycles: Option<u64>) {
        self.deadline_cycles = cycles;
    }

    /// The configured flush deadline in cycles, if any.
    pub fn flush_deadline(&self) -> Option<u64> {
        self.deadline_cycles
    }

    /// The armed deadline's absolute fire time, if a deadline is pending.
    pub fn flush_due_at(&self) -> Option<u64> {
        self.flush_due_at
    }

    /// True when the armed flush deadline has elapsed at virtual time
    /// `now` (and queued work is still pending).
    pub fn flush_due(&self, now: u64) -> bool {
        matches!(self.flush_due_at, Some(t) if now >= t && !self.queue.is_empty())
    }

    /// Selects the execution mode.
    pub fn set_mode(&mut self, mode: UpcallMode) {
        self.mode = mode;
    }

    /// True when the deferred path is active.
    pub fn deferred(&self) -> bool {
        self.mode == UpcallMode::Deferred
    }

    /// Sets the ring capacity (≥ 1; enqueueing at capacity forces a
    /// flush first).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queued (unflushed) upcalls.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// True when the next enqueue would exceed capacity.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// True when the ring has crossed the softirq high-water mark
    /// (three quarters full): a flush kick should be scheduled so queued
    /// calls do not wait arbitrarily long for the next natural point.
    pub fn past_high_water(&self) -> bool {
        self.queue.len() * 4 >= self.capacity * 3
    }

    /// Appends a request and returns its continuation id. The caller
    /// (support layer) is responsible for flushing first when
    /// [`UpcallEngine::is_full`].
    ///
    /// # Panics
    ///
    /// Panics if `routine` is not a [`twin_kernel::ROUTINES`] row: only
    /// routines dom0 implements can be queued for it.
    pub fn enqueue(&mut self, routine: &str, args: Vec<u32>, now_cycles: u64) -> u64 {
        let id = RoutineId::lookup(routine).expect("enqueue: not a dom0 support routine");
        self.enqueue_id(id, args, now_cycles)
    }

    /// [`UpcallEngine::enqueue`] for a caller that already resolved the
    /// name (every extern crossing has).
    pub(crate) fn enqueue_id(
        &mut self,
        routine: RoutineId,
        args: Vec<u32>,
        now_cycles: u64,
    ) -> u64 {
        debug_assert!(args.len() <= 4, "a ring slot saves four arguments");
        if self.queue.is_empty() {
            // First enqueue into an empty ring: arm the flush deadline so
            // queued work completes in bounded time even if no burst-pass
            // flush point ever arrives (idle system).
            self.flush_due_at = self.deadline_cycles.map(|d| now_cycles + d);
        }
        // Issued once per enqueue from 1, so `cont_id - 1` numbers the
        // enqueues (the request ring's slot).
        let cont_id = self.next_cont_id;
        self.next_cont_id += 1;
        self.queue.push_back(QueuedUpcall {
            routine,
            args,
            cont_id,
            enqueued_cycles: now_cycles,
        });
        self.stats.max_depth = self.stats.max_depth.max(self.queue.len());
        cont_id
    }

    /// Drains the ring FIFO; disarms any pending flush deadline (nothing
    /// is left for it to bound).
    pub fn drain(&mut self) -> Vec<QueuedUpcall> {
        self.flush_due_at = None;
        std::mem::take(&mut self.queue).into()
    }

    /// Takes the oldest queued upcall for execution. A flush pops entry by
    /// entry, so one that stops at a routine fault leaves the unexecuted
    /// tail queued, in order, for teardown to replay or count; emptying
    /// the ring disarms the flush deadline (the flush satisfied it,
    /// whoever triggered it).
    pub(crate) fn pop_front(&mut self) -> Option<QueuedUpcall> {
        let entry = self.queue.pop_front();
        if self.queue.is_empty() {
            self.flush_due_at = None;
        }
        entry
    }

    /// True when any queued routine is in `names` (the conflict check for
    /// native fast-path execution; most routines wait for none).
    pub fn has_queued_any(&self, names: &[&str]) -> bool {
        !names.is_empty() && self.queue.iter().any(|q| names.contains(&q.routine.name()))
    }

    /// Records the completion of a flushed entry and its
    /// cycles-to-completion sample.
    pub fn complete(&mut self, entry: &QueuedUpcall, ret: u32, now_cycles: u64) {
        self.completions.push(Completion {
            cont_id: entry.cont_id,
            routine: entry.routine,
            ret,
        });
        self.latency
            .push(now_cycles.saturating_sub(entry.enqueued_cycles));
    }

    /// Consumes the completion for a continuation id, if posted.
    pub fn take_completion(&mut self, cont_id: u64) -> Option<Completion> {
        let i = self.completions.iter().position(|c| c.cont_id == cont_id)?;
        Some(self.completions.remove(i))
    }

    /// Drops completion records left over from earlier flushes. Waiters
    /// (continuation suspensions, the batched-alloc glue) always consume
    /// their completions right after the flush that posts them, so
    /// anything still unclaimed when the next flush begins has no waiter
    /// — pruning keeps the store bounded by one flush's entries instead
    /// of growing for the system's lifetime.
    pub fn prune_stale_completions(&mut self) {
        self.completions.clear();
    }

    /// Completions posted but not yet consumed.
    pub fn pending_completions(&self) -> usize {
        self.completions.len()
    }

    /// Records a synchronous upcall's latency sample.
    pub fn record_sync_latency(&mut self, cycles: u64) {
        self.latency.push(cycles);
    }

    /// Cycles-to-completion samples collected so far.
    pub fn latency_samples(&self) -> &[u64] {
        &self.latency
    }

    /// Clears the latency samples. A histogram cannot be differenced, so
    /// a measurement window clears it when it opens.
    pub fn clear_latency(&mut self) {
        self.latency.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enqueue_assigns_monotonic_continuation_ids() {
        let mut e = UpcallEngine::new();
        let a = e.enqueue("dev_kfree_skb_any", vec![1], 10);
        let b = e.enqueue("dev_kfree_skb_any", vec![2], 20);
        assert!(b > a);
        assert_eq!(e.depth(), 2);
        let drained = e.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].cont_id, a, "FIFO");
        assert_eq!(e.depth(), 0);
    }

    #[test]
    fn completions_match_by_continuation_id() {
        let mut e = UpcallEngine::new();
        let a = e.enqueue("dma_unmap_single", vec![0x100, 64], 5);
        let b = e.enqueue("dma_unmap_single", vec![0x200, 64], 6);
        for q in e.drain() {
            let ret = q.args[0];
            e.complete(&q, ret, 1000);
        }
        assert_eq!(e.take_completion(b).unwrap().ret, 0x200);
        assert_eq!(e.take_completion(a).unwrap().ret, 0x100);
        assert!(e.take_completion(a).is_none(), "consumed");
        assert_eq!(e.latency_samples(), &[995, 994]);
    }

    #[test]
    fn capacity_and_high_water() {
        let mut e = UpcallEngine::new();
        e.set_capacity(4);
        assert!(!e.is_full());
        for i in 0..3 {
            e.enqueue("dev_kfree_skb_any", vec![i], 0);
        }
        assert!(e.past_high_water(), "3/4 full");
        assert!(!e.is_full());
        e.enqueue("dev_kfree_skb_any", vec![3], 0);
        assert!(e.is_full());
        assert_eq!(e.stats.max_depth, 4);
    }

    #[test]
    fn stale_completions_prune_at_the_next_flush() {
        let mut e = UpcallEngine::new();
        let a = e.enqueue("dev_kfree_skb_any", vec![1], 0);
        for q in e.drain() {
            e.complete(&q, 0, 100);
        }
        assert_eq!(e.pending_completions(), 1);
        // Next flush begins: unclaimed records have no waiter.
        e.prune_stale_completions();
        assert_eq!(e.pending_completions(), 0);
        assert!(e.take_completion(a).is_none());
        // Latency history survives pruning.
        assert_eq!(e.latency_samples().len(), 1);
    }

    #[test]
    fn flush_deadline_arms_on_first_enqueue_and_disarms_on_drain() {
        let mut e = UpcallEngine::new();
        assert!(e.flush_due_at().is_none(), "no deadline configured");
        e.enqueue("dev_kfree_skb_any", vec![1], 100);
        e.drain();
        e.set_flush_deadline(Some(5_000));
        e.enqueue("dev_kfree_skb_any", vec![1], 1_000);
        assert_eq!(e.flush_due_at(), Some(6_000), "armed at first enqueue");
        // A second enqueue does not re-arm: the deadline bounds the
        // *oldest* queued entry.
        e.enqueue("dev_kfree_skb_any", vec![2], 4_000);
        assert_eq!(e.flush_due_at(), Some(6_000));
        assert!(!e.flush_due(5_999));
        assert!(e.flush_due(6_000));
        e.drain();
        assert!(e.flush_due_at().is_none(), "drain disarms");
        assert!(!e.flush_due(10_000));
        // Next first-enqueue re-arms relative to its own time.
        e.enqueue("dev_kfree_skb_any", vec![3], 20_000);
        assert_eq!(e.flush_due_at(), Some(25_000));
    }

    #[test]
    fn conflict_check_sees_queued_routines() {
        let mut e = UpcallEngine::new();
        e.enqueue("spin_unlock_irqrestore", vec![0x40, 0], 0);
        assert!(e.has_queued_any(&["spin_unlock_irqrestore"]));
        assert!(!e.has_queued_any(&["dev_kfree_skb_any"]));
        e.drain();
        assert!(!e.has_queued_any(&["spin_unlock_irqrestore"]));
    }
}
