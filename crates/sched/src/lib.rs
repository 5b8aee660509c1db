//! # twin-sched — a vCPU run/sleep model on the virtual clock
//!
//! TwinDrivers' performance argument rests on keeping the hypervisor
//! driver's working set hot: the cost model charges domain-switch
//! cache-refill taxes, but placement is only *cache-local* if the NIC
//! whose softirq services a guest's flows runs on the same physical CPU
//! the guest's vCPU occupies. This crate models the missing half: a
//! deterministic guest scheduler on the same virtual cycle counter as
//! everything else.
//!
//! * Each guest gets one vCPU, pinned to one of [`CPUS`] physical CPUs
//!   for the whole run (the paper pins one netperf guest per NIC and
//!   never migrates, §5), with a periodic run/sleep schedule whose
//!   transitions are armed as [`TimerQueue`] virtual timers — the queue
//!   the dom0 kernel uses, so expiry is cycle-accurate.
//! * A static CPU ↔ NIC-softirq topology map (`dev % CPUS`) tells
//!   placement which NIC is *local* to a guest's vCPU.
//!
//! The model is deliberately open-loop: schedules are fixed duty cycles,
//! not load-driven, so every experiment is reproducible and the system
//! under test cannot perturb its own schedule. Guests without a vCPU
//! registered are treated as always running — the scheduler is strictly
//! opt-in and absent by default.

use std::collections::BTreeMap;

use twin_kernel::{Timer, TimerQueue};

/// Physical CPUs the model has; device `dev`'s softirq runs on CPU
/// `dev % CPUS`.
pub const CPUS: u32 = 4;

/// One guest's modelled vCPU.
#[derive(Clone, Debug)]
struct Vcpu {
    cpu: u32,
    running: bool,
    /// Length of one run interval in cycles (0 = never runs).
    run_cycles: u64,
    /// Length of one sleep interval in cycles (0 = never sleeps).
    sleep_cycles: u64,
    /// When the current run/sleep interval began.
    state_since: u64,
    /// Completed run-interval cycles (current interval excluded).
    run_accum: u64,
    /// Run intervals begun (== wakeups observed).
    wakes: u64,
    /// Sleep intervals begun.
    sleeps: u64,
}

/// One scheduler state change, reported by [`VcpuSched::advance`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Transition {
    pub guest: u32,
    /// Virtual cycle the transition took effect (the armed expiry, not
    /// the possibly-later cycle `advance` was called at).
    pub at: u64,
    /// `true` when the vCPU just woke, `false` when it went to sleep.
    pub now_running: bool,
}

/// Point-in-time view of one vCPU, for metrics export.
#[derive(Copy, Clone, Debug)]
pub struct VcpuStats {
    pub cpu: u32,
    pub running: bool,
    /// Total cycles spent running up to the query instant.
    pub run_cycles: u64,
    pub wakes: u64,
    pub sleeps: u64,
}

/// The scheduler model: vCPUs and their transition timers.
#[derive(Clone, Debug, Default)]
pub struct VcpuSched {
    vcpus: BTreeMap<u32, Vcpu>,
    /// Run/sleep transitions, one per vCPU with a non-degenerate
    /// schedule. `data` carries the guest id; `handler` is unused (this
    /// queue never dispatches into ISA code).
    timers: TimerQueue,
}

impl VcpuSched {
    /// Registers a vCPU for `guest` on CPU `cpu % CPUS` with a periodic
    /// `run_cycles`-on / `sleep_cycles`-off schedule starting (running)
    /// at `now`. A zero `sleep_cycles` means the vCPU never sleeps; a
    /// zero `run_cycles` (with non-zero sleep) means it never runs.
    /// Either degenerate schedule arms no timer. Returns `false`, and
    /// changes nothing, when `guest` already has a vCPU.
    pub fn add_vcpu(
        &mut self,
        guest: u32,
        cpu: u32,
        run_cycles: u64,
        sleep_cycles: u64,
        now: u64,
    ) -> bool {
        if self.vcpus.contains_key(&guest) {
            return false;
        }
        let running = sleep_cycles == 0 || run_cycles > 0;
        let vcpu = Vcpu {
            cpu: cpu % CPUS,
            running,
            run_cycles,
            sleep_cycles,
            state_since: now,
            run_accum: 0,
            wakes: u64::from(running),
            sleeps: u64::from(!running),
        };
        if run_cycles > 0 && sleep_cycles > 0 {
            self.timers.arm(Timer {
                handler: 0,
                expires_at: now + if running { run_cycles } else { sleep_cycles },
                data: u64::from(guest),
            });
        }
        self.vcpus.insert(guest, vcpu);
        true
    }

    /// Expires every transition due at `now` and applies it, keeping
    /// the schedule phase-locked to the armed expiry (a late `advance`
    /// never skews subsequent intervals). Returns the transitions in
    /// expiry order.
    pub fn advance(&mut self, now: u64) -> Vec<Transition> {
        let mut out = Vec::new();
        loop {
            let due = self.timers.expire(now);
            if due.is_empty() {
                return out;
            }
            for t in due {
                let guest = t.data as u32;
                let Some(v) = self.vcpus.get_mut(&guest) else {
                    continue;
                };
                if v.running {
                    // Run interval over: account it and go to sleep.
                    v.run_accum += t.expires_at.saturating_sub(v.state_since);
                    v.sleeps += 1;
                } else {
                    v.wakes += 1;
                }
                v.running = !v.running;
                v.state_since = t.expires_at;
                let next = if v.running {
                    v.run_cycles
                } else {
                    v.sleep_cycles
                };
                self.timers.arm(Timer {
                    handler: 0,
                    expires_at: t.expires_at + next,
                    data: u64::from(guest),
                });
                out.push(Transition {
                    guest,
                    at: t.expires_at,
                    now_running: v.running,
                });
            }
        }
    }

    /// Whether `guest`'s vCPU is running. Guests with no registered
    /// vCPU are always running — the model is opt-in.
    pub fn is_running(&self, guest: u32) -> bool {
        self.vcpus.get(&guest).map_or(true, |v| v.running)
    }

    /// The physical CPU `guest`'s vCPU is pinned to.
    pub fn cpu_of(&self, guest: u32) -> Option<u32> {
        self.vcpus.get(&guest).map(|v| v.cpu)
    }

    /// The physical CPU that runs device `dev`'s softirq.
    pub fn nic_cpu(&self, dev: u32) -> u32 {
        dev % CPUS
    }

    /// Earliest armed transition across every vCPU — joined into the
    /// system's `next_virtual_event` so idle stepping lands exactly on
    /// scheduler edges.
    pub fn next_event(&self) -> Option<u64> {
        self.timers.next_due()
    }

    /// True when some vCPU on `cpu` is running.
    pub fn cpu_has_running(&self, cpu: u32) -> bool {
        self.vcpus.values().any(|v| v.cpu == cpu && v.running)
    }

    /// True when `cpu` hosts a registered vCPU (used to decide whether
    /// no running vCPU there means "idle CPU" or "no model").
    pub fn cpu_has_vcpus(&self, cpu: u32) -> bool {
        self.vcpus.values().any(|v| v.cpu == cpu)
    }

    /// Guest ids with a registered vCPU.
    pub fn guests(&self) -> impl Iterator<Item = u32> + '_ {
        self.vcpus.keys().copied()
    }

    /// Metrics snapshot for one vCPU at virtual cycle `now`.
    pub fn stats(&self, guest: u32, now: u64) -> Option<VcpuStats> {
        self.vcpus.get(&guest).map(|v| VcpuStats {
            cpu: v.cpu,
            running: v.running,
            run_cycles: v.run_accum
                + if v.running {
                    now.saturating_sub(v.state_since)
                } else {
                    0
                },
            wakes: v.wakes,
            sleeps: v.sleeps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(run: u64, sleep: u64) -> VcpuSched {
        let mut s = VcpuSched::default();
        assert!(s.add_vcpu(7, 1, run, sleep, 0));
        s
    }

    #[test]
    fn duty_cycle_alternates_phase_locked() {
        let mut s = sched(10_000, 30_000);
        assert!(s.is_running(7));
        assert_eq!(s.next_event(), Some(10_000));
        // Advance far past several transitions in one late call: the
        // schedule stays locked to the armed expiries.
        let ts = s.advance(85_000);
        let edges: Vec<(u64, bool)> = ts.iter().map(|t| (t.at, t.now_running)).collect();
        assert_eq!(
            edges,
            vec![
                (10_000, false),
                (40_000, true),
                (50_000, false),
                (80_000, true)
            ]
        );
        assert!(s.is_running(7));
        let st = s.stats(7, 85_000).unwrap();
        assert_eq!(st.run_cycles, 10_000 + 10_000 + 5_000);
        assert_eq!(st.wakes, 3);
        assert_eq!(st.sleeps, 2);
    }

    #[test]
    fn run_queue_tracks_state_and_unknown_guests_run() {
        let mut s = sched(10_000, 10_000);
        assert!(s.cpu_has_running(1));
        assert!(!s.cpu_has_running(0));
        s.advance(10_000);
        assert!(!s.cpu_has_running(1));
        assert!(s.cpu_has_vcpus(1));
        assert_eq!(s.next_event(), Some(20_000));
        assert!(s.is_running(99)); // no vCPU registered
        assert_eq!(s.cpu_of(99), None);
    }

    #[test]
    fn topology_defaults_and_overrides() {
        // The map is `dev % CPUS`; a vCPU's CPU is taken modulo `CPUS`
        // too.
        let mut s = VcpuSched::default();
        assert_eq!(s.nic_cpu(5), 1);
        assert!(s.add_vcpu(1, 6, 1_000, 0, 0));
        assert_eq!(s.cpu_of(1), Some(2));
    }

    #[test]
    fn degenerate_schedules_arm_no_timer() {
        let mut s = VcpuSched::default();
        assert!(s.add_vcpu(1, 0, 5_000, 0, 0)); // never sleeps
        assert!(s.add_vcpu(2, 0, 0, 5_000, 0)); // never runs
        assert!(s.is_running(1));
        assert!(!s.is_running(2));
        assert_eq!(s.next_event(), None);
        assert!(s.advance(1_000_000).is_empty());
        // A second registration is refused and arms nothing.
        assert!(!s.add_vcpu(2, 1, 1_000, 1_000, 0));
        assert_eq!((s.cpu_of(2), s.next_event()), (Some(0), None));
    }
}
