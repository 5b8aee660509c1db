//! Exporters: chrome://tracing JSON for the flight recorder, plus the
//! `TWIN_TRACE_OUT` plumbing that `measure_*` and the bench harness use.
//!
//! The chrome format (the Trace Event Format consumed by
//! `chrome://tracing` and Perfetto's legacy loader) wants an object with
//! a `traceEvents` array. We emit:
//!
//! * one **process** per cost domain (`dom0`, `domU`, `Xen`, `e1000`),
//!   in the paper's legend order, named via `"M"` metadata events;
//! * one **thread** per device (tid = device id) or per guest
//!   (tid = 1000 + guest id) inside the emitting domain's process;
//! * `"X"` **complete** events spanning each NAPI enter→complete
//!   episode, so poll-mode residency is visible as a bar;
//! * `"i"` **instant** events for everything punctual — drops, retunes,
//!   DRR grants, flushes, cache traffic — with the payload in `args`.
//!
//! Timestamps are microseconds on the virtual clock at the modeled
//! 3.0 GHz (`cycles / 3000`). Output is deterministic: identical
//! recorders produce byte-identical JSON.

use crate::{FlightRecorder, MetricSet, TraceEvent};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Modeled core frequency in cycles per microsecond (3.0 GHz).
const CYCLES_PER_US: f64 = 3000.0;

/// Fixed process-id assignment: the paper's legend order.
const DOMAIN_PIDS: [(&str, u64); 4] = [("dom0", 1), ("domU", 2), ("Xen", 3), ("e1000", 4)];

fn domain_pid(label: &str) -> u64 {
    DOMAIN_PIDS
        .iter()
        .find(|(l, _)| *l == label)
        .map(|(_, p)| *p)
        .unwrap_or(0)
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn ts_us(cycles: u64) -> String {
    format!("{:.3}", cycles as f64 / CYCLES_PER_US)
}

/// The track a record renders on: tid within its domain's process.
/// Devices own tids 0..1000; guests are offset to 1000+guest so a
/// device and a guest with the same id never share a lane.
fn event_tid(ev: &TraceEvent) -> u64 {
    match ev {
        TraceEvent::IrqDelivered { dev }
        | TraceEvent::IrqMasked { dev }
        | TraceEvent::NapiEnter { dev }
        | TraceEvent::NapiPoll { dev, .. }
        | TraceEvent::NapiComplete { dev }
        | TraceEvent::ItrRetune { dev, .. }
        | TraceEvent::SoftirqDispatch { dev, .. }
        | TraceEvent::FaultDetected { dev, .. }
        | TraceEvent::QuarantineEnter { dev }
        | TraceEvent::QuarantineExit { dev }
        | TraceEvent::DeviceReset { dev }
        | TraceEvent::InflightAccounted { dev, .. } => *dev as u64,
        TraceEvent::DrrGrant { guest, .. }
        | TraceEvent::EarlyDrop { guest }
        | TraceEvent::QueueCapDrop { guest } => 1000 + *guest as u64,
        TraceEvent::GrantCacheHit { dom, .. }
        | TraceEvent::GrantCacheMiss { dom, .. }
        | TraceEvent::GrantCacheEvict { dom, .. }
        | TraceEvent::GrantCacheRevoke { dom, .. } => 1000 + *dom as u64,
        TraceEvent::VcpuRun { guest, .. }
        | TraceEvent::VcpuSleep { guest, .. }
        | TraceEvent::AffinityPlace { guest, .. } => 1000 + *guest as u64,
        TraceEvent::UpcallEnqueue { .. }
        | TraceEvent::UpcallFlush { .. }
        | TraceEvent::UpcallCompletion { .. }
        | TraceEvent::TimerFire { .. }
        | TraceEvent::KernelCall { .. } => 0,
    }
}

fn event_args(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::IrqDelivered { dev }
        | TraceEvent::IrqMasked { dev }
        | TraceEvent::NapiEnter { dev }
        | TraceEvent::NapiComplete { dev } => format!("{{\"dev\": {dev}}}"),
        TraceEvent::NapiPoll { dev, reaped } => {
            format!("{{\"dev\": {dev}, \"reaped\": {reaped}}}")
        }
        TraceEvent::ItrRetune {
            dev,
            old,
            new,
            regime,
        } => format!(
            "{{\"dev\": {dev}, \"old\": {old}, \"new\": {new}, \"regime\": \"{}\"}}",
            escape_json(regime)
        ),
        TraceEvent::DrrGrant {
            guest,
            deficit,
            granted,
        } => format!("{{\"guest\": {guest}, \"deficit\": {deficit}, \"granted\": {granted}}}"),
        TraceEvent::EarlyDrop { guest } | TraceEvent::QueueCapDrop { guest } => {
            format!("{{\"guest\": {guest}}}")
        }
        TraceEvent::UpcallFlush { cause, drained } => format!(
            "{{\"cause\": \"{}\", \"drained\": {drained}}}",
            cause.label()
        ),
        TraceEvent::UpcallEnqueue { routine, cont_id }
        | TraceEvent::UpcallCompletion { routine, cont_id } => format!(
            "{{\"routine\": \"{}\", \"cont_id\": {cont_id}}}",
            escape_json(routine)
        ),
        TraceEvent::GrantCacheHit { dom, page }
        | TraceEvent::GrantCacheMiss { dom, page }
        | TraceEvent::GrantCacheEvict { dom, page } => {
            format!("{{\"dom\": {dom}, \"page\": {page}}}")
        }
        TraceEvent::GrantCacheRevoke { dom, count } => {
            format!("{{\"dom\": {dom}, \"count\": {count}}}")
        }
        TraceEvent::TimerFire { data } => format!("{{\"data\": {data}}}"),
        TraceEvent::SoftirqDispatch { kind, dev } => {
            format!("{{\"kind\": \"{}\", \"dev\": {dev}}}", escape_json(kind))
        }
        TraceEvent::KernelCall { routine, phase } => format!(
            "{{\"routine\": \"{}\", \"phase\": \"{}\"}}",
            escape_json(routine),
            escape_json(phase)
        ),
        TraceEvent::FaultDetected { dev, reason } => {
            format!(
                "{{\"dev\": {dev}, \"reason\": \"{}\"}}",
                escape_json(reason)
            )
        }
        TraceEvent::QuarantineEnter { dev }
        | TraceEvent::QuarantineExit { dev }
        | TraceEvent::DeviceReset { dev } => format!("{{\"dev\": {dev}}}"),
        TraceEvent::InflightAccounted {
            dev,
            replayed,
            dropped,
        } => format!("{{\"dev\": {dev}, \"replayed\": {replayed}, \"dropped\": {dropped}}}"),
        TraceEvent::VcpuRun { guest, cpu } | TraceEvent::VcpuSleep { guest, cpu } => {
            format!("{{\"guest\": {guest}, \"cpu\": {cpu}}}")
        }
        TraceEvent::AffinityPlace { guest, flow, dev } => {
            format!("{{\"guest\": {guest}, \"flow\": {flow}, \"dev\": {dev}}}")
        }
    }
}

/// Renders the recorder as chrome://tracing JSON (see module docs).
pub fn chrome_trace_json(rec: &FlightRecorder) -> String {
    let mut events: Vec<String> = Vec::new();

    // Metadata: name the domain processes and the tracks actually used.
    for (label, pid) in DOMAIN_PIDS {
        events.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": \"{label}\"}}}}"
        ));
    }
    let mut tracks: Vec<(u64, u64)> = Vec::new();
    for r in rec.records() {
        let key = (domain_pid(r.domain), event_tid(&r.event));
        if !tracks.contains(&key) {
            tracks.push(key);
        }
    }
    tracks.sort_unstable();
    for (pid, tid) in tracks {
        let name = if tid >= 1000 {
            format!("guest{}", tid - 1000)
        } else {
            format!("dev{tid}")
        };
        events.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{name}\"}}}}"
        ));
    }

    // Enter→exit pairs become "X" complete events so residency renders
    // as a bar: NAPI enter→complete as "poll_mode", quarantine
    // enter→exit as "quarantine". An episode still open at the end of
    // the recording spans to the last stamp.
    let last_at = rec.records().last().map(|r| r.at).unwrap_or(0);
    for (span, is_enter, is_exit) in [
        (
            "poll_mode",
            (|ev: &TraceEvent| match ev {
                TraceEvent::NapiEnter { dev } => Some(*dev),
                _ => None,
            }) as fn(&TraceEvent) -> Option<u32>,
            (|ev: &TraceEvent| match ev {
                TraceEvent::NapiComplete { dev } => Some(*dev),
                _ => None,
            }) as fn(&TraceEvent) -> Option<u32>,
        ),
        (
            "quarantine",
            |ev: &TraceEvent| match ev {
                TraceEvent::QuarantineEnter { dev } => Some(*dev),
                _ => None,
            },
            |ev: &TraceEvent| match ev {
                TraceEvent::QuarantineExit { dev } => Some(*dev),
                _ => None,
            },
        ),
    ] {
        let mut open: Vec<(u64, u64, &'static str)> = Vec::new(); // (dev, at, domain)
        for r in rec.records() {
            if let Some(dev) = is_enter(&r.event) {
                if !open.iter().any(|(d, _, _)| *d == u64::from(dev)) {
                    open.push((u64::from(dev), r.at, r.domain));
                }
            } else if let Some(dev) = is_exit(&r.event) {
                if let Some(i) = open.iter().position(|(d, _, _)| *d == u64::from(dev)) {
                    let (dev, start, domain) = open.remove(i);
                    events.push(format!(
                        "{{\"name\": \"{span}\", \"ph\": \"X\", \"pid\": {}, \"tid\": {dev}, \
                         \"ts\": {}, \"dur\": {}, \"args\": {{\"dev\": {dev}}}}}",
                        domain_pid(domain),
                        ts_us(start),
                        ts_us(r.at.saturating_sub(start)),
                    ));
                }
            }
        }
        open.sort_unstable();
        for (dev, start, domain) in open {
            events.push(format!(
                "{{\"name\": \"{span}\", \"ph\": \"X\", \"pid\": {}, \"tid\": {dev}, \
                 \"ts\": {}, \"dur\": {}, \"args\": {{\"dev\": {dev}, \"open\": true}}}}",
                domain_pid(domain),
                ts_us(start),
                ts_us(last_at.saturating_sub(start)),
            ));
        }
    }

    // Everything else is an instant on its track.
    for r in rec.records() {
        if matches!(
            r.event,
            TraceEvent::NapiEnter { .. }
                | TraceEvent::NapiComplete { .. }
                | TraceEvent::QuarantineEnter { .. }
                | TraceEvent::QuarantineExit { .. }
        ) {
            continue;
        }
        events.push(format!(
            "{{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"pid\": {}, \"tid\": {}, \
             \"ts\": {}, \"args\": {}}}",
            r.event.kind(),
            domain_pid(r.domain),
            event_tid(&r.event),
            ts_us(r.at),
            event_args(&r.event),
        ));
    }

    let mut out = String::from("{\"traceEvents\": [\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// The trace output directory named by `TWIN_TRACE_OUT`, if set and
/// non-empty. All `measure_*` export hooks key off this.
pub fn trace_out_dir() -> Option<PathBuf> {
    match std::env::var_os("TWIN_TRACE_OUT") {
        Some(d) if !d.is_empty() => Some(PathBuf::from(d)),
        _ => None,
    }
}

/// Writes `<dir>/<label>.trace.json` (chrome format) and
/// `<dir>/<label>.metrics.json` (flat metrics dump), creating `dir` as
/// needed. Export failures are reported on stderr, never fatal — a
/// broken output path must not fail a measurement run.
pub fn write_trace_files(
    dir: &std::path::Path,
    label: &str,
    rec: &FlightRecorder,
    metrics: &MetricSet,
) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("twin-trace: cannot create {}: {e}", dir.display());
        return;
    }
    let trace_path = dir.join(format!("{label}.trace.json"));
    if let Err(e) = std::fs::write(&trace_path, chrome_trace_json(rec)) {
        eprintln!("twin-trace: cannot write {}: {e}", trace_path.display());
    }
    let metrics_path = dir.join(format!("{label}.metrics.json"));
    if let Err(e) = std::fs::write(&metrics_path, metrics.to_json()) {
        eprintln!("twin-trace: cannot write {}: {e}", metrics_path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    fn sample_recorder() -> FlightRecorder {
        let mut r = FlightRecorder::new();
        r.set_enabled(true);
        r.record(3_000, "e1000", TraceEvent::NapiEnter { dev: 0 });
        r.record(4_500, "e1000", TraceEvent::NapiPoll { dev: 0, reaped: 8 });
        r.record(6_000, "Xen", TraceEvent::EarlyDrop { guest: 2 });
        r.record(9_000, "e1000", TraceEvent::NapiComplete { dev: 0 });
        r.record(
            9_100,
            "e1000",
            TraceEvent::ItrRetune {
                dev: 1,
                old: 8000,
                new: 4000,
                regime: "bulk_latency",
            },
        );
        r
    }

    #[test]
    fn chrome_json_has_episode_and_instants() {
        let j = chrome_trace_json(&sample_recorder());
        assert!(j.starts_with("{\"traceEvents\": ["));
        // The NAPI episode is one complete ("X") event with dur 2 µs.
        assert!(j.contains("\"name\": \"poll_mode\", \"ph\": \"X\""));
        assert!(j.contains("\"ts\": 1.000, \"dur\": 2.000"));
        // Drops and retunes are instants with payloads.
        assert!(j.contains("\"name\": \"early_drop\", \"ph\": \"i\""));
        assert!(j.contains("\"regime\": \"bulk_latency\""));
        // Enter/complete never appear as raw instants (subsumed by the bar).
        assert!(!j.contains("\"name\": \"napi_enter\""));
        // Track metadata names the guest lane.
        assert!(j.contains("\"name\": \"guest2\""));
    }

    #[test]
    fn chrome_json_is_deterministic() {
        assert_eq!(
            chrome_trace_json(&sample_recorder()),
            chrome_trace_json(&sample_recorder())
        );
    }

    #[test]
    fn open_episode_spans_to_last_record() {
        let mut r = FlightRecorder::new();
        r.set_enabled(true);
        r.record(3_000, "e1000", TraceEvent::NapiEnter { dev: 0 });
        r.record(12_000, "Xen", TraceEvent::EarlyDrop { guest: 1 });
        let j = chrome_trace_json(&r);
        assert!(j.contains("\"open\": true"));
        assert!(j.contains("\"dur\": 3.000"));
    }

    #[test]
    fn quarantine_episode_renders_as_span() {
        let mut r = FlightRecorder::new();
        r.set_enabled(true);
        r.record(
            3_000,
            "Xen",
            TraceEvent::FaultDetected {
                dev: 2,
                reason: "illegal store".into(),
            },
        );
        r.record(3_000, "Xen", TraceEvent::QuarantineEnter { dev: 2 });
        r.record(6_000, "Xen", TraceEvent::DeviceReset { dev: 2 });
        r.record(
            6_000,
            "Xen",
            TraceEvent::InflightAccounted {
                dev: 2,
                replayed: 3,
                dropped: 5,
            },
        );
        r.record(9_000, "Xen", TraceEvent::QuarantineExit { dev: 2 });
        let j = chrome_trace_json(&r);
        assert!(j.contains("\"name\": \"quarantine\", \"ph\": \"X\""));
        assert!(j.contains("\"ts\": 1.000, \"dur\": 2.000"));
        assert!(j.contains("\"name\": \"fault_detected\", \"ph\": \"i\""));
        assert!(j.contains("\"name\": \"device_reset\", \"ph\": \"i\""));
        assert!(j.contains("\"replayed\": 3, \"dropped\": 5"));
        // Enter/exit are subsumed by the bar, never raw instants.
        assert!(!j.contains("\"name\": \"quarantine_enter\""));
        assert!(!j.contains("\"name\": \"quarantine_exit\""));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
