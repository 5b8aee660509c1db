//! The sweep emitter behind the nine `benches/*_sweep.rs` files, and what
//! they share with the `twindrivers-repro` CLI (which regenerates the
//! paper's figures; nothing here does): the packet budget, the banner,
//! and the paper's published values the CLI prints beside its own.
//!
//! A sweep goes through [`Sweep`]: one emitter for the banner, the
//! table, the `BENCH_<name>.json` output, the acceptance predicates, the
//! gate against the committed `bench/baseline_<name>.json` and the exit
//! status. A measured point is described once, as a [`Row`].

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use twindrivers::trace::FlightRecorder;
use twindrivers::System;

/// Paper values for Figure 5 (transmit throughput, Mb/s):
/// domU, domU-twin, dom0, Linux.
pub const PAPER_FIG5: [(&str, f64); 4] = [
    ("domU", 1619.0),
    ("domU-twin", 3902.0),
    ("dom0", 4683.0),
    ("Linux", 4690.0),
];

/// Paper values for Figure 6 (receive throughput, Mb/s).
pub const PAPER_FIG6: [(&str, f64); 4] = [
    ("domU", 928.0),
    ("domU-twin", 2022.0),
    ("dom0", 2839.0),
    ("Linux", 3010.0),
];

/// Paper values for Figure 7 (transmit cycles/packet, totals).
pub const PAPER_FIG7_TOTALS: [(&str, f64); 2] = [("domU", 21159.0), ("domU-twin", 9972.0)];

/// Paper values for Figure 8 (receive cycles/packet, totals).
pub const PAPER_FIG8_TOTALS: [(&str, f64); 4] = [
    ("domU", 35905.0),
    ("domU-twin", 20089.0),
    ("dom0", 14308.0),
    ("Linux", 11166.0),
];

/// Paper values for Figure 9 (web server peak throughput, Mb/s).
pub const PAPER_FIG9_PEAKS: [(&str, f64); 4] = [
    ("Linux", 855.0),
    ("dom0", 712.0),
    ("domU-twin", 572.0),
    ("domU", 269.0),
];

/// Paper values for Figure 10 (transmit throughput vs upcalls/invocation,
/// Mb/s): only the endpoints are stated numerically in the text.
pub const PAPER_FIG10_ENDPOINTS: [(usize, f64); 3] = [(0, 3902.0), (1, 1638.0), (9, 359.0)];

/// Paper Table 1: the ten fast-path support routines with descriptions.
pub const PAPER_TABLE1: [(&str, &str); 10] = [
    ("netdev_alloc_skb", "allocate sk_buffs"),
    ("dev_kfree_skb_any", "free sk_buffs"),
    ("netif_rx", "receive network packets"),
    ("dma_map_single", "map DMA buffer"),
    ("dma_map_page", "map DMA page"),
    ("dma_unmap_single", "unmap DMA buffer"),
    ("dma_unmap_page", "unmap DMA page"),
    ("spin_trylock", "acquire spinlock"),
    (
        "spin_unlock_irqrestore",
        "release spinlock, restore interrupts",
    ),
    ("eth_type_trans", "process MAC header"),
];

/// Paper §6.5: lines of commented C for the ten hypervisor routines.
pub const PAPER_EFFORT_LOC: usize = 851;

/// The banner that opens a sweep's or a figure's output.
pub fn banner(title: &str, paper_ref: &str) -> String {
    let rule = "================================================================";
    format!("\n{rule}\n  {title}\n  paper reference: {paper_ref}\n{rule}\n")
}

/// Formats a measured-vs-paper row.
pub fn row(label: &str, measured: f64, paper: f64, unit: &str) -> String {
    format!(
        "  {label:>10}  measured {measured:>9.0} {unit:<5} paper {paper:>8.0} {unit:<5} ratio {:.2}",
        measured / paper
    )
}

/// Number of packets per measurement, in the sweeps and in the CLI's
/// figures: `TWIN_BENCH_PACKETS`, 300 when unset. A value that is not a
/// positive integer ends the process — a typo must not run the default
/// budget against baselines recorded at another.
pub fn packets() -> u64 {
    let set = std::env::var_os("TWIN_BENCH_PACKETS");
    let set = set.as_deref().map(|s| s.to_string_lossy());
    packet_budget(set.as_deref()).unwrap_or_else(|why| {
        eprintln!("{why}");
        std::process::exit(2)
    })
}

fn packet_budget(set: Option<&str>) -> Result<u64, String> {
    match set.map(str::parse) {
        None => Ok(300),
        Some(Ok(n)) if n > 0 => Ok(n),
        Some(_) => Err(format!(
            "TWIN_BENCH_PACKETS={} is not a positive integer",
            set.unwrap_or_default()
        )),
    }
}

/// Scheduled inter-burst arrival gap of the paced receive harnesses
/// (the moderation sweep, and the heavy phase of the autotune sweep), in
/// virtual cycles — slightly above the unmoderated per-interrupt service
/// capacity at burst 32 on 4 NICs (the receive-livelock regime interrupt
/// moderation exists for).
pub const DEFAULT_GAP_CYCLES: u64 = 150_000;

/// Calibrates an open-loop arrival gap on `sys`: the closed-loop
/// amortized RX cost of one `burst`, times `headroom` (1.0 = the knee,
/// where a 1.0× open-loop schedule just saturates the consumer).
pub fn knee_gap(sys: &mut System, burst: usize, headroom: f64) -> u64 {
    let m = sys
        .measure_rx_burst(burst, packets())
        .expect("knee calibration");
    (burst as f64 * m.breakdown.total() * headroom) as u64
}

/// The measured point a sweep filed under `key` (its acceptance
/// predicates compare a few named points of the grid).
pub fn point<'a, K: PartialEq, P>(points: &'a [(K, P)], key: &K) -> &'a P {
    let found = points.iter().find(|(k, _)| k == key);
    &found.expect("acceptance point measured").1
}

/// Suffix of the fields the baseline gate compares; the fields before
/// the first of them are the point's identity.
const GATED: &str = "_cycles_per_packet";

/// Allowed rise of a gated field over its committed baseline.
const TOLERANCE: f64 = 0.10;

/// An ordered list of typed fields — the one description of a sweep
/// point (or of a sweep's header): its stdout table line, its JSON
/// entry and its key in the baseline gate. Each constructor fixes the
/// rendering, so a baseline regenerates byte for byte.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row(Vec<(String, String)>);

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    fn field(mut self, key: &str, rendered: String) -> Row {
        self.0.push((key.to_string(), rendered));
        self
    }

    /// A quoted string (labels: no character needs escaping).
    pub fn str(self, key: &str, v: impl Display) -> Row {
        self.field(key, format!("\"{v}\""))
    }

    /// An unsigned integer (of any width).
    pub fn int(self, key: &str, v: impl TryInto<u64>) -> Row {
        let v = v.try_into().ok().expect("sweep integers are unsigned");
        self.field(key, v.to_string())
    }

    /// An unsigned integer that is present only for some rows.
    pub fn int_opt(self, key: &str, v: Option<impl TryInto<u64>>) -> Row {
        match v {
            Some(v) => self.int(key, v),
            None => self,
        }
    }

    /// A float with one decimal (cycles/packet, Mb/s, percentages).
    pub fn f1(self, key: &str, v: f64) -> Row {
        self.field(key, format!("{v:.1}"))
    }

    /// A float with four decimals (per-packet rates).
    pub fn f4(self, key: &str, v: f64) -> Row {
        self.field(key, format!("{v:.4}"))
    }

    /// `true` / `false`.
    pub fn flag(self, key: &str, v: bool) -> Row {
        self.field(key, v.to_string())
    }

    /// The JSON fields, `"key": value`.
    fn fields(&self) -> impl Iterator<Item = String> + '_ {
        self.0.iter().map(|(k, v)| format!("\"{k}\": {v}"))
    }

    /// The table line: the same fields as `key value`, labels unquoted.
    fn line(&self) -> String {
        let cells = self
            .0
            .iter()
            .map(|(k, v)| format!("{k} {}", v.trim_matches('"')));
        cells.collect::<Vec<_>>().join("  ")
    }

    /// Reads rendered JSON fields back, picking each field's constructor
    /// from the shape of its value — a reader of this emitter's own
    /// output (the committed baselines), not of JSON at large.
    fn parse(fields: &str) -> Result<Row, String> {
        fields.split(", ").try_fold(Row::new(), |row, field| {
            let (key, v) = field
                .split_once(": ")
                .ok_or_else(|| format!("`{field}` is not `\"key\": value`"))?;
            let key = key.trim_matches('"');
            let float = || v.parse::<f64>().map_err(|e| format!("{field}: {e}"));
            let int = || v.parse::<u64>().map_err(|e| format!("{field}: {e}"));
            Ok(match (v, v.split_once('.').map(|(_, frac)| frac.len())) {
                ("true" | "false", _) => row.flag(key, v == "true"),
                _ if v.starts_with('"') => row.str(key, v.trim_matches('"')),
                (_, Some(1)) => row.f1(key, float()?),
                (_, Some(4)) => row.f4(key, float()?),
                (_, None) => row.int(key, int()?),
                (_, Some(n)) => return Err(format!("{field}: {n} decimals")),
            })
        })
    }

    fn get(&self, key: &str) -> Option<&str> {
        let found = self.0.iter().find(|(k, _)| k == key);
        found.map(|(_, v)| v.as_str())
    }

    /// Field `key` as a number (`None` when absent or not numeric).
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(|v| v.parse().ok())
    }

    /// The point's identity in the baseline gate: every field before the
    /// first gated one. `None` for a row that has no gated field.
    fn key(&self) -> Option<String> {
        let gated_at = self.0.iter().position(|(k, _)| k.ends_with(GATED))?;
        Some(Row(self.0[..gated_at].to_vec()).line())
    }
}

/// Reads a document [`Sweep::render`] wrote back into its header and
/// entries.
fn parse(text: &str) -> Result<(Row, Vec<Row>), String> {
    let lines: Vec<&str> = text.lines().collect();
    let entries_at = lines.iter().position(|l| *l == "  \"entries\": [");
    let entries_at = entries_at.ok_or("no \"entries\" array")?;
    fn unframe<'a>(l: &&'a str) -> &'a str {
        l.trim().trim_end_matches(',')
    }
    let header: Vec<&str> = lines[..entries_at].iter().skip(1).map(unframe).collect();
    let entries = lines[entries_at + 1..].iter().map(unframe);
    let entries = entries
        .map_while(|l| l.strip_prefix('{'))
        .map(|l| Row::parse(l.trim_end_matches('}')))
        .collect::<Result<_, _>>()?;
    Ok((Row::parse(&header.join(", "))?, entries))
}

/// The committed `bench/baseline_<name>.json`, as written.
fn baseline_text(name: &str) -> String {
    let path = format!(
        "{}/../../bench/baseline_{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The committed `bench/baseline_<name>.json` read back into its header
/// and entries — the one reader of a baseline outside the gate.
///
/// # Panics
///
/// When the file is missing or is not this emitter's output.
pub fn baseline(name: &str) -> (Row, Vec<Row>) {
    parse(&baseline_text(name)).unwrap_or_else(|e| panic!("baseline_{name}.json: {e}"))
}

/// The rows by identity key. A row without a key, or two rows sharing
/// one, would leave a point nobody gates.
fn keyed<'a>(rows: &'a [Row], whose: &str) -> Result<BTreeMap<String, &'a Row>, String> {
    let mut out = BTreeMap::new();
    for row in rows {
        let key = row.key();
        let key = key.ok_or_else(|| format!("{whose} `{}` has no *{GATED} field", row.line()))?;
        if out.insert(key.clone(), row).is_some() {
            return Err(format!("{whose} has two points `{key}`"));
        }
    }
    Ok(out)
}

/// Gates a rendered run against its committed baseline and returns the
/// verdict line. The two must describe the same sweep (equal headers —
/// except that a baseline recorded at another packet budget does not
/// apply, and says so) and the same points, one to one; then no gated
/// field of any point may rise more than [`TOLERANCE`].
fn gate(baseline: &str, run: &str) -> Result<String, String> {
    let (base_header, base) = parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let (header, rows) = parse(run)?;
    let sans_budget = |h: &Row| Row(h.0.iter().filter(|f| f.0 != "packets").cloned().collect());
    if sans_budget(&base_header) != sans_budget(&header) {
        let (theirs, ours) = (base_header.line(), header.line());
        return Err(format!(
            "baseline header is `{theirs}`, the run's is `{ours}`"
        ));
    }
    if base_header.get("packets") != header.get("packets") {
        let n = base_header.get("packets").unwrap_or("?");
        return Ok(format!("SKIPPED: baseline is a {n}-packet run"));
    }
    let (base, rows) = (keyed(&base, "baseline")?, keyed(&rows, "the run")?);
    let mut failures = Vec::new();
    for (key, b) in &base {
        let Some(r) = rows.get(key) else {
            failures.push(format!("`{key}` is in the baseline but was not measured"));
            continue;
        };
        for (field, _) in b.0.iter().filter(|(k, _)| k.ends_with(GATED)) {
            let number = |row: &Row, whose: &str| {
                let n = row.num(field);
                n.ok_or_else(|| format!("{whose} `{key}` has no numeric {field}"))
            };
            let (old, new) = (number(b, "baseline")?, number(r, "the run's")?);
            if new > old * (1.0 + TOLERANCE) {
                failures.push(format!(
                    "`{key}` {field} rose {old:.1} -> {new:.1} (limit +10%)"
                ));
            }
        }
    }
    for key in rows.keys().filter(|k| !base.contains_key(*k)) {
        failures.push(format!("`{key}` was measured but is not in the baseline"));
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    let verdict = match baseline == run {
        true => "bit-exact",
        false => "differs, within tolerance",
    };
    Ok(verdict.to_string())
}

/// One sweep run: the banner, the table, the machine-readable output,
/// the acceptance verdict and the baseline gate. A sweep names itself and
/// its header fields, files a [`Row`] per measured point, states its
/// acceptance with [`Sweep::require`], and returns [`Sweep::finish`] from
/// `main` — a failed predicate, an output file that could not be
/// written or a point that drifted from (or is unknown to) the committed
/// baseline is a non-zero exit.
#[derive(Debug)]
pub struct Sweep {
    /// The `<name>` of `BENCH_<name>.json` and `bench/baseline_<name>.json`.
    name: String,
    /// The fields that lead both files.
    header: Row,
    /// The directory both paths are relative to.
    root: PathBuf,
    rows: Vec<Row>,
    failed: bool,
}

impl Sweep {
    /// Starts a sweep (prints its banner) that will write
    /// `BENCH_<name>.json` at the workspace root, led by the `header`
    /// fields, and gate it against the committed
    /// `bench/baseline_<name>.json`.
    pub fn new(name: &str, header: Row, title: &str, paper_ref: &str) -> Sweep {
        print!("{}", banner(title, paper_ref));
        Sweep {
            name: name.to_string(),
            header,
            // The workspace root, wherever cargo runs the bench from.
            root: concat!(env!("CARGO_MANIFEST_DIR"), "/../..").into(),
            rows: Vec::new(),
            failed: false,
        }
    }

    /// Files one measured point and prints it as the table line.
    pub fn row(&mut self, row: Row) {
        println!("    {}", row.line());
        self.rows.push(row);
    }

    /// States one acceptance claim — the measured value and the bound
    /// it must meet — prints it, and fails the sweep if it does not hold.
    pub fn require(&mut self, holds: bool, claim: impl Display) {
        if holds {
            println!("  {claim}");
        } else {
            eprintln!("  ACCEPTANCE FAILED: {claim}");
            self.failed = true;
        }
    }

    /// Requires that the flight recorder of the system that measured
    /// `point` holds at least one event of each of `kinds`. States
    /// nothing about a recorder that is off (`TWIN_TRACE_OUT` unset).
    pub fn require_traced(&mut self, point: impl Display, trace: &FlightRecorder, kinds: &[&str]) {
        if !trace.enabled() {
            return;
        }
        let counts = trace.counts_by_kind();
        let count = |kind: &&str| counts.get(kind).copied().unwrap_or(0);
        let census: Vec<String> = kinds.iter().map(|k| format!("{k} {}", count(k))).collect();
        self.require(
            kinds.iter().all(|k| count(k) > 0),
            format_args!(
                "{point} trace: {} (acceptance: each > 0)",
                census.join(", ")
            ),
        );
    }

    fn render(&self) -> String {
        let header: String = self.header.fields().map(|f| format!("  {f},\n")).collect();
        let entries: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("    {{{}}}", r.fields().collect::<Vec<_>>().join(", ")))
            .collect();
        format!(
            "{{\n{header}  \"entries\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        )
    }

    /// Writes the output file, gates it against its baseline and reports
    /// whether the run passed.
    fn passed(mut self) -> bool {
        let file = format!("BENCH_{}.json", self.name);
        let baseline = format!("bench/baseline_{}.json", self.name);
        let run = self.render();
        match std::fs::write(self.root.join(&file), &run) {
            Ok(()) => println!("  wrote {file} ({} sweep points)", self.rows.len()),
            Err(e) => self.require(false, format_args!("{file} could not be written: {e}")),
        }
        let committed = std::fs::read_to_string(self.root.join(&baseline));
        match committed
            .map_err(|e| e.to_string())
            .and_then(|b| gate(&b, &run))
        {
            Ok(verdict) => println!("  {file} vs {baseline}: {verdict}"),
            Err(why) => {
                self.require(false, format_args!("{file} vs {baseline}: {why}"));
                eprintln!("  (if the run is right, refresh it: cp {file} {baseline})");
            }
        }
        !self.failed
    }

    /// Ends the sweep: writes and gates the output file and returns the
    /// process exit status.
    pub fn finish(self) -> ExitCode {
        ExitCode::from(u8::from(!self.passed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twindrivers::trace::{Fate, TraceEvent};

    #[test]
    fn reference_tables_consistent() {
        assert_eq!(PAPER_TABLE1.len(), 10);
        assert_eq!(PAPER_FIG5.len(), PAPER_FIG6.len());
        assert!(PAPER_FIG10_ENDPOINTS[0].1 > PAPER_FIG10_ENDPOINTS[1].1);
    }

    #[test]
    fn row_formats() {
        let r = row("Linux", 5000.0, 4690.0, "Mb/s");
        assert!(r.contains("Linux"));
        assert!(r.contains("1.07"));
    }

    #[test]
    fn a_mistyped_packet_budget_is_an_error_not_the_default() {
        assert_eq!(packet_budget(None), Ok(300));
        assert_eq!(packet_budget(Some("64")), Ok(64));
        for typo in ["64x", "", "0", "-3", "6.4"] {
            let why = packet_budget(Some(typo)).unwrap_err();
            assert!(why.contains("TWIN_BENCH_PACKETS"), "{why}");
        }
    }

    /// The nine sweeps, by the name they pass to [`Sweep::new`].
    const SWEEPS: [&str; 9] = [
        "batch", "shard", "upcall", "itr", "autotune", "zerocopy", "livelock", "fault", "affinity",
    ];

    /// A sweep named `x` under `header` (nothing is written before
    /// `passed`).
    fn quiet(header: Row) -> Sweep {
        Sweep::new("x", header, "emitter test", "none")
    }

    /// The committed baselines are together the complete spec of the
    /// emitter's output format.
    #[test]
    fn every_baseline_is_reproduced_byte_for_byte() {
        for name in SWEEPS {
            let (header, rows) = baseline(name);
            let text = baseline_text(name);
            let mut sweep = quiet(header);
            rows.into_iter().for_each(|r| sweep.row(r));
            assert_eq!(sweep.render(), text);
        }
    }

    #[test]
    fn every_baseline_point_has_a_unique_key() {
        for name in SWEEPS {
            let (_, rows) = baseline(name);
            assert_eq!(keyed(&rows, name).unwrap().len(), rows.len());
        }
        // The optional field is part of the identity where it is present.
        let (_, rows) = baseline("autotune");
        let key = |row: Option<&Row>| row.and_then(Row::key).unwrap();
        assert!(key(rows.first()).ends_with("mode static  itr 0  gap_cycles 900000"));
        assert!(key(rows.last()).ends_with("mode autotune  gap_cycles 150000"));
    }

    #[test]
    fn an_absent_optional_field_leaves_no_trace() {
        // The autotune baseline has both shapes: static rows carry
        // `itr`, auto-tuned rows do not.
        let fields = |itr: Option<u32>| {
            let row = Row::new().int_opt("itr", itr).int("burst", 32u32);
            row.fields().collect::<Vec<_>>().join(", ")
        };
        assert_eq!(fields(Some(500)), "\"itr\": 500, \"burst\": 32");
        assert_eq!(fields(None), "\"burst\": 32");
        let autotune = baseline_text("autotune");
        assert!(autotune.contains("\"mode\": \"static\", \"itr\": 0, \"gap_cycles\""));
        assert!(autotune.contains("\"mode\": \"autotune\", \"gap_cycles\""));
    }

    #[test]
    fn a_failed_predicate_fails_the_sweep() {
        let mut sweep = quiet(Row::new());
        sweep.require(true, "holds");
        assert!(!sweep.failed);
        sweep.require(false, "does not hold");
        sweep.require(true, "a later pass does not clear it");
        assert!(sweep.failed);
    }

    #[test]
    fn a_required_event_kind_must_be_in_the_recorder() {
        let mut trace = FlightRecorder::new();
        let traced = |trace: &FlightRecorder| {
            let mut sweep = quiet(Row::new());
            sweep.require_traced("10x", trace, &["early_drop"]);
            !sweep.failed
        };
        assert!(traced(&trace), "a recorder that is off claims nothing");
        trace.set_enabled(true);
        assert!(!traced(&trace), "an empty recorder lacks the kind");
        let drop = TraceEvent::FrameDrop {
            fate: Fate::EarlyDrop,
            guest: Some(1),
            frame: Some((1, 0)),
        };
        trace.record(7, "Xen", drop);
        assert!(traced(&trace));
    }

    /// A rendered run of one sweep point per `(burst, rx cycles/packet)`.
    fn run(packets: u64, policy: &str, points: &[(u32, f64)]) -> String {
        let mut sweep = quiet(Row::new().int("packets", packets).str("policy", policy));
        for &(burst, cpp) in points {
            let id = Row::new().str("config", "domU-twin").int("burst", burst);
            sweep.row(id.f1("rx_cycles_per_packet", cpp).int("irqs", 20u32));
        }
        sweep.render()
    }

    #[test]
    fn the_gate_allows_ten_percent_and_names_the_point_that_rose_more() {
        let base = run(64, "flow-hash", &[(8, 1000.0), (32, 500.0)]);
        assert_eq!(gate(&base, &base).unwrap(), "bit-exact");
        let drifted = |cpp| gate(&base, &run(64, "flow-hash", &[(8, 1000.0), (32, cpp)]));
        assert_eq!(drifted(540.0).unwrap(), "differs, within tolerance");
        assert_eq!(drifted(300.0).unwrap(), "differs, within tolerance");
        let why = drifted(560.0).unwrap_err();
        assert!(
            why.contains("`config domU-twin  burst 32` rx_cycles_per_packet rose 500.0 -> 560.0")
        );
        assert!(!why.contains("burst 8"), "{why}");
        // A zero baseline has no headroom and nothing to divide by.
        let zero = run(64, "flow-hash", &[(8, 0.0)]);
        assert_eq!(gate(&zero, &zero).unwrap(), "bit-exact");
        assert!(gate(&zero, &run(64, "flow-hash", &[(8, 5.0)])).is_err());
    }

    #[test]
    fn the_gate_matches_points_one_to_one() {
        let two = run(64, "flow-hash", &[(8, 1000.0), (32, 500.0)]);
        let one = run(64, "flow-hash", &[(8, 1000.0)]);
        let unknown = gate(&one, &two).unwrap_err();
        assert!(unknown.contains("burst 32` was measured but is not in the baseline"));
        let missing = gate(&two, &one).unwrap_err();
        assert!(missing.contains("burst 32` is in the baseline but was not measured"));
        let twice = run(64, "flow-hash", &[(8, 1000.0), (8, 900.0)]);
        assert!(gate(&one, &twice).unwrap_err().contains("two points"));
    }

    #[test]
    fn a_malformed_baseline_is_an_error_not_a_pass() {
        let good = run(64, "flow-hash", &[(8, 1000.0)]);
        let no_entries = gate("{\n  \"packets\": 64,\n}\n", &good).unwrap_err();
        assert!(no_entries.contains("no \"entries\" array"), "{no_entries}");
        let not_a_number = good.replace("1000.0", "\"fast\"");
        let why = gate(&not_a_number, &good).unwrap_err();
        assert!(why.contains("no numeric rx_cycles_per_packet"), "{why}");
        let ungated = good.replace("rx_cycles_per_packet", "rx_mbps");
        assert!(gate(&ungated, &good)
            .unwrap_err()
            .contains("has no *_cycles_per_packet"));
    }

    #[test]
    fn only_a_different_packet_budget_skips_the_gate() {
        let base = run(64, "flow-hash", &[(8, 1000.0)]);
        let full = gate(&base, &run(300, "flow-hash", &[(8, 2000.0)])).unwrap();
        assert_eq!(full, "SKIPPED: baseline is a 64-packet run");
        let other = gate(&base, &run(64, "round-robin", &[(8, 1000.0)])).unwrap_err();
        assert!(other.contains("baseline header is `packets 64  policy flow-hash`"));
        assert!(gate(&base, &run(300, "round-robin", &[(8, 1000.0)])).is_err());
    }

    #[test]
    fn an_unwritable_output_fails_the_sweep() {
        let dir = std::env::temp_dir().join(format!("twin-bench-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("bench")).unwrap();
        let under = |root: PathBuf| {
            let mut sweep = quiet(Row::new().int("packets", 64u64));
            sweep.root = root;
            sweep.row(Row::new().f1("rx_cycles_per_packet", 10402.04));
            sweep
        };
        // A path whose parent is missing cannot be written, and has no
        // baseline: that is a failure, not a message and exit 0.
        assert!(!under(dir.join("missing")).passed());
        // A run nothing gates is a failure too.
        assert!(!under(dir.clone()).passed());
        // A writable path holds exactly the rendered document, which is
        // what the baseline beside it is compared with.
        let written = std::fs::read_to_string(dir.join("BENCH_x.json")).unwrap();
        assert!(written.ends_with("{\"rx_cycles_per_packet\": 10402.0}\n  ]\n}\n"));
        std::fs::write(dir.join("bench/baseline_x.json"), &written).unwrap();
        assert!(under(dir.clone()).passed());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
