//! Shared helpers and paper reference values for the per-figure bench
//! harnesses in `benches/`.
//!
//! Each figure harness prints the same rows/series the paper's figure
//! or table reports, side by side with the paper's published values —
//! `cargo bench -p twin-bench` regenerates the entire evaluation
//! section. The sweeps (`*_sweep.rs`) additionally go through [`Sweep`]:
//! one emitter for the banner, the `BENCH_<name>.json` output, the
//! acceptance predicates and the exit status.

use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
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

/// Prints the standard harness banner.
pub fn banner(title: &str, paper_ref: &str) {
    println!();
    println!("================================================================");
    println!("  {title}");
    println!("  paper reference: {paper_ref}");
    println!("================================================================");
}

/// Formats a measured-vs-paper row.
pub fn row(label: &str, measured: f64, paper: f64, unit: &str) -> String {
    format!(
        "  {label:>10}  measured {measured:>9.0} {unit:<5} paper {paper:>8.0} {unit:<5} ratio {:.2}",
        measured / paper
    )
}

/// Number of packets per measurement in the figure harnesses.
pub fn packets() -> u64 {
    std::env::var("TWIN_BENCH_PACKETS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300)
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

/// An ordered list of typed JSON fields: one entry of a sweep's output,
/// or its header. Each constructor fixes the rendering, so a baseline
/// regenerates byte for byte.
#[derive(Clone, Debug, Default)]
pub struct Row(Vec<(&'static str, String)>);

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    fn field(mut self, key: &'static str, rendered: String) -> Row {
        self.0.push((key, rendered));
        self
    }

    /// A quoted string (labels: no character needs escaping).
    pub fn str(self, key: &'static str, v: impl Display) -> Row {
        self.field(key, format!("\"{v}\""))
    }

    /// An unsigned integer (of any width).
    pub fn int(self, key: &'static str, v: impl TryInto<u64>) -> Row {
        let v = v.try_into().ok().expect("sweep integers are unsigned");
        self.field(key, v.to_string())
    }

    /// An unsigned integer that is present only for some rows.
    pub fn int_opt(self, key: &'static str, v: Option<impl TryInto<u64>>) -> Row {
        match v {
            Some(v) => self.int(key, v),
            None => self,
        }
    }

    /// A float with one decimal (cycles/packet, Mb/s, percentages).
    pub fn f1(self, key: &'static str, v: f64) -> Row {
        self.field(key, format!("{v:.1}"))
    }

    /// A float with four decimals (per-packet rates).
    pub fn f4(self, key: &'static str, v: f64) -> Row {
        self.field(key, format!("{v:.4}"))
    }

    /// `true` / `false`.
    pub fn flag(self, key: &'static str, v: bool) -> Row {
        self.field(key, v.to_string())
    }

    fn fields(&self) -> impl Iterator<Item = String> + '_ {
        self.0.iter().map(|(k, v)| format!("\"{k}\": {v}"))
    }
}

/// One sweep run: the banner, the machine-readable output and the
/// acceptance verdict. A sweep names itself and its header fields, files
/// a [`Row`] per measured point, states its acceptance with
/// [`Sweep::require`], and returns [`Sweep::finish`] from `main` — a
/// failed predicate or an output file that could not be written is a
/// non-zero exit, so CI and `bench/run_gates.sh` never gate a stale or
/// rejected result.
#[derive(Debug)]
pub struct Sweep {
    /// Output path and the header fields that lead the file.
    out: Option<(PathBuf, Row)>,
    rows: Vec<Row>,
    failed: bool,
}

impl Sweep {
    /// Starts a sweep (prints its banner) that only checks acceptance.
    pub fn new(title: &str, paper_ref: &str) -> Sweep {
        banner(title, paper_ref);
        Sweep {
            out: None,
            rows: Vec::new(),
            failed: false,
        }
    }

    /// Makes the sweep write `BENCH_<name>.json` at the workspace root
    /// (wherever cargo runs the bench from), led by the `header` fields.
    pub fn writes(mut self, name: &str, header: Row) -> Sweep {
        let out = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        self.out = Some((out.into(), header));
        self
    }

    /// Files one measured point.
    pub fn row(&mut self, row: Row) {
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

    fn render(&self, header: &Row) -> String {
        let header: String = header.fields().map(|f| format!("  {f},\n")).collect();
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

    /// Writes the output file and reports whether the run passed.
    fn passed(mut self) -> bool {
        if let Some((out, header)) = self.out.take() {
            let file = out.file_name().unwrap_or_default().to_string_lossy();
            match std::fs::write(&out, self.render(&header)) {
                Ok(()) => println!("  wrote {file} ({} sweep points)", self.rows.len()),
                Err(e) => self.require(false, format_args!("{file} could not be written: {e}")),
            }
        }
        !self.failed
    }

    /// Ends the sweep: writes the output file and returns the process
    /// exit status.
    pub fn finish(self) -> ExitCode {
        ExitCode::from(u8::from(!self.passed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A committed baseline (`""` = the shard sweep's): together the
    /// complete spec of the emitter's output format.
    fn baseline(suffix: &str) -> String {
        let path = format!(
            "{}/../../bench/baseline{suffix}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::read_to_string(path).expect("committed baseline")
    }

    /// Rebuilds a [`Row`] from its rendered fields, picking each field's
    /// constructor from the shape of the value.
    fn reparse(fields: &str) -> Row {
        fields.split(", ").fold(Row::new(), |row, field| {
            let (key, v) = field.split_once(": ").expect("\"key\": value");
            let key: &'static str = Box::leak(key.trim_matches('"').into());
            let decimals = v.split_once('.').map(|(_, frac)| frac.len());
            match (v, decimals) {
                ("true" | "false", _) => row.flag(key, v == "true"),
                (_, _) if v.starts_with('"') => row.str(key, v.trim_matches('"')),
                (_, Some(1)) => row.f1(key, v.parse().unwrap()),
                (_, Some(4)) => row.f4(key, v.parse().unwrap()),
                (_, None) => row.int(key, v.parse::<u64>().unwrap()),
                (_, Some(n)) => panic!("{n} decimals in {field}"),
            }
        })
    }

    fn quiet() -> Sweep {
        Sweep::new("emitter test", "none")
    }

    #[test]
    fn every_baseline_is_reproduced_byte_for_byte() {
        let sweeps = [
            "",
            "_upcall",
            "_itr",
            "_autotune",
            "_zerocopy",
            "_livelock",
            "_fault",
            "_affinity",
        ];
        for text in sweeps.map(baseline) {
            let lines: Vec<&str> = text.lines().collect();
            let entries_at = lines
                .iter()
                .position(|l| *l == "  \"entries\": [")
                .expect("entries array");
            let unframe = |l: &&str| l.trim().trim_end_matches(',').to_string();
            let header: Vec<String> = lines[1..entries_at].iter().map(unframe).collect();
            let mut sweep = quiet();
            for entry in lines[entries_at + 1..lines.len() - 2].iter().map(unframe) {
                sweep.row(reparse(&entry[1..entry.len() - 1]));
            }
            assert_eq!(sweep.render(&reparse(&header.join(", "))), text);
        }
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
        let autotune = baseline("_autotune");
        assert!(autotune.contains("\"mode\": \"static\", \"itr\": 0, \"gap_cycles\""));
        assert!(autotune.contains("\"mode\": \"autotune\", \"gap_cycles\""));
    }

    #[test]
    fn a_failed_predicate_fails_the_sweep() {
        let mut sweep = quiet();
        sweep.require(true, "holds");
        assert!(sweep.passed());
        let mut sweep = quiet();
        sweep.require(false, "does not hold");
        sweep.require(true, "a later pass does not clear it");
        assert!(!sweep.passed());
    }

    #[test]
    fn an_unwritable_output_fails_the_sweep() {
        let dir = std::env::temp_dir().join(format!("twin-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let to = |path: PathBuf| {
            let mut sweep = quiet();
            sweep.out = Some((path, Row::new().int("packets", 64u64)));
            sweep.row(Row::new().f1("rx_cycles_per_packet", 10402.04));
            sweep
        };
        // A path whose parent is missing cannot be written: that is a
        // failure, not a message and exit 0.
        assert!(!to(dir.join("missing").join("BENCH_x.json")).passed());
        // A writable path holds exactly the rendered document.
        let out = dir.join("BENCH_x.json");
        assert!(to(out.clone()).passed());
        let written = std::fs::read_to_string(&out).unwrap();
        assert!(written.ends_with("{\"rx_cycles_per_packet\": 10402.0}\n  ]\n}\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
