//! The paper's evaluation (§6), one function per artefact. Each takes
//! the packet budget of a measurement and returns what it renders: the
//! measured rows beside the paper's published values. [`FIGURES`] names
//! them for the command line; nothing else in the repository regenerates
//! a figure.

use std::fmt::Write as _;
use std::path::Path;
use twin_bench::{
    banner, row, PAPER_EFFORT_LOC, PAPER_FIG10_ENDPOINTS, PAPER_FIG5, PAPER_FIG6,
    PAPER_FIG7_TOTALS, PAPER_FIG8_TOTALS, PAPER_FIG9_PEAKS, PAPER_TABLE1,
};
use twin_kernel::{e1000, RoutineId, Usage, ROUTINES};
use twin_machine::{stlb, CostDomain};
use twin_rewriter::RewriteOptions;
use twin_workloads::{run_netperf, run_webserver, Direction, FileSet};
use twindrivers::{throughput, Config, System, SystemOptions, UpcallMode, TESTBED_NICS};

/// What a figure function returns: its text, or why it could not measure.
pub type Rendered = Result<String, Box<dyn std::error::Error>>;

/// A reference table as the banner states it: `domU 1619 / … / Linux 4690`.
fn reference(table: &[(&str, f64)]) -> String {
    let cells: Vec<String> = table.iter().map(|(l, v)| format!("{l} {v:.0}")).collect();
    cells.join(" / ")
}

/// The paper's value for `label`, where the table states one.
fn paper_value(table: &[(&str, f64)], label: &str) -> Option<f64> {
    table.iter().find(|(l, _)| *l == label).map(|(_, v)| *v)
}

/// Figures 5 and 6: netperf throughput of the four systems, aggregated
/// over five gigabit NICs, with CPU utilisation — the paper's Linux
/// transmit bar saturates the links at 76.9% CPU.
pub fn netperf(dir: Direction, packets: u64) -> Rendered {
    let (figure, paper) = match dir {
        Direction::Transmit => (5, PAPER_FIG5),
        Direction::Receive => (6, PAPER_FIG6),
    };
    let title = format!("Figure {figure} — netperf {} (5 x 1GbE)", dir.label());
    let mut out = banner(&title, &format!("{} Mb/s", reference(&paper)));
    let mut mbps = Vec::new();
    // Both tables are in `Config::ALL` order: domU, domU-twin, dom0, Linux.
    for (config, (_, paper)) in Config::ALL.into_iter().zip(paper) {
        let r = run_netperf(config, dir, packets)?;
        let ratio = r.throughput.mbps / paper;
        writeln!(
            out,
            "{}   paper {paper:>5.0} Mb/s  ratio {ratio:.2}",
            r.row()
        )?;
        mbps.push(r.throughput.mbps);
    }
    let (gain, paper) = (mbps[1] / mbps[0], paper[1].1 / paper[0].1);
    writeln!(
        out,
        "\n  domU-twin / domU: measured {gain:.2}x, paper {paper:.2}x"
    )?;
    Ok(out)
}

/// Figures 7 and 8: the same measurement as [`netperf`], as CPU cycles
/// per packet in the paper's four categories (dom0 / domU / Xen / e1000)
/// — the paper profiles it on a single NIC.
pub fn breakdown(dir: Direction, packets: u64) -> Rendered {
    let (figure, totals, note): (_, &[_], _) = match dir {
        Direction::Transmit => (
            7,
            &PAPER_FIG7_TOTALS,
            "rewritten driver 2218 vs native 960; dom0 virtualisation tax 1184",
        ),
        Direction::Receive => (
            8,
            &PAPER_FIG8_TOTALS,
            "of domU-twin's, ~3525 is the hypervisor's copy into the guest",
        ),
    };
    let title = format!("Figure {figure} — cycles/packet, {} (one NIC)", dir.label());
    let paper_ref = format!("{} cycles/packet; {note}", reference(totals));
    let mut out = banner(&title, &paper_ref);
    for config in Config::ALL {
        let b = run_netperf(config, dir, packets)?.breakdown;
        let paper = paper_value(totals, config.label());
        let paper = paper.map_or(String::new(), |t| format!("   paper total {t:>8.0}"));
        writeln!(out, "{}{paper}", b.row(config.label()))?;
    }
    Ok(out)
}

/// Figure 9: web server response throughput against the offered request
/// rate (knot-like server, SPECweb99 static file set, httperf-like
/// open-loop clients), each direction's per-packet cost measured over
/// `packets` packets.
pub fn webserver(packets: u64) -> Rendered {
    let title = "Figure 9 — Web server throughput vs request rate";
    let paper_ref = format!("peaks: {} Mb/s", reference(&PAPER_FIG9_PEAKS));
    let mut out = banner(title, &paper_ref);
    let rates: Vec<f64> = (1..=20).map(|i| f64::from(i) * 1000.0).collect();
    // The figure's legend order: Linux, dom0, domU-twin, domU.
    let mut configs = Config::ALL;
    configs.reverse();
    let series = configs.map(|c| run_webserver(c, &rates, packets));
    let series = series.into_iter().collect::<Result<Vec<_>, _>>()?;
    let files = FileSet::new(0);
    writeln!(
        out,
        "  SPECweb99 file set: {} files, {:.1} MB total, mean transfer {:.1} KB",
        files.files().len(),
        files.total_bytes() as f64 / 1e6,
        series[0].0.mean_bytes / 1000.0
    )?;
    let labels = configs.map(|c| format!("{:>11}", c.label()));
    writeln!(out, "{:>8} {}", "reqs/s", labels.join(" "))?;
    for (i, rate) in rates.iter().enumerate() {
        let cells = series.iter().map(|(_, pts)| pts[i].goodput_mbps);
        let cells: Vec<String> = cells.map(|mbps| format!("{mbps:>11.0}")).collect();
        writeln!(out, "{rate:>8.0} {}", cells.join(" "))?;
    }
    writeln!(out, "\n  peaks:")?;
    for (model, _) in &series {
        let label = model.config.label();
        let paper = paper_value(&PAPER_FIG9_PEAKS, label).expect("a peak per system");
        let (at, cost) = (model.capacity(), model.cycles_per_request);
        let peak = row(label, model.peak_mbps(), paper, "Mb/s");
        writeln!(out, "{peak}   ({at:.0} reqs/s, {cost:.0} cycles/req)")?;
    }
    Ok(out)
}

/// Figure 10: transmit throughput against the number of fast-path
/// routines implemented as upcalls (`netif_rx` is always native, so the
/// X axis runs 0..=9). Beyond the paper's per-packet regime, two more
/// columns show what the burst pipeline and the deferred-upcall engine
/// change: burst-32 synchronous upcalls (the stack amortizes, every
/// upcall keeps its switch-pair) and burst-32 deferred upcalls (one
/// switch-pair per flush).
pub fn upcalls(packets: u64) -> Rendered {
    let endpoints = PAPER_FIG10_ENDPOINTS.map(|(n, mbps)| format!("{mbps:.0} Mb/s at {n}"));
    let mut out = banner(
        "Figure 10 — Transmit throughput vs upcalls per driver invocation",
        &endpoints.join(", "),
    );
    let build = |upcall_count, upcall_mode| {
        let opts = SystemOptions {
            upcall_count,
            upcall_mode,
            ..SystemOptions::default()
        };
        System::build_with(Config::TwinDrivers, &opts)
    };
    let mbps = |cycles_per_packet| throughput(cycles_per_packet, TESTBED_NICS).mbps;
    writeln!(
        out,
        " upcalls     Mb/s  paper Mb/s  cycles/packet  upcalls/pkt   b32 Mb/s  b32+defer Mb/s"
    )?;
    for n in 0..=9usize {
        let b = build(n, UpcallMode::Sync)?.measure_tx(packets)?;
        let per_pkt = b.event("upcall") as f64 / b.packets as f64;
        let b32 = build(n, UpcallMode::Sync)?.measure_tx_burst(32, packets)?;
        let deferred = build(n, UpcallMode::Deferred)?.measure_tx_burst(32, packets)?;
        let paper = PAPER_FIG10_ENDPOINTS.iter().find(|(at, _)| *at == n);
        let paper = paper.map_or("-".to_string(), |(_, mbps)| format!("{mbps:.0}"));
        writeln!(
            out,
            "{n:>8} {:>8.0} {paper:>11} {:>14.0} {per_pkt:>12.2} {:>10.0} {:>15.0}",
            mbps(b.total()),
            b.total(),
            mbps(b32.breakdown.total()),
            mbps(deferred.breakdown.total())
        )?;
    }
    Ok(out)
}

/// Table 1: the support routines the driver and the paravirtual glue
/// call during `packets` error-free transmits and receives, against the
/// paper's ten, and against every routine the driver references on any
/// path (the paper counts 97).
pub fn table1(packets: u64) -> Rendered {
    let mut out = banner(
        "Table 1 — Support routines on the error-free TX/RX fast path",
        "10 routines, out of 97 called by the driver overall",
    );
    let mut sys = System::build(Config::TwinDrivers)?;
    sys.world.kernel.trace.enabled = true;
    sys.world.kernel.trace.phase = "fastpath";
    for _ in 0..packets {
        sys.transmit_one()?;
        sys.receive_one()?;
    }
    let fast = sys.world.kernel.trace.names_in_phase("fastpath");
    let module = twin_isa::asm::assemble("e1000", &e1000::source())?;
    let referenced = module.undefined_symbols();
    let referenced = referenced.iter().filter(|s| !s.starts_with("__svm"));
    writeln!(out, "  {:<24} Description", "Routine name")?;
    writeln!(out, "  {:-<24} {:-<40}", "", "")?;
    for (name, desc) in PAPER_TABLE1 {
        let seen = match fast.contains(name) {
            true => "measured",
            false => "MISSING ",
        };
        writeln!(out, "  {name:<24} {desc:<40} [{seen}]")?;
    }
    let table1 = |n: &&String| RoutineId::lookup(n).is_some_and(|id| id.fast_path().is_some());
    let extra: Vec<&String> = fast.iter().filter(|n| !table1(n)).collect();
    writeln!(out, "\n  fast-path routines measured : {}", fast.len())?;
    writeln!(out, "  unexpected fast-path entries: {extra:?}")?;
    let total = referenced.count();
    writeln!(
        out,
        "  routines the driver calls on any path: {total} (paper: 97)"
    )?;
    Ok(out)
}

/// §6.5, engineering effort: the paper implemented the ten fast-path
/// routines in 851 lines of commented C. Counts the equivalent here —
/// the hypervisor support module under `root` — against the full dom0
/// support surface (the routine table and the bodies) the upcall
/// mechanism lets the hypervisor *not* reimplement.
pub fn effort(root: &Path) -> Rendered {
    let loc = |files: &[&str]| {
        let mut lines = 0;
        for file in files {
            let path = root.join(file);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            // Product code only: up to the file's test module.
            let product = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
            lines += product.filter(|l| !l.trim().is_empty()).count();
        }
        Ok::<_, String>(lines)
    };
    let hyper = loc(&["crates/xen/src/support.rs"])?;
    let dom0 = loc(&[
        "crates/kernel/src/routines.rs",
        "crates/kernel/src/support.rs",
    ])?;
    let fast = |r: &&twin_kernel::Routine| matches!(r.usage, Usage::FastPath(_));
    let (native, known) = (ROUTINES.iter().filter(fast).count(), ROUTINES.len());
    let (upcalled, share) = (known - native, 100.0 * native as f64 / known as f64);
    let mut out = banner(
        "§6.5 — Engineering effort",
        "851 LoC of commented C for the 10 hypervisor support routines",
    );
    write!(
        out,
        "  hypervisor support (10 routines + upcalls): {hyper:>5} LoC  (paper: {PAPER_EFFORT_LOC})\n\
         \x20 full dom0 support surface              : {dom0:>5} LoC\n\
         \x20 routines implemented in the hypervisor : {native:>5}\n\
         \x20 routines reachable via upcalls instead : {upcalled:>5}\n\
         \x20 => the hypervisor implements {share:.0}% of the support surface by routine count;\n\
         \x20    everything else is reused from dom0 by upcall.\n"
    )?;
    Ok(out)
}

/// Ablations of three design choices on the TwinDrivers transmit path:
/// liveness analysis (paper §4.1 footnote 3: the cost of spilling),
/// stack-access checking (the §4.5.1 extension) and the transmit glue's
/// header-copy threshold (§5.3 uses 96 B).
pub fn ablations(packets: u64) -> Rendered {
    let mut out = banner(
        "Ablations — liveness, header-copy threshold, stack checks",
        "design-choice costs, not a paper figure (paper defaults: liveness on, 96 B copied)",
    );
    let measure = |opts: SystemOptions| {
        let b = System::build_with(Config::TwinDrivers, &opts)?.measure_tx(packets)?;
        Ok::<_, twindrivers::SystemError>((b.total(), b.cycles(CostDomain::Driver)))
    };
    let rewritten = |liveness, stack_checks| SystemOptions {
        rewrite: RewriteOptions {
            liveness,
            stack_checks,
        },
        ..SystemOptions::default()
    };
    let mut base = None;
    for (label, opts) in [
        ("baseline twin TX", SystemOptions::default()),
        ("without liveness (all spills)", rewritten(false, false)),
        ("with stack checks (§4.5.1)", rewritten(true, true)),
    ] {
        let (total, driver) = measure(opts)?;
        let base = *base.get_or_insert(driver);
        let rise = 100.0 * (driver - base) / base;
        writeln!(
            out,
            "  {label:<29}: total {total:>8.0}  driver {driver:>7.0}  (driver {rise:+.0}%)"
        )?;
    }
    writeln!(out, "\n  header-copy threshold sweep:")?;
    for bytes in [32u32, 64, 96, 192, 512, 1024] {
        let (total, _) = measure(SystemOptions {
            header_copy_bytes: bytes,
            ..SystemOptions::default()
        })?;
        writeln!(
            out,
            "    copy {bytes:>5} B: total {total:>8.0} cycles/packet"
        )?;
    }
    Ok(out)
}

/// What binary rewriting does to the e1000 driver (§5.1): static counts,
/// beside the run-time price Figure 7 puts on them, and the first Figure
/// 4 translation of the rewritten text.
pub fn rewrite(_packets: u64) -> Rendered {
    let sys = System::build(Config::TwinDrivers)?;
    let s = sys
        .rewrite_stats()
        .expect("TwinDrivers rewrites its driver");
    let mut out = banner(
        "Binary rewriting of the e1000 driver",
        "roughly 25% of a network driver's instructions reference memory (§4.1); \
         Fig. 7: rewritten 2218 vs native 960 cycles/packet",
    );
    let hyperdrv = sys.hyperdrv().expect("TwinDrivers loads it");
    write!(
        out,
        "  instructions : {} -> {} ({:.2}x)\n  memory sites : {} ({:.0}% of instructions)\n\
         \x20 string sites : {}\n  indirect     : {}\n  spill sites  : {}\n\
         \x20 fused sites  : {} (Fig. 4 translations the interpreter runs in one dispatch)\n\
         \x20 fused spills : {} (spill frames run in the same dispatch as their translation)\n",
        s.insns_before,
        s.insns_after,
        s.expansion_factor(),
        s.mem_sites,
        s.mem_fraction() * 100.0,
        s.string_sites,
        s.indirect_sites,
        s.spill_sites,
        sys.machine.image(hyperdrv.image).fused_sites(),
        sys.machine.image(hyperdrv.image).fused_frames()
    )?;
    let vm = twin_isa::asm::assemble("e1000", &e1000::source())?;
    let twin = twin_rewriter::rewrite(&vm, &RewriteOptions::default())?.module;
    let at = twin.labels[".Lsvm_retry_0"];
    writeln!(out, "\n  Fig. 4 at .Lsvm_retry_0:")?;
    for insn in &twin.text[at..at + stlb::TEMPLATE_LEN] {
        writeln!(out, "    {insn}")?;
    }
    Ok(out)
}

/// One artefact of the evaluation: its subcommand, its direction
/// argument (`""` if it takes none) and its function.
pub type Figure = (&'static str, &'static str, fn(u64) -> Rendered);

/// The repository this binary was built from — what `effort` counts.
const SOURCES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Every artefact, in the paper's order — what `all` walks.
pub static FIGURES: [Figure; 10] = [
    ("netperf", "tx", |n| netperf(Direction::Transmit, n)),
    ("netperf", "rx", |n| netperf(Direction::Receive, n)),
    ("breakdown", "tx", |n| breakdown(Direction::Transmit, n)),
    ("breakdown", "rx", |n| breakdown(Direction::Receive, n)),
    ("webserver", "", webserver),
    ("upcalls", "", upcalls),
    ("table1", "", table1),
    ("effort", "", |_| effort(Path::new(SOURCES))),
    ("ablations", "", ablations),
    ("rewrite", "", rewrite),
];

/// The command line, as the usage message states it.
pub const USAGE: &str = "usage: twindrivers-repro <netperf|breakdown> [tx|rx] \
     | <webserver|upcalls|table1|effort|ablations|rewrite|all>";

/// The artefacts a command line names: `all`, or one subcommand with the
/// direction it takes (`tx` when absent). `None` for anything else — an
/// unknown name, a direction that is neither `tx` nor `rx`, an argument a
/// subcommand does not take.
pub fn resolve(args: &[&str]) -> Option<Vec<&'static Figure>> {
    match args {
        ["all"] => Some(FIGURES.iter().collect()),
        [name] | [name, _] => {
            let named = || FIGURES.iter().filter(|f| f.0 == *name);
            let dir = args.get(1).copied().or(named().next().map(|f| f.1))?;
            named().find(|f| f.1 == dir).map(|f| vec![f])
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twin_kernel::DeferClass;

    #[test]
    fn the_name_table_resolves_every_documented_subcommand() {
        for figure in &FIGURES {
            let (name, dir, _) = *figure;
            assert!(USAGE.contains(name) && USAGE.contains(dir), "{name} {dir}");
            let named = resolve(&[name, dir]).unwrap();
            assert!(named.len() == 1 && std::ptr::eq(named[0], figure));
            // Without a direction: the transmit figure, or the only one.
            let default = resolve(&[name]).unwrap()[0];
            let default_dir = if dir == "rx" { "tx" } else { dir };
            assert_eq!((default.0, default.1), (name, default_dir));
        }
        let all = resolve(&["all"]).unwrap();
        assert_eq!(all.len(), FIGURES.len());
        let in_order = all.iter().zip(&FIGURES).all(|(a, b)| std::ptr::eq(*a, b));
        assert!(in_order, "`all` visits each artefact once");
    }

    #[test]
    fn a_typo_is_an_error_not_another_figure() {
        let wrong = "netperf rxx|breakdown recieve|frobnicate|table1 tx|netperf tx rx|all tx|";
        for line in wrong.split('|') {
            let args: Vec<&str> = line.split_whitespace().collect();
            assert!(resolve(&args).is_none(), "`{line}`");
        }
    }

    #[test]
    fn every_figure_carries_its_paper_reference_values() {
        for (name, dir, figure) in FIGURES {
            let text = figure(16).unwrap();
            let carries = |s: &str| assert!(text.contains(s), "{name} {dir} lacks `{s}`:\n{text}");
            carries("paper");
            match name {
                "netperf" | "breakdown" | "webserver" => {
                    Config::ALL.map(Config::label).into_iter().for_each(carries);
                }
                "table1" => {
                    let routines = PAPER_TABLE1.iter().map(|(routine, _)| *routine);
                    routines.for_each(carries);
                    assert!(!text.contains("MISSING"), "{text}");
                    carries("fast-path routines measured : 10");
                }
                "upcalls" => {
                    let first = |l: &str| l.split_whitespace().next()?.parse().ok();
                    let rows: Vec<usize> = text.lines().filter_map(first).collect();
                    assert_eq!(rows, (0..=9).collect::<Vec<_>>());
                    let endpoints = PAPER_FIG10_ENDPOINTS.map(|(_, mbps)| format!(" {mbps:.0} "));
                    endpoints.iter().for_each(|mbps| carries(mbps));
                }
                "effort" => carries(&PAPER_EFFORT_LOC.to_string()),
                _ => {}
            }
        }
    }

    #[test]
    fn effort_counts_product_lines_not_the_test_module() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/effort-fixture");
        let file = "//! Doc.\n\nfn body() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        for (dir, name) in [
            ("xen", "support"),
            ("kernel", "support"),
            ("kernel", "routines"),
        ] {
            let dir = root.join("crates").join(dir).join("src");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(name).with_extension("rs"), file).unwrap();
        }
        let text = effort(&root).unwrap();
        assert!(text.contains("upcalls):     2 LoC"), "{text}");
        assert!(text.contains("surface              :     4 LoC"), "{text}");
    }

    /// The interface list is consistent with itself and with the paper.
    #[test]
    fn the_routine_table_is_table1_first_unique_and_closed() {
        assert!(ROUTINES.len() >= 95, "{}", ROUTINES.len());
        for (i, r) in ROUTINES.iter().enumerate() {
            let id = RoutineId::lookup(r.name).unwrap();
            assert_eq!((id.index(), id.name()), (i, r.name), "unique, round-trips");
            // The first ten rows, and only they, are Table 1 in paper order.
            let paper = PAPER_TABLE1.get(i).map(|(name, _)| *name);
            assert_eq!(id.fast_path().map(|_| r.name), paper, "row {i}");
            // A native body waits only for queued work dom0 is owed:
            // fire-and-forget Table 1 rows, or frees the driver never
            // imports.
            for name in id.fast_path().map_or(&[][..], |fp| fp.flush_first) {
                let queued = RoutineId::lookup(name).unwrap();
                assert!(queued.is_flush_first());
                match ROUTINES[queued.index()].usage {
                    Usage::FastPath(fp) => assert_eq!(fp.defer, DeferClass::Deferred, "{name}"),
                    Usage::Dom0Only => assert!(name.contains("kfree_skb"), "{name}"),
                    _ => panic!("{} must not wait for long-tail {name}", r.name),
                }
            }
            if let Some(fp) = id.fast_path() {
                assert!(fp.arity <= 4, "a ring slot saves four arguments");
            }
        }
        assert_eq!(RoutineId::NETDEV_ALLOC_SKB.name(), "netdev_alloc_skb");
        assert!(RoutineId::lookup("no_such_routine").is_none());
        // Result-consuming routines must not be fire-and-forget.
        let class = |n| RoutineId::lookup(n).unwrap().fast_path().map(|fp| fp.defer);
        assert_eq!(class("spin_trylock"), Some(DeferClass::Continuation));
        assert_eq!(class("dma_map_single"), Some(DeferClass::Provisional));
        assert_eq!(class("kmalloc"), None, "the long tail stays synchronous");
    }

    #[test]
    fn effort_on_a_missing_path_is_an_error_naming_it() {
        let why = effort(Path::new("/nonexistent")).unwrap_err();
        assert!(
            why.to_string().starts_with("/nonexistent/crates/xen/"),
            "{why}"
        );
    }
}
