//! The assembly-level SVM rewriting transformation (paper §4.1, §5.1).
//!
//! For every instruction that references memory other than stack-relative
//! (`%esp`/`%ebp`-based) accesses, the rewriter emits the paper's Figure 4
//! fast path: effective address → stlb tag check → `xor` translation →
//! the original access through the translated address, with an out-of-line
//! slow path that calls `__svm_slow` and retries. Scratch registers come
//! from the liveness analysis; when fewer than three are free the site
//! spills (push/pop) — counted in [`RewriteStats`].
//!
//! String instructions are rewritten into page-chunked loops (§5.1.1) and
//! indirect calls are routed through `__svm_call_xlat` (§5.1.2).

use crate::liveness::Liveness;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use twin_isa::{
    AluOp, Cond, Insn, MemRef, Module, Operand, Reg, RegSet, Rep, ShiftOp, StrOp, Target, UnOp,
    Width,
};
use twin_machine::{stlb, PAGE_SIZE};
use twin_svm::{CALL_XLAT_SYMBOL, SLOW_PATH_SYMBOL, STLB_SYMBOL};

/// Extern called by the stack-protection extension (paper §4.5.1) to
/// validate variable-offset stack accesses at runtime.
pub const STACK_CHECK_SYMBOL: &str = "__svm_stack_check";

/// The SVM helpers a rewritten driver calls: one extern each.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SvmHelper {
    /// [`SLOW_PATH_SYMBOL`]: fill the stlb entry of an address (§5.1).
    SlowPath,
    /// [`CALL_XLAT_SYMBOL`]: translate an indirect call's target (§5.1.2).
    CallXlat,
    /// [`STACK_CHECK_SYMBOL`]: check a stack access (§4.5.1).
    StackCheck,
}

impl SvmHelper {
    /// The helper an extern symbol names, if it names one.
    pub fn lookup(name: &str) -> Option<SvmHelper> {
        match name {
            SLOW_PATH_SYMBOL => Some(SvmHelper::SlowPath),
            CALL_XLAT_SYMBOL => Some(SvmHelper::CallXlat),
            STACK_CHECK_SYMBOL => Some(SvmHelper::StackCheck),
            _ => None,
        }
    }
}

/// Options controlling the rewrite. A built system derives its driver
/// once per (source, options) pair, so equality is over every field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RewriteOptions {
    /// Use liveness analysis to find free scratch registers (paper
    /// default). With `false`, every SVM site spills — the ablation for
    /// footnote 3.
    pub liveness: bool,
    /// Insert runtime checks for variable-offset stack accesses
    /// (XFI-like extension the paper proposes in §4.5.1 but does not
    /// implement).
    pub stack_checks: bool,
}

impl Default for RewriteOptions {
    fn default() -> RewriteOptions {
        RewriteOptions {
            liveness: true,
            stack_checks: false,
        }
    }
}

/// Statistics from one rewrite run (reported by `twindrivers-repro
/// rewrite`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Instructions in the input module.
    pub insns_before: usize,
    /// Instructions in the output module.
    pub insns_after: usize,
    /// Plain memory-reference sites rewritten to the SVM fast path.
    pub mem_sites: usize,
    /// String-instruction sites rewritten to page-chunked loops.
    pub string_sites: usize,
    /// Indirect call/jump sites routed through `__svm_call_xlat`.
    pub indirect_sites: usize,
    /// Sites that needed register spills.
    pub spill_sites: usize,
    /// Total registers spilled across all sites.
    pub spilled_regs: usize,
    /// Runtime stack checks inserted (extension).
    pub stack_checks_inserted: usize,
    /// Stack accesses statically verified safe (constant offset).
    pub stack_static_verified: usize,
}

impl RewriteStats {
    /// Code-size expansion factor.
    pub fn expansion_factor(&self) -> f64 {
        if self.insns_before == 0 {
            1.0
        } else {
            self.insns_after as f64 / self.insns_before as f64
        }
    }

    /// Fraction of input instructions that referenced memory (the paper
    /// measures "roughly 25%" for network drivers).
    pub fn mem_fraction(&self) -> f64 {
        if self.insns_before == 0 {
            0.0
        } else {
            (self.mem_sites + self.string_sites) as f64 / self.insns_before as f64
        }
    }
}

/// Errors detected during rewriting.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RewriteError {
    /// An instruction had two non-stack memory operands (not valid in the
    /// modeled ISA).
    TwoMemOperands {
        /// Instruction index in the input module.
        index: usize,
    },
    /// A privileged instruction was found. The scan always runs (paper
    /// §4.5.2: "detected and prevented by static inspection of the
    /// driver code during binary translation").
    Privileged {
        /// Instruction index in the input module.
        index: usize,
        /// Rendered instruction.
        insn: String,
    },
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::TwoMemOperands { index } => {
                write!(f, "instruction {index} has two memory operands")
            }
            RewriteError::Privileged { index, insn } => {
                write!(f, "privileged instruction `{insn}` at index {index}")
            }
        }
    }
}

impl Error for RewriteError {}

/// Output of a rewrite: the derived module plus statistics.
#[derive(Clone, Debug)]
pub struct RewriteOutput {
    /// The rewritten module (the "hypervisor driver binary").
    pub module: Module,
    /// Rewrite statistics.
    pub stats: RewriteStats,
}

struct Emitter {
    text: Vec<Insn>,
    labels: BTreeMap<String, usize>,
    deferred: Vec<(String, Vec<Insn>)>,
    site: u32,
}

impl Emitter {
    fn new() -> Emitter {
        Emitter {
            text: Vec::new(),
            labels: BTreeMap::new(),
            deferred: Vec::new(),
            site: 0,
        }
    }

    fn emit(&mut self, i: Insn) {
        self.text.push(i);
    }

    fn label_here(&mut self, name: String) {
        self.labels.insert(name, self.text.len());
    }

    fn fresh(&mut self, kind: &str) -> String {
        let n = self.site;
        self.site += 1;
        format!(".Lsvm_{kind}_{n}")
    }
}

fn mov(dst: Reg, src: Operand) -> Insn {
    Insn::Mov {
        w: Width::Long,
        dst: Operand::Reg(dst),
        src,
    }
}

fn alu_ri(op: AluOp, dst: Reg, imm: i64) -> Insn {
    Insn::Alu {
        op,
        w: Width::Long,
        dst: Operand::Reg(dst),
        src: Operand::Imm(imm),
    }
}

fn alu_rr(op: AluOp, dst: Reg, src: Reg) -> Insn {
    Insn::Alu {
        op,
        w: Width::Long,
        dst: Operand::Reg(dst),
        src: Operand::Reg(src),
    }
}

/// Emits the Figure 4 fast path, [`stlb::template`], at a fresh retry
/// label: translates the address `addr` names into `out`; `s1`/`s2` are
/// scratch. The slow path is deferred to the end of the module and jumps
/// back to the retry label.
fn emit_fastpath(em: &mut Emitter, addr: MemRef, out: Reg, s1: Reg, s2: Reg) {
    let retry = em.fresh("retry");
    let slow = em.fresh("slow");
    em.label_here(retry.clone());
    let table = MemRef::sym(STLB_SYMBOL, 0);
    let miss = Target::Label(slow.clone());
    em.text
        .extend(stlb::template(addr, out, s1, s2, table, miss));
    // Deferred slow path: push the untranslated address (still in `out`),
    // let the handler fill the stlb, retry.
    em.deferred.push((
        slow,
        vec![
            Insn::Push {
                src: Operand::Reg(out),
            },
            Insn::Call {
                target: Target::Label(SLOW_PATH_SYMBOL.to_string()),
            },
            alu_ri(AluOp::Add, Reg::Esp, 4),
            Insn::Jmp {
                target: Target::Label(retry),
            },
        ],
    ));
}

/// Scratch selection for a generic memory site: three registers not used
/// by the instruction; dead ones preferred, spills otherwise.
///
/// `regs[0]` is the `out` register holding the translated address; when
/// any dead register exists it is assigned to `out`, so spilled registers
/// can be restored *before* the final access. That ordering is what makes
/// rewritten `push`/`pop` instructions with spills correct: a spill `pop`
/// after the rewritten `push` would consume the value just pushed.
struct Scratch {
    regs: [Reg; 3],
    spills: Vec<Reg>,
}

impl Scratch {
    /// Whether the `out` register itself had to be spilled (no dead
    /// register was available at this site).
    fn out_spilled(&self) -> bool {
        self.spills.contains(&self.regs[0])
    }
}

fn pick_scratch(insn: &Insn, live_out: RegSet, blocked_extra: RegSet) -> Scratch {
    let blocked = insn.uses().union(blocked_extra);
    let defs = insn.defs();
    let mut chosen = Vec::new();
    let mut spills = Vec::new();
    // Dead (or about-to-be-defined) registers first — the first of these
    // becomes `out`.
    for r in Reg::SCRATCH_CANDIDATES {
        if chosen.len() == 3 {
            break;
        }
        if blocked.contains(r) {
            continue;
        }
        if defs.contains(r) || !live_out.contains(r) {
            chosen.push(r);
        }
    }
    // Spill live registers if needed (excluding defs: popping one would
    // clobber the instruction's result).
    for r in Reg::SCRATCH_CANDIDATES {
        if chosen.len() == 3 {
            break;
        }
        if blocked.contains(r) || chosen.contains(&r) || defs.contains(r) {
            continue;
        }
        chosen.push(r);
        spills.push(r);
    }
    assert!(chosen.len() == 3, "ISA guarantees three scratch registers");
    Scratch {
        regs: [chosen[0], chosen[1], chosen[2]],
        spills,
    }
}

/// Replaces the (single) non-stack memory operand of `insn` with `(%out)`.
fn substitute_mem(insn: &Insn, out: Reg) -> Insn {
    let rep = |op: &Operand| -> Operand {
        match op {
            Operand::Mem(m) if !m.is_stack_relative() => Operand::Mem(MemRef::base_disp(out, 0)),
            other => other.clone(),
        }
    };
    match insn {
        Insn::Mov { w, dst, src } => Insn::Mov {
            w: *w,
            dst: rep(dst),
            src: rep(src),
        },
        Insn::Movzx { w, dst, src } => Insn::Movzx {
            w: *w,
            dst: *dst,
            src: rep(src),
        },
        Insn::Movsx { w, dst, src } => Insn::Movsx {
            w: *w,
            dst: *dst,
            src: rep(src),
        },
        Insn::Alu { op, w, dst, src } => Insn::Alu {
            op: *op,
            w: *w,
            dst: rep(dst),
            src: rep(src),
        },
        Insn::Shift { op, dst, amount } => Insn::Shift {
            op: *op,
            dst: rep(dst),
            amount: amount.clone(),
        },
        Insn::Cmp { w, src, dst } => Insn::Cmp {
            w: *w,
            src: rep(src),
            dst: rep(dst),
        },
        Insn::Test { w, src, dst } => Insn::Test {
            w: *w,
            src: rep(src),
            dst: rep(dst),
        },
        Insn::Un { op, w, dst } => Insn::Un {
            op: *op,
            w: *w,
            dst: rep(dst),
        },
        Insn::Imul { dst, src } => Insn::Imul {
            dst: *dst,
            src: rep(src),
        },
        Insn::Push { src } => Insn::Push { src: rep(src) },
        Insn::Pop { dst } => Insn::Pop { dst: rep(dst) },
        other => other.clone(),
    }
}

/// Rewrites `module` into its hypervisor-driver form.
///
/// # Errors
///
/// See [`RewriteError`].
pub fn rewrite(module: &Module, opts: &RewriteOptions) -> Result<RewriteOutput, RewriteError> {
    let liveness = if opts.liveness {
        Liveness::compute(module)
    } else {
        Liveness::all_live(module)
    };

    let mut stats = RewriteStats {
        insns_before: module.text.len(),
        ..RewriteStats::default()
    };
    let mut em = Emitter::new();
    let mut index_map = vec![0usize; module.text.len() + 1];

    for (i, insn) in module.text.iter().enumerate() {
        index_map[i] = em.text.len();
        let live_out = liveness.live_out(i);

        if matches!(insn, Insn::Hlt) {
            return Err(RewriteError::Privileged {
                index: i,
                insn: insn.to_string(),
            });
        }

        // Optional stack-protection extension (§4.5.1).
        if opts.stack_checks {
            for m in insn.explicit_mem_refs() {
                if m.is_stack_relative() {
                    if m.index.is_some() {
                        emit_stack_check(&mut em, m.clone(), insn, live_out, &mut stats);
                    } else {
                        stats.stack_static_verified += 1;
                    }
                }
            }
        }

        match insn {
            Insn::Str { op, w, rep } => {
                stats.string_sites += 1;
                match op {
                    StrOp::Movs => emit_movs_loop(&mut em, *w, *rep),
                    StrOp::Stos => emit_stos_loop(&mut em, *w, *rep),
                    StrOp::Lods | StrOp::Cmps | StrOp::Scas => {
                        emit_element_loop(&mut em, *op, *w, *rep)
                    }
                }
            }
            Insn::Call { target } | Insn::Jmp { target } if target.is_indirect() => {
                stats.indirect_sites += 1;
                let is_call = matches!(insn, Insn::Call { .. });
                emit_indirect(&mut em, target, is_call, &mut stats);
            }
            _ if insn.needs_svm() => {
                let mems: Vec<&MemRef> = insn
                    .explicit_mem_refs()
                    .into_iter()
                    .filter(|m| !m.is_stack_relative())
                    .collect();
                if mems.len() > 1 {
                    return Err(RewriteError::TwoMemOperands { index: i });
                }
                stats.mem_sites += 1;
                let mem = mems[0].clone();
                let sc = pick_scratch(insn, live_out, RegSet::EMPTY);
                if !sc.spills.is_empty() {
                    stats.spill_sites += 1;
                    stats.spilled_regs += sc.spills.len();
                }
                let stack_op = matches!(insn, Insn::Push { .. } | Insn::Pop { .. });
                if stack_op && sc.out_spilled() {
                    // Every scratch register is live (no-liveness mode, or
                    // extreme pressure): rewrite push/pop through a
                    // reserved stack slot so spill restores cannot consume
                    // the pushed/popped value.
                    emit_stack_op_all_spilled(&mut em, insn, &mem, &sc);
                } else {
                    for r in &sc.spills {
                        em.emit(Insn::Push {
                            src: Operand::Reg(*r),
                        });
                    }
                    let [out, s1, s2] = sc.regs;
                    emit_fastpath(&mut em, mem, out, s1, s2);
                    if !sc.out_spilled() {
                        // Restore spills before the access: mandatory for
                        // push/pop, harmless otherwise (`out` is dead).
                        for r in sc.spills.iter().rev() {
                            em.emit(Insn::Pop {
                                dst: Operand::Reg(*r),
                            });
                        }
                        em.emit(substitute_mem(insn, out));
                    } else {
                        em.emit(substitute_mem(insn, out));
                        for r in sc.spills.iter().rev() {
                            em.emit(Insn::Pop {
                                dst: Operand::Reg(*r),
                            });
                        }
                    }
                }
            }
            other => em.emit(other.clone()),
        }
    }
    index_map[module.text.len()] = em.text.len();

    // Barrier so straight-line code cannot fall into the slow paths.
    em.emit(Insn::Int3);
    let deferred = std::mem::take(&mut em.deferred);
    for (label, body) in deferred {
        em.label_here(label);
        for insn in body {
            em.emit(insn);
        }
    }

    let mut out = Module::new(format!("{}.twin", module.name));
    out.text = em.text;
    out.labels = em.labels;
    for (name, old_idx) in &module.labels {
        out.labels.insert(name.clone(), index_map[*old_idx]);
    }
    out.globals = module.globals.clone();
    out.externs = module.externs.clone();
    out.externs.insert(SLOW_PATH_SYMBOL.to_string());
    out.externs.insert(CALL_XLAT_SYMBOL.to_string());
    out.externs.insert(STLB_SYMBOL.to_string());
    if opts.stack_checks {
        out.externs.insert(STACK_CHECK_SYMBOL.to_string());
    }
    out.data = module.data.clone();

    stats.insns_after = out.text.len();
    Ok(RewriteOutput { module: out, stats })
}

/// Rewrites `pushl mem` / `popl mem` when all three scratch registers are
/// spilled. A value slot on the stack decouples the spill frames from the
/// pushed/popped value:
///
/// * push: reserve the slot, spill, translate, load the value through
///   `out`, store it into the slot stack-relatively, restore spills — the
///   slot (now on top) is the pushed value.
/// * pop: spill above the existing value, translate, copy the value from
///   its known offset through `out`, restore spills, drop the value.
fn emit_stack_op_all_spilled(em: &mut Emitter, insn: &Insn, mem: &MemRef, sc: &Scratch) {
    let [out, s1, s2] = sc.regs;
    let is_push = matches!(insn, Insn::Push { .. });
    if is_push {
        em.emit(alu_ri(AluOp::Sub, Reg::Esp, 4)); // reserve the value slot
    }
    for r in &sc.spills {
        em.emit(Insn::Push {
            src: Operand::Reg(*r),
        });
    }
    let depth = 4 * sc.spills.len() as i64;
    emit_fastpath(em, mem.clone(), out, s1, s2);
    if is_push {
        em.emit(mov(out, Operand::Mem(MemRef::base_disp(out, 0))));
        em.emit(Insn::Mov {
            w: Width::Long,
            dst: Operand::Mem(MemRef::base_disp(Reg::Esp, depth)),
            src: Operand::Reg(out),
        });
        for r in sc.spills.iter().rev() {
            em.emit(Insn::Pop {
                dst: Operand::Reg(*r),
            });
        }
    } else {
        // Value to pop sits just above the spill frames; `s1` carries it
        // (s1's real value is restored right after).
        em.emit(Insn::Mov {
            w: Width::Long,
            dst: Operand::Reg(s1),
            src: Operand::Mem(MemRef::base_disp(Reg::Esp, depth)),
        });
        em.emit(Insn::Mov {
            w: Width::Long,
            dst: Operand::Mem(MemRef::base_disp(out, 0)),
            src: Operand::Reg(s1),
        });
        for r in sc.spills.iter().rev() {
            em.emit(Insn::Pop {
                dst: Operand::Reg(*r),
            });
        }
        em.emit(alu_ri(AluOp::Add, Reg::Esp, 4)); // consume the value
    }
}

fn emit_stack_check(
    em: &mut Emitter,
    mem: MemRef,
    insn: &Insn,
    live_out: RegSet,
    stats: &mut RewriteStats,
) {
    stats.stack_checks_inserted += 1;
    let sc = pick_scratch(insn, live_out, RegSet::EMPTY);
    let s = sc.regs[0];
    let spill = sc.spills.contains(&s);
    if spill {
        em.emit(Insn::Push {
            src: Operand::Reg(s),
        });
    }
    em.emit(Insn::Lea { dst: s, mem });
    em.emit(Insn::Push {
        src: Operand::Reg(s),
    });
    em.emit(Insn::Call {
        target: Target::Label(STACK_CHECK_SYMBOL.to_string()),
    });
    em.emit(alu_ri(AluOp::Add, Reg::Esp, 4));
    if spill {
        em.emit(Insn::Pop {
            dst: Operand::Reg(s),
        });
    }
}

fn emit_indirect(em: &mut Emitter, target: &Target, is_call: bool, stats: &mut RewriteStats) {
    // Calling convention: %eax/%ecx/%edx are caller-saved, so they are
    // free at a call site (the original call clobbered them anyway).
    match target {
        Target::Reg(r) => {
            if *r != Reg::Eax {
                em.emit(mov(Reg::Eax, Operand::Reg(*r)));
            }
        }
        Target::Mem(m) => {
            if m.is_stack_relative() {
                // Stack-held function pointer: plain load, no translation
                // of the *address*; the value still needs call translation.
                em.emit(mov(Reg::Eax, Operand::Mem(m.clone())));
            } else {
                stats.mem_sites += 1;
                // Translate the pointer location via SVM, then load it.
                emit_fastpath(em, m.clone(), Reg::Eax, Reg::Ecx, Reg::Edx);
                em.emit(mov(Reg::Eax, Operand::Mem(MemRef::base_disp(Reg::Eax, 0))));
            }
        }
        _ => unreachable!("direct targets are not rewritten"),
    }
    em.emit(Insn::Push {
        src: Operand::Reg(Reg::Eax),
    });
    em.emit(Insn::Call {
        target: Target::Label(CALL_XLAT_SYMBOL.to_string()),
    });
    em.emit(alu_ri(AluOp::Add, Reg::Esp, 4));
    if is_call {
        em.emit(Insn::Call {
            target: Target::Reg(Reg::Eax),
        });
    } else {
        em.emit(Insn::Jmp {
            target: Target::Reg(Reg::Eax),
        });
    }
}

fn log2_bytes(w: Width) -> u32 {
    match w {
        Width::Byte => 0,
        Width::Word => 1,
        Width::Long => 2,
    }
}

/// `dst` = the `1 << k`-byte elements from `ptr` to the end of its page:
/// `((ptr | page offset bits) + 1 - ptr) >> k`.
fn emit_to_page_end(em: &mut Emitter, dst: Reg, ptr: Reg, k: u32) {
    em.emit(mov(dst, Operand::Reg(ptr)));
    em.emit(alu_ri(AluOp::Or, dst, PAGE_SIZE as i64 - 1));
    em.emit(Insn::Un {
        op: UnOp::Inc,
        w: Width::Long,
        dst: Operand::Reg(dst),
    });
    em.emit(alu_rr(AluOp::Sub, dst, ptr));
    if k > 0 {
        em.emit(Insn::Shift {
            op: ShiftOp::Shr,
            dst: Operand::Reg(dst),
            amount: Operand::Imm(k as i64),
        });
    }
}

/// Page-chunked `movs` loop (paper §5.1.1): "loops over the entire string
/// in chunks of page length, and use[s] the string instruction on the
/// individual string chunks that are guaranteed to lie within a single
/// page".
fn emit_movs_loop(em: &mut Emitter, w: Width, rep: Rep) {
    let k = log2_bytes(w);
    let single = matches!(rep, Rep::None);
    let top = em.fresh("movs_top");
    let done = em.fresh("movs_done");
    let m1 = em.fresh("movs_m1");
    let m2 = em.fresh("movs_m2");
    let m3 = em.fresh("movs_m3");

    for r in [Reg::Eax, Reg::Ebx, Reg::Edx] {
        em.emit(Insn::Push {
            src: Operand::Reg(r),
        });
    }
    if single {
        em.emit(Insn::Push {
            src: Operand::Reg(Reg::Ecx),
        });
        em.emit(mov(Reg::Ecx, Operand::Imm(1)));
    }
    em.label_here(top.clone());
    em.emit(Insn::Cmp {
        w: Width::Long,
        src: Operand::Imm(0),
        dst: Operand::Reg(Reg::Ecx),
    });
    em.emit(Insn::Jcc {
        cond: Cond::E,
        target: Target::Label(done.clone()),
    });
    emit_to_page_end(em, Reg::Eax, Reg::Esi, k);
    emit_to_page_end(em, Reg::Ebx, Reg::Edi, k);
    // edx = max(1, min(ecx, eax, ebx)).
    em.emit(mov(Reg::Edx, Operand::Reg(Reg::Ecx)));
    em.emit(Insn::Cmp {
        w: Width::Long,
        src: Operand::Reg(Reg::Eax),
        dst: Operand::Reg(Reg::Edx),
    });
    em.emit(Insn::Jcc {
        cond: Cond::Be,
        target: Target::Label(m1.clone()),
    });
    em.emit(mov(Reg::Edx, Operand::Reg(Reg::Eax)));
    em.label_here(m1);
    em.emit(Insn::Cmp {
        w: Width::Long,
        src: Operand::Reg(Reg::Ebx),
        dst: Operand::Reg(Reg::Edx),
    });
    em.emit(Insn::Jcc {
        cond: Cond::Be,
        target: Target::Label(m2.clone()),
    });
    em.emit(mov(Reg::Edx, Operand::Reg(Reg::Ebx)));
    em.label_here(m2);
    em.emit(Insn::Cmp {
        w: Width::Long,
        src: Operand::Imm(0),
        dst: Operand::Reg(Reg::Edx),
    });
    em.emit(Insn::Jcc {
        cond: Cond::Ne,
        target: Target::Label(m3.clone()),
    });
    em.emit(mov(Reg::Edx, Operand::Imm(1)));
    em.label_here(m3);
    // Save originals, translate pointers in place, run the chunk.
    for r in [Reg::Esi, Reg::Edi, Reg::Ecx] {
        em.emit(Insn::Push {
            src: Operand::Reg(r),
        });
    }
    for r in [Reg::Esi, Reg::Edi] {
        emit_fastpath(em, MemRef::base_disp(r, 0), r, Reg::Eax, Reg::Ebx);
    }
    em.emit(mov(Reg::Ecx, Operand::Reg(Reg::Edx)));
    em.emit(Insn::Str {
        op: StrOp::Movs,
        w,
        rep: Rep::Rep,
    });
    for r in [Reg::Ecx, Reg::Edi, Reg::Esi] {
        em.emit(Insn::Pop {
            dst: Operand::Reg(r),
        });
    }
    // Advance originals by the chunk.
    em.emit(mov(Reg::Eax, Operand::Reg(Reg::Edx)));
    if k > 0 {
        em.emit(Insn::Shift {
            op: ShiftOp::Shl,
            dst: Operand::Reg(Reg::Eax),
            amount: Operand::Imm(k as i64),
        });
    }
    em.emit(alu_rr(AluOp::Add, Reg::Esi, Reg::Eax));
    em.emit(alu_rr(AluOp::Add, Reg::Edi, Reg::Eax));
    em.emit(alu_rr(AluOp::Sub, Reg::Ecx, Reg::Edx));
    em.emit(Insn::Jmp {
        target: Target::Label(top),
    });
    em.label_here(done);
    if single {
        em.emit(Insn::Pop {
            dst: Operand::Reg(Reg::Ecx),
        });
    }
    for r in [Reg::Edx, Reg::Ebx, Reg::Eax] {
        em.emit(Insn::Pop {
            dst: Operand::Reg(r),
        });
    }
}

/// Page-chunked `stos` loop. `%eax` holds the stored value, so scratch is
/// restricted to `%ebx`/`%edx`/`%esi` (all saved).
fn emit_stos_loop(em: &mut Emitter, w: Width, rep: Rep) {
    let k = log2_bytes(w);
    let single = matches!(rep, Rep::None);
    let top = em.fresh("stos_top");
    let done = em.fresh("stos_done");
    let m1 = em.fresh("stos_m1");
    let m2 = em.fresh("stos_m2");

    for r in [Reg::Ebx, Reg::Edx, Reg::Esi] {
        em.emit(Insn::Push {
            src: Operand::Reg(r),
        });
    }
    if single {
        em.emit(Insn::Push {
            src: Operand::Reg(Reg::Ecx),
        });
        em.emit(mov(Reg::Ecx, Operand::Imm(1)));
    }
    em.label_here(top.clone());
    em.emit(Insn::Cmp {
        w: Width::Long,
        src: Operand::Imm(0),
        dst: Operand::Reg(Reg::Ecx),
    });
    em.emit(Insn::Jcc {
        cond: Cond::E,
        target: Target::Label(done.clone()),
    });
    emit_to_page_end(em, Reg::Ebx, Reg::Edi, k);
    // esi = max(1, min(ecx, ebx)) — chunk size.
    em.emit(mov(Reg::Esi, Operand::Reg(Reg::Ecx)));
    em.emit(Insn::Cmp {
        w: Width::Long,
        src: Operand::Reg(Reg::Ebx),
        dst: Operand::Reg(Reg::Esi),
    });
    em.emit(Insn::Jcc {
        cond: Cond::Be,
        target: Target::Label(m1.clone()),
    });
    em.emit(mov(Reg::Esi, Operand::Reg(Reg::Ebx)));
    em.label_here(m1);
    em.emit(Insn::Cmp {
        w: Width::Long,
        src: Operand::Imm(0),
        dst: Operand::Reg(Reg::Esi),
    });
    em.emit(Insn::Jcc {
        cond: Cond::Ne,
        target: Target::Label(m2.clone()),
    });
    em.emit(mov(Reg::Esi, Operand::Imm(1)));
    em.label_here(m2);
    em.emit(Insn::Push {
        src: Operand::Reg(Reg::Edi),
    });
    em.emit(Insn::Push {
        src: Operand::Reg(Reg::Ecx),
    });
    let edi = MemRef::base_disp(Reg::Edi, 0);
    emit_fastpath(em, edi, Reg::Edi, Reg::Ebx, Reg::Edx);
    em.emit(mov(Reg::Ecx, Operand::Reg(Reg::Esi)));
    em.emit(Insn::Str {
        op: StrOp::Stos,
        w,
        rep: Rep::Rep,
    });
    em.emit(Insn::Pop {
        dst: Operand::Reg(Reg::Ecx),
    });
    em.emit(Insn::Pop {
        dst: Operand::Reg(Reg::Edi),
    });
    em.emit(mov(Reg::Ebx, Operand::Reg(Reg::Esi)));
    if k > 0 {
        em.emit(Insn::Shift {
            op: ShiftOp::Shl,
            dst: Operand::Reg(Reg::Ebx),
            amount: Operand::Imm(k as i64),
        });
    }
    em.emit(alu_rr(AluOp::Add, Reg::Edi, Reg::Ebx));
    em.emit(alu_rr(AluOp::Sub, Reg::Ecx, Reg::Esi));
    em.emit(Insn::Jmp {
        target: Target::Label(top),
    });
    em.label_here(done);
    if single {
        em.emit(Insn::Pop {
            dst: Operand::Reg(Reg::Ecx),
        });
    }
    for r in [Reg::Esi, Reg::Edx, Reg::Ebx] {
        em.emit(Insn::Pop {
            dst: Operand::Reg(r),
        });
    }
}

/// Per-element loop for `lods`/`cmps`/`scas`: translate, run one element
/// on the translated pointers, restore and advance the originals with
/// flag-preserving `lea`, then apply the repeat-prefix exit conditions.
fn emit_element_loop(em: &mut Emitter, op: StrOp, w: Width, rep: Rep) {
    let step = w.bytes() as i64;
    let single = matches!(rep, Rep::None);
    let top = em.fresh("str_top");
    let done = em.fresh("str_done");

    // %eax is data for lods/scas; scratch must avoid it.
    for r in [Reg::Ebx, Reg::Edx] {
        em.emit(Insn::Push {
            src: Operand::Reg(r),
        });
    }
    em.label_here(top.clone());
    if !single {
        em.emit(Insn::Cmp {
            w: Width::Long,
            src: Operand::Imm(0),
            dst: Operand::Reg(Reg::Ecx),
        });
        em.emit(Insn::Jcc {
            cond: Cond::E,
            target: Target::Label(done.clone()),
        });
    }
    let uses_si = op.reads_si();
    let uses_di = op.uses_di();
    if uses_si {
        em.emit(Insn::Push {
            src: Operand::Reg(Reg::Esi),
        });
    }
    if uses_di {
        em.emit(Insn::Push {
            src: Operand::Reg(Reg::Edi),
        });
    }
    for (r, used) in [(Reg::Esi, uses_si), (Reg::Edi, uses_di)] {
        if used {
            emit_fastpath(em, MemRef::base_disp(r, 0), r, Reg::Ebx, Reg::Edx);
        }
    }
    em.emit(Insn::Str {
        op,
        w,
        rep: Rep::None,
    });
    if uses_di {
        em.emit(Insn::Pop {
            dst: Operand::Reg(Reg::Edi),
        });
    }
    if uses_si {
        em.emit(Insn::Pop {
            dst: Operand::Reg(Reg::Esi),
        });
    }
    // Advance with flag-preserving lea.
    if uses_si {
        em.emit(Insn::Lea {
            dst: Reg::Esi,
            mem: MemRef::base_disp(Reg::Esi, step),
        });
    }
    if uses_di {
        em.emit(Insn::Lea {
            dst: Reg::Edi,
            mem: MemRef::base_disp(Reg::Edi, step),
        });
    }
    if !single {
        // Exit on the comparison flags *before* they are clobbered.
        match rep {
            Rep::Repe => em.emit(Insn::Jcc {
                cond: Cond::Ne,
                target: Target::Label(done.clone()),
            }),
            Rep::Repne => em.emit(Insn::Jcc {
                cond: Cond::E,
                target: Target::Label(done.clone()),
            }),
            _ => {}
        }
        em.emit(Insn::Un {
            op: UnOp::Dec,
            w: Width::Long,
            dst: Operand::Reg(Reg::Ecx),
        });
        em.emit(Insn::Jmp {
            target: Target::Label(top),
        });
    }
    em.label_here(done);
    for r in [Reg::Edx, Reg::Ebx] {
        em.emit(Insn::Pop {
            dst: Operand::Reg(r),
        });
    }
}
