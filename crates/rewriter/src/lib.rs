//! # twin-rewriter — deriving the hypervisor driver by binary rewriting
//!
//! This crate is the paper's "assembler-level rewriting tool" (§5.1): it
//! takes the VM driver module produced by `twin_isa::asm::assemble` and
//! derives the hypervisor driver module, in which
//!
//! * every non-stack memory reference runs through the SVM fast path
//!   (Figure 4 of the paper, [`twin_machine::stlb::template`]),
//! * string instructions become page-chunked loops (§5.1.1),
//! * indirect calls are translated through `__svm_call_xlat` (§5.1.2),
//!
//! with scratch registers chosen by [`liveness`] analysis so that most
//! sites avoid spills (§4.1 footnote 3). The same rewritten binary serves
//! as both the VM instance (identity stlb) and the hypervisor instance,
//! which is what makes code addresses differ by a constant offset.
//!
//! ```
//! use twin_isa::asm::assemble;
//! use twin_rewriter::{rewrite, RewriteOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let vm = assemble("drv", ".text\n.globl f\nf:\n movl (%ebx), %eax\n ret\n")?;
//! let out = rewrite(&vm, &RewriteOptions::default())?;
//! assert_eq!(out.stats.mem_sites, 1);
//! // One memory instruction becomes the nine-instruction fast path and
//! // the access through it.
//! assert!(out.stats.insns_after > vm.text.len() + 8);
//! # Ok(())
//! # }
//! ```

pub mod liveness;
mod rewrite;

pub use liveness::Liveness;
pub use rewrite::{
    rewrite, RewriteError, RewriteOptions, RewriteOutput, RewriteStats, SvmHelper,
    STACK_CHECK_SYMBOL,
};

#[cfg(test)]
mod tests {
    use super::*;
    use twin_isa::asm::assemble;
    use twin_isa::Width;
    use twin_isa::{Insn, Module, Reg, INSN_SIZE};
    use twin_machine::{
        run, Cpu, Env, ExecMode, ExternId, Fault, Machine, SpaceId, StopReason, HYPER_BASE,
        PAGE_SIZE,
    };
    use twin_svm::{Svm, CALL_XLAT_SYMBOL, SLOW_PATH_SYMBOL, STLB_SYMBOL};

    /// Test environment: dispatches the SVM externs to a real `Svm`.
    struct SvmEnv {
        svm: Svm,
    }

    impl Env for SvmEnv {
        fn extern_call(
            &mut self,
            id: ExternId,
            m: &mut Machine,
            cpu: &mut Cpu,
        ) -> Result<(), Fault> {
            match m.extern_name(id).unwrap_or_default() {
                SLOW_PATH_SYMBOL => {
                    let addr = cpu.arg(m, 0)? as u64;
                    self.svm.slow_path(m, addr)?;
                    Ok(())
                }
                CALL_XLAT_SYMBOL => {
                    let t = cpu.arg(m, 0)? as u64;
                    let x = self.svm.translate_call(m, t)?;
                    cpu.set_reg(Reg::Eax, x as u32);
                    Ok(())
                }
                other => Err(Fault::UnknownExtern(other.to_string())),
            }
        }
        fn mmio_read(&mut self, _: &mut Machine, _: u32, a: u64, _: Width) -> Result<u32, Fault> {
            Err(Fault::MmioAccess { addr: a })
        }
        fn mmio_write(
            &mut self,
            _: &mut Machine,
            _: u32,
            a: u64,
            _: Width,
            _: u32,
        ) -> Result<(), Fault> {
            Err(Fault::MmioAccess { addr: a })
        }
    }

    const DOM0_DATA: u64 = 0x2000_0000;
    const DOM0_STACK: u64 = 0x3000_0000;
    const VM_CODE: u64 = 0x0800_0000;
    const HYP_CODE: u64 = 0x0c00_0000;
    const HYP_STACK: u64 = HYPER_BASE + 0x0080_0000;

    /// Loads `module`'s data section into dom0 and returns a resolver for
    /// its symbols given the code base it will be linked at.
    fn load_data(m: &mut Machine, dom0: SpaceId, module: &Module, code_base: u64) {
        let pages = (module.data.bytes.len() as u64).div_ceil(PAGE_SIZE).max(1);
        m.map_fresh(dom0, DOM0_DATA, pages + 4).unwrap();
        m.write_bytes_virt(dom0, ExecMode::Guest, DOM0_DATA, &module.data.bytes)
            .unwrap();
        for r in &module.data.relocs {
            let addr = if let Some(off) = module.data.symbols.get(&r.symbol) {
                DOM0_DATA + off
            } else if let Some(idx) = module.labels.get(&r.symbol) {
                code_base + *idx as u64 * INSN_SIZE
            } else {
                panic!("unresolved data reloc {}", r.symbol);
            };
            m.write_u32(dom0, ExecMode::Guest, DOM0_DATA + r.offset, addr as u32)
                .unwrap();
        }
    }

    fn resolver(module: &Module, stlb: u64) -> impl Fn(&str) -> Option<u64> + '_ {
        move |name: &str| {
            if name == STLB_SYMBOL {
                return Some(stlb);
            }
            module.data.symbols.get(name).map(|off| DOM0_DATA + off)
        }
    }

    /// Runs a function of the *original* module natively in dom0.
    fn run_original(src: &str, func: &str, args: &[u32]) -> (Machine, SpaceId, u32) {
        let module = assemble("drv", src).unwrap();
        let mut m = Machine::new();
        let dom0 = m.new_space();
        load_data(&mut m, dom0, &module, VM_CODE);
        m.map_stack(dom0, DOM0_STACK, 8).unwrap();
        let img = m
            .load_image(&module, VM_CODE, |n| {
                module.data.symbols.get(n).map(|off| DOM0_DATA + off)
            })
            .unwrap();
        let entry = m.image(img).export(func).unwrap();
        let mut cpu = Cpu::new(dom0, ExecMode::Guest);
        cpu.set_stack(DOM0_STACK + 8 * PAGE_SIZE);
        cpu.push_call_frame(&mut m, args).unwrap();
        cpu.pc = entry;
        let stop = run(&mut m, &mut cpu, &mut twin_machine::NullEnv, 10_000_000).unwrap();
        assert_eq!(stop, StopReason::Returned);
        (m, dom0, cpu.reg(Reg::Eax))
    }

    /// Runs a function of the *rewritten* module as the hypervisor
    /// instance: executing from a guest (domU) context in hypervisor mode,
    /// reaching dom0 data purely through SVM.
    fn run_rewritten(
        src: &str,
        func: &str,
        args: &[u32],
        opts: &RewriteOptions,
    ) -> (Machine, SpaceId, Result<u32, Fault>, RewriteStats, Svm) {
        let module = assemble("drv", src).unwrap();
        let out = rewrite(&module, opts).unwrap();
        let mut m = Machine::new();
        let dom0 = m.new_space();
        let domu = m.new_space();
        // Data loaded once in dom0; relocated text labels point at the VM
        // instance's copy (paper §5.2) — here VM_CODE.
        load_data(&mut m, dom0, &out.module, VM_CODE);
        m.map_hyper_fresh(HYP_STACK, 8).unwrap();

        let mut svm = Svm::new_hypervisor(&mut m, dom0, 0, (0, u64::MAX)).unwrap();
        let hyp_len = out.module.text.len() as u64 * INSN_SIZE;
        svm.set_code_mapping((HYP_CODE - VM_CODE) as i64, (HYP_CODE, HYP_CODE + hyp_len));
        let stlb = svm.placement().base;

        // Load the same rewritten module twice: VM instance (unused here)
        // and hypervisor instance at constant offset.
        let res = resolver(&out.module, stlb);
        let img = m.load_image(&out.module, HYP_CODE, &res).unwrap();
        let entry = m.image(img).export(func).unwrap();

        let mut cpu = Cpu::new(domu, ExecMode::Hypervisor);
        cpu.set_stack(HYP_STACK + 8 * PAGE_SIZE);
        cpu.push_call_frame(&mut m, args).unwrap();
        cpu.pc = entry;
        let mut env = SvmEnv { svm };
        let r = run(&mut m, &mut cpu, &mut env, 10_000_000);
        let val = r.map(|stop| {
            assert_eq!(stop, StopReason::Returned);
            cpu.reg(Reg::Eax)
        });
        (m, dom0, val, out.stats, env.svm)
    }

    fn dump_data(m: &Machine, space: SpaceId, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| {
                m.read_virt(space, ExecMode::Guest, DOM0_DATA + i as u64, Width::Byte)
                    .unwrap() as u8
            })
            .collect()
    }

    const STRUCT_SRC: &str = r#"
        .text
        .globl bump
    bump:
        pushl %ebp
        movl %esp, %ebp
        movl 8(%ebp), %eax         # n
        movl counter, %ecx
        addl %eax, %ecx
        movl %ecx, counter
        movl stats+4, %edx
        incl %edx
        movl %edx, stats+4
        movl %ecx, %eax
        popl %ebp
        ret
        .data
        .globl counter
    counter:
        .long 100
    stats:
        .long 0
        .long 0
    "#;

    #[test]
    fn rewritten_matches_original_struct_updates() {
        let (m0, s0, r0) = run_original(STRUCT_SRC, "bump", &[5]);
        let opts = RewriteOptions::default();
        let (m1, s1, r1, stats, _svm) = run_rewritten(STRUCT_SRC, "bump", &[5], &opts);
        assert_eq!(r0, 105);
        assert_eq!(r1.unwrap(), 105);
        assert_eq!(dump_data(&m0, s0, 12), dump_data(&m1, s1, 12));
        assert!(stats.mem_sites >= 4, "four data references rewritten");
    }

    #[test]
    fn rewritten_copy_with_rep_movs() {
        let src_init = r#"
            .text
            .globl copy
        copy:
            movl $src_buf, %esi
            movl $dst_buf, %edi
            movl $600, %ecx
            rep movsl
            movl dst_buf+2396, %eax
            ret
            .data
        src_buf:
            .zero 2396
            .long 3735928559       # 0xdeadbeef sentinel at the tail
        dst_buf:
            .zero 2400
        "#;
        let (m0, s0, r0) = run_original(src_init, "copy", &[]);
        let (m1, s1, r1, stats, svm) =
            run_rewritten(src_init, "copy", &[], &RewriteOptions::default());
        assert_eq!(r0, 0xdeadbeef);
        assert_eq!(r1.unwrap(), 0xdeadbeef);
        assert_eq!(dump_data(&m0, s0, 4800), dump_data(&m1, s1, 4800));
        assert_eq!(stats.string_sites, 1);
        // The 2400-byte copy spans pages: at least 2 chunk translations.
        assert!(svm.stats().misses >= 2);
    }

    #[test]
    fn rewritten_indirect_call_through_data_table() {
        let src = r#"
            .text
            .globl dispatch
        dispatch:
            movl ops+4, %eax       # ops->second
            call *%eax
            ret
            .globl handler_a
        handler_a:
            movl $11, %eax
            ret
            .globl handler_b
        handler_b:
            movl $22, %eax
            ret
            .data
        ops:
            .long handler_a
            .long handler_b
        "#;
        let (_m0, _s0, r0) = run_original(src, "dispatch", &[]);
        let (_m1, _s1, r1, stats, svm) =
            run_rewritten(src, "dispatch", &[], &RewriteOptions::default());
        assert_eq!(r0, 22);
        assert_eq!(
            r1.unwrap(),
            22,
            "indirect call through shared fptr table translates via stlb_call"
        );
        assert_eq!(stats.indirect_sites, 1);
        assert!(svm.stats().call_translations >= 1);
    }

    #[test]
    fn wild_write_is_caught_and_hypervisor_survives() {
        let src = r#"
            .text
            .globl evil
        evil:
            movl $0xf0000100, %ebx   # hypervisor text address
            movl $0x41414141, (%ebx)
            movl $1, %eax
            ret
        "#;
        let (_m, _s, r, _stats, svm) = run_rewritten(src, "evil", &[], &RewriteOptions::default());
        let err = r.unwrap_err();
        assert!(
            matches!(err, Fault::EnvFault(ref msg) if msg.contains("svm")),
            "got {err:?}"
        );
        assert_eq!(svm.stats().rejected, 1);
    }

    #[test]
    fn wild_read_of_unmapped_dom0_is_caught() {
        let src = r#"
            .text
            .globl evil
        evil:
            movl $0x66660000, %ebx
            movl (%ebx), %eax
            ret
        "#;
        let (_m, _s, r, _stats, _svm) = run_rewritten(src, "evil", &[], &RewriteOptions::default());
        assert!(r.is_err());
    }

    #[test]
    fn stack_relative_refs_not_rewritten() {
        let src = ".text\n.globl f\nf:\n movl 4(%esp), %eax\n movl -8(%ebp), %ecx\n ret\n";
        let module = assemble("t", src).unwrap();
        let out = rewrite(&module, &RewriteOptions::default()).unwrap();
        assert_eq!(out.stats.mem_sites, 0);
        // Only the int3 barrier is added.
        assert_eq!(out.stats.insns_after, out.stats.insns_before + 1);
    }

    #[test]
    fn expansion_factor_about_ten_per_mem_site() {
        let module = assemble(
            "t",
            ".text\n.globl f\nf:\n movl (%ebx), %eax\n addl $1, %eax\n ret\n",
        )
        .unwrap();
        let out = rewrite(&module, &RewriteOptions::default()).unwrap();
        // 1 mem site: +9 fast path +4 slow path +1 barrier.
        assert_eq!(out.stats.insns_after, 3 + 9 + 4 + 1);
    }

    #[test]
    fn no_liveness_forces_spills() {
        let src = ".text\n.globl f\nf:\n movl (%ebx), %eax\n ret\n";
        let module = assemble("t", src).unwrap();
        let with = rewrite(&module, &RewriteOptions::default()).unwrap();
        let without = rewrite(
            &module,
            &RewriteOptions {
                liveness: false,
                ..RewriteOptions::default()
            },
        )
        .unwrap();
        assert_eq!(with.stats.spill_sites, 0, "liveness finds dead regs");
        assert!(without.stats.spill_sites >= 1, "all-live forces spills");
        assert!(without.stats.insns_after > with.stats.insns_after);
    }

    #[test]
    fn spilled_version_still_correct() {
        let (m0, s0, r0) = run_original(STRUCT_SRC, "bump", &[7]);
        let opts = RewriteOptions {
            liveness: false,
            ..RewriteOptions::default()
        };
        let (m1, s1, r1, stats, _svm) = run_rewritten(STRUCT_SRC, "bump", &[7], &opts);
        assert_eq!(r0, r1.unwrap());
        assert_eq!(dump_data(&m0, s0, 12), dump_data(&m1, s1, 12));
        assert!(stats.spill_sites > 0);
    }

    #[test]
    fn privileged_scan_rejects_hlt() {
        let module = assemble("t", ".text\nf:\n hlt\n ret\n").unwrap();
        let e = rewrite(&module, &RewriteOptions::default()).unwrap_err();
        assert!(matches!(e, RewriteError::Privileged { index: 0, .. }));
    }

    #[test]
    fn stack_check_extension_inserts_checks() {
        let src = r#"
            .text
            .globl f
        f:
            movl 8(%esp), %eax          # constant offset: static ok
            movl 4(%esp,%ecx,4), %edx   # variable offset: runtime check
            ret
        "#;
        let module = assemble("t", src).unwrap();
        let opts = RewriteOptions {
            stack_checks: true,
            ..RewriteOptions::default()
        };
        let out = rewrite(&module, &opts).unwrap();
        assert_eq!(out.stats.stack_static_verified, 1);
        assert_eq!(out.stats.stack_checks_inserted, 1);
        assert!(out.module.externs.contains(STACK_CHECK_SYMBOL));
    }

    #[test]
    fn labels_remap_to_rewritten_indices() {
        let src = r#"
            .text
            .globl f
        f:
            movl (%ebx), %eax
        mid:
            addl $1, %eax
            ret
        "#;
        let module = assemble("t", src).unwrap();
        let out = rewrite(&module, &RewriteOptions::default()).unwrap();
        let mid = out.module.labels["mid"];
        assert!(matches!(out.module.text[mid], Insn::Alu { .. }));
        assert_eq!(out.module.labels["f"], 0);
    }

    #[test]
    fn push_mem_with_live_registers_preserves_argument() {
        // Regression: `pushl 4(%edi)` at a site where most registers are
        // live forces a spill; the spill restore must not consume the
        // pushed argument. Keep eax/ebx/esi/edi live across the push.
        let src = r#"
            .text
            .globl f
        f:
            pushl %ebp
            movl %esp, %ebp
            pushl %ebx
            pushl %esi
            pushl %edi
            movl $data, %edi
            movl $11, %eax
            movl $22, %ebx
            movl $33, %esi
            pushl 4(%edi)          # pushes 77 through SVM; eax/ebx/esi live
            popl %ecx              # retrieve the pushed value
            addl %ebx, %eax        # 11+22
            addl %esi, %eax        # +33
            addl %ecx, %eax        # +77
            popl %edi
            popl %esi
            popl %ebx
            popl %ebp
            ret
            .data
        data:
            .long 0
            .long 77
        "#;
        let module = assemble("t", src).unwrap();
        let out = rewrite(&module, &RewriteOptions::default()).unwrap();
        assert!(out.stats.spill_sites >= 1, "site must spill");
        let (_m, _s, r, _stats, _svm) = run_rewritten(src, "f", &[], &RewriteOptions::default());
        assert_eq!(r.unwrap(), 11 + 22 + 33 + 77);
    }

    #[test]
    fn stos_and_scas_rewritten_and_correct() {
        let src = r#"
            .text
            .globl fill_find
        fill_find:
            movl $buf, %edi
            movl $0xab, %eax
            movl $64, %ecx
            rep stosb
            movl $buf, %edi
            movl $0, buf+32            # poke a hole
            movl $0, %eax
            movl $64, %ecx
            repne scasb                # find the zero
            movl $buf+65, %eax
            subl %edi, %eax            # distance from end
            ret
            .data
        buf:
            .zero 64
        "#;
        let (_m0, _s0, r0) = run_original(src, "fill_find", &[]);
        let (_m1, _s1, r1, stats, _svm) =
            run_rewritten(src, "fill_find", &[], &RewriteOptions::default());
        assert_eq!(r0, r1.unwrap());
        assert_eq!(stats.string_sites, 2);
    }
}
