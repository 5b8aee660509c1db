//! The dom0 module loader (paper §5.2): places driver data in dom0
//! memory, links text, applies data relocations, and *saves the
//! relocation information* that the hypervisor loader later needs to
//! resolve the hypervisor instance's data references to dom0 addresses.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use twin_isa::{Module, INSN_SIZE};
use twin_machine::{ExecMode, Fault, ImageId, LinkError, Machine, SpaceId, PAGE_SIZE};

/// Error from driver loading.
#[derive(Debug)]
pub enum LoadError {
    /// Machine-level fault while mapping or writing data pages.
    Fault(Fault),
    /// Unresolved symbol during text linking.
    Link(LinkError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Fault(e) => write!(f, "load fault: {e}"),
            LoadError::Link(e) => write!(f, "load link error: {e}"),
        }
    }
}

impl Error for LoadError {}

impl From<Fault> for LoadError {
    fn from(e: Fault) -> LoadError {
        LoadError::Fault(e)
    }
}

impl From<LinkError> for LoadError {
    fn from(e: LinkError) -> LoadError {
        LoadError::Link(e)
    }
}

/// A driver loaded into dom0: image, entry points and the saved
/// relocation information (symbol → dom0 address).
#[derive(Clone, Debug)]
pub struct LoadedDriver {
    /// The linked code image.
    pub image: ImageId,
    /// Code base address.
    pub code_base: u64,
    /// Data base address in dom0.
    pub data_base: u64,
    /// Data symbol → absolute dom0 address ("driver relocation
    /// information", paper §5.2).
    pub data_symbols: BTreeMap<String, u64>,
    /// Exported function → code address.
    pub entries: BTreeMap<String, u64>,
    /// Number of instructions in the image.
    pub text_len: usize,
}

impl LoadedDriver {
    /// Address of an exported function.
    pub fn entry(&self, name: &str) -> Option<u64> {
        self.entries.get(name).copied()
    }

    /// dom0 address of a data symbol.
    pub fn data_symbol(&self, name: &str) -> Option<u64> {
        self.data_symbols.get(name).copied()
    }
}

/// Loads `module` into `space`: data section at `data_base` (pages are
/// mapped and filled), text linked at `code_base`. `extra` resolves
/// additional symbols (e.g. `stlb` for rewritten modules); unresolved
/// externs become trampolines automatically.
///
/// Data relocations referring to text labels resolve to **this image's**
/// code addresses; in the twin setup the VM instance is loaded first, so
/// shared function-pointer tables hold VM-instance addresses, exactly as
/// the paper requires for `stlb_call` translation.
///
/// # Errors
///
/// Returns [`LoadError`] on mapping faults or unresolved symbols.
pub fn load_driver<F>(
    m: &mut Machine,
    space: SpaceId,
    module: &Module,
    code_base: u64,
    data_base: u64,
    mut extra: F,
) -> Result<LoadedDriver, LoadError>
where
    F: FnMut(&str) -> Option<u64>,
{
    // Map and fill the data section.
    let len = module.data.bytes.len() as u64;
    if len > 0 {
        let pages = len.div_ceil(PAGE_SIZE);
        m.map_fresh(space, data_base, pages)?;
        m.write_bytes_virt(space, ExecMode::Guest, data_base, &module.data.bytes)?;
    }
    let data_symbols: BTreeMap<String, u64> = module
        .data
        .symbols
        .iter()
        .map(|(n, off)| (n.clone(), data_base + off))
        .collect();

    // Link text: data symbols, then caller's resolver.
    let image = m.load_image(module, code_base, |name| {
        data_symbols.get(name).copied().or_else(|| extra(name))
    })?;

    // Apply data relocations (function-pointer tables, symbol slots).
    for r in &module.data.relocs {
        let addr = if let Some(idx) = module.labels.get(&r.symbol) {
            code_base + *idx as u64 * INSN_SIZE
        } else if let Some(a) = data_symbols.get(&r.symbol) {
            *a
        } else if let Some(a) = extra(&r.symbol) {
            a
        } else {
            return Err(LoadError::Link(LinkError {
                symbol: r.symbol.clone(),
                module: module.name.clone(),
            }));
        };
        m.write_u32(space, ExecMode::Guest, data_base + r.offset, addr as u32)?;
    }

    let entries = m.image(image).exports.clone();
    Ok(LoadedDriver {
        image,
        code_base,
        data_base,
        data_symbols,
        entries,
        text_len: m.image(image).len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twin_isa::asm::assemble;

    #[test]
    fn loads_data_and_patches_relocs() {
        let module = assemble(
            "t",
            r#"
            .text
            .globl f
        f:
            ret
            .data
        table:
            .long f
            .long value
        value:
            .long 1234
        "#,
        )
        .unwrap();
        let mut m = Machine::new();
        let space = m.new_space();
        let d = load_driver(&mut m, space, &module, 0x0800_0000, 0x2400_0000, |_| None).unwrap();
        assert_eq!(d.entry("f"), Some(0x0800_0000));
        assert_eq!(d.data_symbol("value"), Some(0x2400_0008));
        // Reloc slots hold absolute addresses now.
        assert_eq!(
            m.read_u32(space, ExecMode::Guest, 0x2400_0000).unwrap(),
            0x0800_0000
        );
        assert_eq!(
            m.read_u32(space, ExecMode::Guest, 0x2400_0004).unwrap(),
            0x2400_0008
        );
        assert_eq!(
            m.read_u32(space, ExecMode::Guest, 0x2400_0008).unwrap(),
            1234
        );
    }

    #[test]
    fn unresolved_reloc_is_an_error() {
        let module = assemble("t", ".text\nf:\n ret\n .data\nx:\n .long missing\n").unwrap();
        let mut m = Machine::new();
        let space = m.new_space();
        let e = load_driver(&mut m, space, &module, 0, 0x2400_0000, |_| None).unwrap_err();
        assert!(matches!(e, LoadError::Link(_)));
    }
}
