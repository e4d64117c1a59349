//! Process images: a loaded main binary plus the shared system library.

use crate::error::{Result, VmError};
use crate::memory::{FlatMemory, GuestMemory};
use crate::plan::{Plan, Run, Text};
use crate::syslib::build_syslib;
use janus_ir::{decode, Inst, JBinary, HEAP_BASE, INST_SIZE, STACK_BASE};
use std::sync::{Arc, OnceLock};

/// Resolution of one PLT entry performed by the loader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolvedPlt {
    /// The import resolves to guest code in the shared system library.
    Guest {
        /// Entry address of the function.
        addr: u64,
        /// The imported name.
        name: String,
    },
    /// The import resolves to a native runtime service (e.g. the
    /// compiler-parallelisation runtime used for Figure 11 baselines).
    Native {
        /// The imported name.
        name: String,
    },
}

/// Names serviced natively by the VM rather than by system-library code.
pub const NATIVE_EXTERNALS: &[&str] = &["par_for", "print_i64", "print_f64"];

/// A loaded process: the main executable, the shared system library and the
/// [`Plan`] both text sections were lowered into.
///
/// Every instruction address has a dense *slot* number — main text first,
/// the system library after it — so tables keyed by program counter are
/// `Vec`s. [`Process::slot_of`] is the only way in: any other address has no
/// slot and surfaces as [`VmError::BadPc`], never as an index panic.
#[derive(Debug, Clone)]
pub struct Process {
    binary: JBinary,
    syslib: &'static JBinary,
    /// Both text sections lowered, indexed by slot; shared by clones.
    plan: Arc<Plan>,
    /// Slots below this belong to the main executable.
    main_slots: usize,
    plt: Vec<ResolvedPlt>,
}

/// The system library image, lowered, with its run table. It is the same
/// for every process, so it is built once per host process:
/// [`Process::load`] borrows all of it, and the library's slots follow the
/// main binary's in the slot space.
fn system_library() -> &'static (JBinary, Text, Vec<Run>) {
    static LIBRARY: OnceLock<(JBinary, Text, Vec<Run>)> = OnceLock::new();
    LIBRARY.get_or_init(|| {
        let image = build_syslib();
        let text = Text::lower(&image).expect("the system library lowers");
        let runs = text.runs();
        (image, text, runs)
    })
}

impl Process {
    /// Loads a main binary together with the standard system library.
    ///
    /// # Errors
    ///
    /// Returns an error if the binary fails to decode, holds an instruction
    /// that does not lower ([`crate::exec::Op::lower`]: an immediate
    /// destination, a register of the wrong file, a vector register in an
    /// address) — the error names its address, reachable or not — or imports
    /// a function that neither the system library nor the native runtime
    /// provides.
    pub fn load(binary: &JBinary) -> Result<Process> {
        let (syslib, lib, lib_runs) = system_library();
        let main = Text::lower(binary).map_err(|reason| VmError::Load {
            reason: format!("main binary: {reason}"),
        })?;
        let main_slots = main.len();
        let plan = Plan::new(main, lib, lib_runs);
        let mut plt = Vec::with_capacity(binary.plt().len());
        for entry in binary.plt() {
            let name = entry.name.clone();
            if let Ok(sym) = syslib.symbol(&name) {
                plt.push(ResolvedPlt::Guest {
                    addr: sym.addr,
                    name,
                });
            } else if NATIVE_EXTERNALS.contains(&name.as_str()) {
                plt.push(ResolvedPlt::Native { name });
            } else {
                return Err(VmError::UnknownExternal { name });
            }
        }
        Ok(Process {
            binary: binary.clone(),
            syslib,
            plan: Arc::new(plan),
            main_slots,
            plt,
        })
    }

    /// The main executable.
    #[must_use]
    pub fn binary(&self) -> &JBinary {
        &self.binary
    }

    /// The shared system library image.
    #[must_use]
    pub fn syslib(&self) -> &JBinary {
        self.syslib
    }

    /// PLT resolutions, indexed by PLT entry number.
    #[must_use]
    pub fn plt(&self) -> &[ResolvedPlt] {
        &self.plt
    }

    /// Resolves a PLT index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index is out of range.
    pub fn resolve_plt(&self, index: u32) -> Result<&ResolvedPlt> {
        self.plt
            .get(index as usize)
            .ok_or(VmError::UnresolvedPlt { plt: index })
    }

    /// Number of instruction slots (instructions of both text sections).
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.plan.num_slots()
    }

    /// The lowered text every interpreter loop steps.
    #[must_use]
    pub fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// The slot of the instruction at `pc`; `None` if `pc` is outside both
    /// text sections or misaligned.
    #[must_use]
    pub fn slot_of(&self, pc: u64) -> Option<usize> {
        // `wrapping_sub` folds "below the base" into "past the end".
        let main = pc.wrapping_sub(self.binary.text_base());
        let (off, first) = if main < self.binary.text_len() {
            (main, 0)
        } else {
            let lib = pc.wrapping_sub(self.syslib.text_base());
            if lib >= self.syslib.text_len() {
                return None;
            }
            (lib, self.main_slots)
        };
        (off % INST_SIZE as u64 == 0).then(|| first + (off / INST_SIZE as u64) as usize)
    }

    /// The instruction in `slot`, decoded from the text on each call: no
    /// interpreter loop asks, only setup and tests (panics if
    /// `slot >= num_slots()`).
    #[must_use]
    pub fn inst(&self, slot: usize) -> Inst {
        let (image, index) = match slot.checked_sub(self.main_slots) {
            None => (&self.binary, slot),
            Some(index) => (self.syslib, index),
        };
        let offset = index * INST_SIZE;
        let bytes = &image.text()[offset..offset + INST_SIZE];
        decode(image.text_base() + offset as u64, bytes).expect("the text decoded at load")
    }

    /// The cycle cost of the instruction in `slot`, tabulated at load so no
    /// retired instruction re-derives it (panics if `slot >= num_slots()`).
    #[must_use]
    pub fn cost(&self, slot: usize) -> u64 {
        self.plan.cost(slot)
    }

    /// The slot of the instruction at `pc`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadPc`] if `pc` has no slot.
    #[inline]
    pub fn slot(&self, pc: u64) -> Result<usize> {
        self.slot_of(pc).ok_or(VmError::BadPc { pc })
    }

    /// The instruction at `addr`, decoded as [`Process::inst`] does.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadPc`] if `addr` is not a valid instruction
    /// address in either text section.
    pub fn inst_at(&self, addr: u64) -> Result<Inst> {
        self.slot(addr).map(|slot| self.inst(slot))
    }

    /// Builds the initial memory image: `.data` sections of the main binary
    /// and the system library are copied in; `.bss`, heap and stack read as
    /// zero until written.
    #[must_use]
    pub fn initial_memory(&self) -> FlatMemory {
        let mut mem = FlatMemory::new();
        mem.write_bytes(self.binary.data_base(), self.binary.data());
        mem.write_bytes(self.syslib.data_base(), self.syslib.data());
        // Loader statistics should not count towards program behaviour.
        mem.loads = 0;
        mem.stores = 0;
        mem
    }

    /// Initial program counter (the binary's entry point).
    #[must_use]
    pub fn entry(&self) -> u64 {
        self.binary.entry()
    }

    /// Initial stack pointer for the main thread.
    #[must_use]
    pub fn initial_sp(&self) -> u64 {
        STACK_BASE
    }

    /// Start of the heap (`sbrk`) region.
    #[must_use]
    pub fn heap_base(&self) -> u64 {
        HEAP_BASE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_ir::{AsmBuilder, Operand, Reg};

    fn tiny_binary(with_plt: &[&str]) -> JBinary {
        let mut asm = AsmBuilder::new();
        asm.function("main");
        for name in with_plt {
            asm.push_call_ext(*name);
        }
        asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::imm(0)));
        asm.push(Inst::Halt);
        asm.finish_binary("main").unwrap()
    }

    #[test]
    fn loads_and_resolves_syslib_imports() {
        let bin = tiny_binary(&["pow", "memcpy"]);
        let p = Process::load(&bin).unwrap();
        assert_eq!(p.plt().len(), 2);
        match p.resolve_plt(0).unwrap() {
            ResolvedPlt::Guest { name, addr } => {
                assert_eq!(name, "pow");
                assert!(p.syslib().text_contains(*addr));
            }
            other => panic!("expected guest resolution, got {other:?}"),
        }
    }

    #[test]
    fn resolves_native_imports() {
        let bin = tiny_binary(&["par_for"]);
        let p = Process::load(&bin).unwrap();
        assert_eq!(
            p.resolve_plt(0).unwrap(),
            &ResolvedPlt::Native {
                name: "par_for".to_string()
            }
        );
    }

    #[test]
    fn unknown_import_is_an_error() {
        let bin = tiny_binary(&["frobnicate"]);
        let err = Process::load(&bin).unwrap_err();
        assert!(matches!(err, VmError::UnknownExternal { .. }));
    }

    #[test]
    fn inst_at_decodes_both_sections() {
        let bin = tiny_binary(&["pow"]);
        let p = Process::load(&bin).unwrap();
        assert_eq!(p.inst_at(bin.entry()), Ok(Inst::CallExt { plt: 0 }));
        let last = bin.text_base() + bin.text_len() - INST_SIZE as u64;
        assert_eq!(p.inst_at(last), Ok(Inst::Halt));
        let pow_addr = p.syslib().symbol("pow").unwrap().addr;
        let lib = p.syslib();
        let off = (pow_addr - lib.text_base()) as usize;
        let want = decode(pow_addr, &lib.text()[off..off + INST_SIZE]).unwrap();
        assert_eq!(p.inst_at(pow_addr), Ok(want));
        assert!(p.inst_at(0x1234).is_err());
        assert!(p.inst_at(bin.entry() + 1).is_err(), "misaligned address");
    }

    #[test]
    fn slots_are_dense_and_bad_pcs_have_none() {
        let bin = tiny_binary(&["pow"]);
        let p = Process::load(&bin).unwrap();
        let main_slots = (bin.text_len() / INST_SIZE as u64) as usize;
        assert_eq!(p.slot_of(bin.text_base()), Some(0));
        assert_eq!(
            p.slot_of(bin.text_base() + bin.text_len() - INST_SIZE as u64),
            Some(main_slots - 1)
        );
        let lib = p.syslib().text_base();
        assert_eq!(p.slot_of(lib), Some(main_slots), "syslib follows main");
        assert_eq!(
            p.slot_of(lib + p.syslib().text_len() - INST_SIZE as u64),
            Some(p.num_slots() - 1)
        );
        for pc in [
            0,
            bin.text_base() - 1,
            bin.text_base() + 1,
            bin.text_base() + bin.text_len(),
            lib + p.syslib().text_len(),
            lib + 7,
            1 << 63,
            u64::MAX,
        ] {
            assert_eq!(p.slot_of(pc), None, "{pc:#x}");
            assert_eq!(p.slot(pc), Err(VmError::BadPc { pc }));
            assert_eq!(p.inst_at(pc), Err(VmError::BadPc { pc }));
        }
        let slot = p.slot(bin.entry()).unwrap();
        assert_eq!(p.inst_at(bin.entry()), Ok(p.inst(slot)));
    }

    #[test]
    fn out_of_range_plt_is_an_error() {
        let bin = tiny_binary(&[]);
        let p = Process::load(&bin).unwrap();
        assert!(matches!(
            p.resolve_plt(7),
            Err(VmError::UnresolvedPlt { plt: 7 })
        ));
    }

    #[test]
    fn initial_memory_contains_data_sections() {
        let mut asm = AsmBuilder::new();
        let addr = asm.i64_array("values", 4, &[11, 22, 33, 44]);
        asm.function("main");
        asm.push(Inst::Halt);
        let bin = asm.finish_binary("main").unwrap();
        let p = Process::load(&bin).unwrap();
        let mut mem = p.initial_memory();
        assert_eq!(mem.read_i64(addr), 11);
        assert_eq!(mem.read_i64(addr + 24), 44);
    }
}
