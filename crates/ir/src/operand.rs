//! Instruction operands: registers, immediates and memory references.

use crate::reg::{Reg, RegSet};
use std::fmt;

/// A memory reference of the form `[base + index * scale + disp]`.
///
/// Any of `base` and `index` may be absent; an absolute global address is
/// expressed with both absent and the address in `disp`.
///
/// # Example
///
/// ```
/// use janus_ir::{MemRef, Reg};
/// let m = MemRef::base_index(Reg::R8, Reg::R1, 8).with_disp(16);
/// assert_eq!(m.to_string(), "[r8 + r1*8 + 16]");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Base register, if any.
    pub base: Option<Reg>,
    /// Index register, if any.
    pub index: Option<Reg>,
    /// Scale applied to the index register (1, 2, 4 or 8).
    pub scale: u8,
    /// Constant displacement (or absolute address when no registers are used).
    pub disp: i64,
}

impl MemRef {
    /// A reference through a base register only: `[base]`.
    #[must_use]
    pub fn base(base: Reg) -> MemRef {
        MemRef {
            base: Some(base),
            index: None,
            scale: 1,
            disp: 0,
        }
    }

    /// A base + displacement reference: `[base + disp]`.
    #[must_use]
    pub fn base_disp(base: Reg, disp: i64) -> MemRef {
        MemRef {
            base: Some(base),
            index: None,
            scale: 1,
            disp,
        }
    }

    /// A base + scaled-index reference: `[base + index*scale]`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not 1, 2, 4 or 8.
    #[must_use]
    pub fn base_index(base: Reg, index: Reg, scale: u8) -> MemRef {
        assert!(
            matches!(scale, 1 | 2 | 4 | 8),
            "scale must be 1, 2, 4 or 8, got {scale}"
        );
        MemRef {
            base: Some(base),
            index: Some(index),
            scale,
            disp: 0,
        }
    }

    /// An absolute reference to a fixed address: `[addr]`.
    #[must_use]
    pub fn absolute(addr: u64) -> MemRef {
        MemRef {
            base: None,
            index: None,
            scale: 1,
            disp: addr as i64,
        }
    }

    /// Returns a copy of this reference with the displacement set to `disp`.
    #[must_use]
    pub fn with_disp(mut self, disp: i64) -> MemRef {
        self.disp = disp;
        self
    }

    /// Registers read when computing the effective address.
    pub fn regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.base.into_iter().chain(self.index)
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut wrote = false;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            wrote = true;
        }
        if let Some(i) = self.index {
            if wrote {
                write!(f, " + ")?;
            }
            write!(f, "{i}*{}", self.scale)?;
            wrote = true;
        }
        if self.disp != 0 || !wrote {
            if wrote {
                if self.disp >= 0 {
                    write!(f, " + {}", self.disp)?;
                } else {
                    write!(f, " - {}", -self.disp)?;
                }
            } else {
                write!(f, "{:#x}", self.disp)?;
            }
        }
        write!(f, "]")
    }
}

/// An instruction operand.
///
/// Most instructions accept at most one memory operand, mirroring x86.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// A 64-bit signed immediate.
    Imm(i64),
    /// A memory operand.
    Mem(MemRef),
}

impl Operand {
    /// A register operand.
    #[must_use]
    pub fn reg(r: Reg) -> Operand {
        Operand::Reg(r)
    }

    /// An immediate operand.
    #[must_use]
    pub fn imm(v: i64) -> Operand {
        Operand::Imm(v)
    }

    /// A memory operand.
    #[must_use]
    pub fn mem(m: MemRef) -> Operand {
        Operand::Mem(m)
    }

    /// Returns the register if this operand is a plain register.
    #[must_use]
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// Returns the immediate value if this operand is an immediate.
    #[must_use]
    pub fn as_imm(&self) -> Option<i64> {
        match self {
            Operand::Imm(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the memory reference if this operand is a memory operand.
    #[must_use]
    pub fn as_mem(&self) -> Option<MemRef> {
        match self {
            Operand::Mem(m) => Some(*m),
            _ => None,
        }
    }

    /// Returns `true` if this operand accesses memory.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        matches!(self, Operand::Mem(_))
    }

    /// Registers read when evaluating this operand **as a source**.
    #[must_use]
    pub fn read_regs(&self) -> RegSet {
        match self {
            Operand::Reg(r) => RegSet::from(*r),
            Operand::Imm(_) => RegSet::EMPTY,
            Operand::Mem(m) => m.regs().collect(),
        }
    }

    /// Registers read when this operand is used **as a destination**
    /// (address registers of a memory destination).
    #[must_use]
    pub fn dest_addr_regs(&self) -> RegSet {
        match self {
            Operand::Mem(m) => m.regs().collect(),
            _ => RegSet::EMPTY,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Operand {
        Operand::Imm(v)
    }
}

impl From<MemRef> for Operand {
    fn from(m: MemRef) -> Operand {
        Operand::Mem(m)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
            Operand::Mem(m) => write!(f, "{m}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memref_constructors() {
        let m = MemRef::base(Reg::R3);
        assert_eq!(m.base, Some(Reg::R3));
        assert_eq!(m.disp, 0);

        let m = MemRef::absolute(0x600010);
        assert_eq!((m.base, m.index, m.disp), (None, None, 0x600010));

        let m = MemRef::base_disp(Reg::SP, -8);
        assert_eq!((m.base, m.disp), (Some(Reg::SP), -8));

        let m = MemRef::base_index(Reg::R8, Reg::R1, 4).with_disp(8);
        assert_eq!(m.scale, 4);
        assert_eq!(m.disp, 8);
        assert_eq!(m.regs().collect::<Vec<_>>(), vec![Reg::R8, Reg::R1]);
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn bad_scale_panics() {
        let _ = MemRef::base_index(Reg::R0, Reg::R1, 3);
    }

    #[test]
    fn operand_accessors() {
        assert_eq!(Operand::reg(Reg::R1).as_reg(), Some(Reg::R1));
        assert_eq!(Operand::imm(-3).as_imm(), Some(-3));
        assert!(Operand::mem(MemRef::base(Reg::R0)).is_mem());
        assert_eq!(Operand::imm(5).as_reg(), None);
        assert_eq!(Operand::reg(Reg::R1).as_mem(), None);
    }

    #[test]
    fn operand_read_regs() {
        assert_eq!(Operand::reg(Reg::R5).read_regs(), RegSet::from(Reg::R5));
        assert_eq!(Operand::imm(1).read_regs(), RegSet::EMPTY);
        let m = Operand::mem(MemRef::base_index(Reg::R1, Reg::R2, 8));
        let both = RegSet::from(Reg::R1) | RegSet::from(Reg::R2);
        assert_eq!(m.read_regs(), both);
        assert_eq!(m.dest_addr_regs(), both);
        assert_eq!(Operand::reg(Reg::R5).dest_addr_regs(), RegSet::EMPTY);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Operand::reg(Reg::R2).to_string(), "r2");
        assert_eq!(Operand::imm(42).to_string(), "42");
        assert_eq!(
            Operand::mem(MemRef::base_disp(Reg::R8, 24)).to_string(),
            "[r8 + 24]"
        );
        assert_eq!(
            Operand::mem(MemRef::base_disp(Reg::R8, -24)).to_string(),
            "[r8 - 24]"
        );
        assert_eq!(
            Operand::mem(MemRef::absolute(0x600000)).to_string(),
            "[0x600000]"
        );
    }

    #[test]
    fn conversions_from_primitive_types() {
        let o: Operand = Reg::R1.into();
        assert_eq!(o, Operand::Reg(Reg::R1));
        let o: Operand = 7i64.into();
        assert_eq!(o, Operand::Imm(7));
        let o: Operand = MemRef::base(Reg::R2).into();
        assert!(o.is_mem());
    }
}
