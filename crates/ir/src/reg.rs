//! Architectural registers of the Janus Virtual Architecture.

use std::fmt;

/// Number of general-purpose (integer) registers.
pub const NUM_GPR: usize = 16;
/// Number of vector/floating-point registers.
pub const NUM_VREG: usize = 16;

/// Register class: integer general-purpose or vector/floating-point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// 64-bit integer general-purpose register.
    Gpr,
    /// 256-bit vector register holding four `f64` lanes (lane 0 doubles as the
    /// scalar floating-point register).
    Vec,
}

/// An architectural register.
///
/// Registers `R0`–`R15` are 64-bit integer registers; `R15` is the stack
/// pointer and `R14` the frame pointer by software convention. `V0`–`V15`
/// are 256-bit vector registers whose lane 0 doubles as the scalar
/// floating-point register.
///
/// # Example
///
/// ```
/// use janus_ir::{Reg, RegClass};
/// assert_eq!(Reg::SP, Reg::R15);
/// assert_eq!(Reg::V3.class(), RegClass::Vec);
/// assert_eq!(Reg::R7.index(), 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

macro_rules! gpr_consts {
    ($($name:ident = $idx:expr),* $(,)?) => {
        $(
            #[doc = concat!("General-purpose register ", stringify!($name), ".")]
            pub const $name: Reg = Reg($idx);
        )*
    };
}

macro_rules! vreg_consts {
    ($($name:ident = $idx:expr),* $(,)?) => {
        $(
            #[doc = concat!("Vector register ", stringify!($name), ".")]
            pub const $name: Reg = Reg(16 + $idx);
        )*
    };
}

impl Reg {
    gpr_consts! {
        R0 = 0, R1 = 1, R2 = 2, R3 = 3, R4 = 4, R5 = 5, R6 = 6, R7 = 7,
        R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
    }
    vreg_consts! {
        V0 = 0, V1 = 1, V2 = 2, V3 = 3, V4 = 4, V5 = 5, V6 = 6, V7 = 7,
        V8 = 8, V9 = 9, V10 = 10, V11 = 11, V12 = 12, V13 = 13, V14 = 14, V15 = 15,
    }

    /// The stack pointer (alias of [`Reg::R15`]).
    pub const SP: Reg = Reg::R15;
    /// The frame pointer (alias of [`Reg::R14`]).
    pub const FP: Reg = Reg::R14;

    /// Creates a general-purpose register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_GPR`.
    #[must_use]
    pub fn gpr(index: u8) -> Reg {
        assert!((index as usize) < NUM_GPR, "gpr index {index} out of range");
        Reg(index)
    }

    /// Creates a vector register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_VREG`.
    #[must_use]
    pub fn vreg(index: u8) -> Reg {
        assert!(
            (index as usize) < NUM_VREG,
            "vector register index {index} out of range"
        );
        Reg(16 + index)
    }

    /// Creates a register from its raw encoding, if valid.
    #[must_use]
    pub fn from_raw(raw: u8) -> Option<Reg> {
        if (raw as usize) < NUM_GPR + NUM_VREG {
            Some(Reg(raw))
        } else {
            None
        }
    }

    /// The raw encoding of this register (0–31).
    #[must_use]
    pub fn raw(self) -> u8 {
        self.0
    }

    /// The index of this register within its class (0–15).
    #[must_use]
    pub fn index(self) -> u8 {
        self.0 % 16
    }

    /// The class (integer or vector) of this register.
    #[must_use]
    pub fn class(self) -> RegClass {
        if self.0 < 16 {
            RegClass::Gpr
        } else {
            RegClass::Vec
        }
    }

    /// Returns `true` for integer general-purpose registers.
    #[must_use]
    pub fn is_gpr(self) -> bool {
        self.class() == RegClass::Gpr
    }

    /// Iterator over all general-purpose registers.
    pub fn all_gprs() -> impl Iterator<Item = Reg> {
        (0..NUM_GPR as u8).map(Reg)
    }

    /// Iterator over every architectural register.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..(NUM_GPR + NUM_VREG) as u8).map(Reg)
    }
}

/// A set of architectural registers: bit [`Reg::raw`] of one `u32` per
/// member. Every raw encoding is below 32, so a set is `Copy`, union and
/// difference are one instruction each and nothing allocates. Iteration is
/// in ascending raw order (`R0`–`R15`, then `V0`–`V15`).
///
/// ```
/// use janus_ir::{Reg, RegSet};
/// let set = RegSet::from(Reg::V1) | [Reg::R3, Reg::R0].into_iter().collect();
/// assert!(set.contains(Reg::R3) && !set.contains(Reg::R1));
/// assert_eq!(set.iter().collect::<Vec<_>>(), [Reg::R0, Reg::R3, Reg::V1]);
/// assert_eq!(RegSet::all().without(set).iter().count(), 29);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RegSet(u32);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// Every architectural register.
    #[must_use]
    pub fn all() -> RegSet {
        RegSet(u32::MAX)
    }

    /// Returns `true` if `r` is a member.
    #[must_use]
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.0) != 0
    }

    /// The members of `self` that are not in `other`.
    #[must_use]
    pub fn without(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// The members, in ascending raw order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        (0..32).filter(move |raw| self.0 & (1 << raw) != 0).map(Reg)
    }
}

impl From<Reg> for RegSet {
    fn from(r: Reg) -> RegSet {
        RegSet(1 << r.0)
    }
}

impl std::ops::BitOr for RegSet {
    type Output = RegSet;

    fn bitor(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(regs: I) -> RegSet {
        regs.into_iter()
            .fold(RegSet::EMPTY, |set, r| set | RegSet::from(r))
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class() {
            RegClass::Gpr => {
                if *self == Reg::SP {
                    write!(f, "sp")
                } else if *self == Reg::FP {
                    write!(f, "fp")
                } else {
                    write!(f, "r{}", self.index())
                }
            }
            RegClass::Vec => write!(f, "v{}", self.index()),
        }
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reg({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliases_match_indices() {
        assert_eq!(Reg::SP, Reg::R15);
        assert_eq!(Reg::FP, Reg::R14);
    }

    #[test]
    fn class_and_index_round_trip() {
        for r in Reg::all_gprs() {
            assert_eq!(r.class(), RegClass::Gpr);
            assert_eq!(Reg::gpr(r.index()), r);
        }
        for r in Reg::all().skip(NUM_GPR) {
            assert_eq!(r.class(), RegClass::Vec);
            assert_eq!(Reg::vreg(r.index()), r);
        }
    }

    #[test]
    fn raw_round_trip() {
        for r in Reg::all() {
            assert_eq!(Reg::from_raw(r.raw()), Some(r));
        }
        assert_eq!(Reg::from_raw(32), None);
        assert_eq!(Reg::from_raw(255), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gpr_out_of_range_panics() {
        let _ = Reg::gpr(16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vreg_out_of_range_panics() {
        let _ = Reg::vreg(16);
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::R0.to_string(), "r0");
        assert_eq!(Reg::R15.to_string(), "sp");
        assert_eq!(Reg::R14.to_string(), "fp");
        assert_eq!(Reg::V4.to_string(), "v4");
    }

    #[test]
    fn reg_sets_are_masks_in_raw_order() {
        let all: Vec<Reg> = Reg::all().collect();
        assert_eq!(RegSet::all().iter().collect::<Vec<_>>(), all);
        assert_eq!(all.iter().copied().collect::<RegSet>(), RegSet::all());
        for r in Reg::all() {
            let others = RegSet::all().without(RegSet::from(r));
            assert_eq!(RegSet::from(r).iter().collect::<Vec<_>>(), [r]);
            assert!(!others.contains(r) && others.iter().count() == 31);
        }
        assert_eq!(RegSet::EMPTY.iter().next(), None);
    }

    #[test]
    fn all_counts() {
        assert_eq!(Reg::all_gprs().count(), NUM_GPR);
        assert_eq!(Reg::all().count(), NUM_GPR + NUM_VREG);
    }
}
