//! Architectural machine state of one guest hardware context.

use janus_ir::{Cond, Reg, RegClass, NUM_GPR, NUM_VREG};

/// Condition flags produced by compare, test and ALU instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Carry flag (unsigned borrow).
    pub cf: bool,
    /// Overflow flag (signed overflow).
    pub of: bool,
}

impl Flags {
    /// Sets the flags from an integer comparison `lhs - rhs`.
    pub fn set_cmp(&mut self, lhs: i64, rhs: i64) {
        let (res, of) = lhs.overflowing_sub(rhs);
        self.zf = res == 0;
        self.sf = res < 0;
        self.of = of;
        self.cf = (lhs as u64) < (rhs as u64);
    }

    /// Sets the flags from a floating-point comparison.
    pub fn set_fcmp(&mut self, lhs: f64, rhs: f64) {
        self.zf = lhs == rhs;
        self.sf = lhs < rhs;
        self.of = false;
        self.cf = lhs < rhs;
    }

    /// Sets the flags from the result of a logical/arithmetic operation.
    pub fn set_result(&mut self, result: i64) {
        self.zf = result == 0;
        self.sf = result < 0;
        self.of = false;
        self.cf = false;
    }

    /// Evaluates a branch condition against the current flags.
    #[must_use]
    pub fn eval(&self, cond: Cond) -> bool {
        match cond {
            Cond::Eq => self.zf,
            Cond::Ne => !self.zf,
            Cond::Lt => self.sf != self.of,
            Cond::Le => self.zf || (self.sf != self.of),
            Cond::Gt => !self.zf && (self.sf == self.of),
            Cond::Ge => self.sf == self.of,
            Cond::Below => self.cf,
            Cond::AboveEq => !self.cf,
        }
    }
}

/// One guest hardware context: integer registers, vector registers, flags,
/// program counter and an accumulated cycle counter.
#[derive(Debug, Clone, PartialEq)]
pub struct Cpu {
    /// Integer register file.
    pub gpr: [i64; NUM_GPR],
    /// Vector register file (four `f64` lanes each).
    pub vreg: [[f64; 4]; NUM_VREG],
    /// Condition flags.
    pub flags: Flags,
    /// Program counter.
    pub pc: u64,
    /// Cycles consumed so far (per [`crate::cost()`]).
    pub cycles: u64,
    /// Number of instructions retired.
    pub retired: u64,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

impl Cpu {
    /// Creates a CPU with all registers and counters zeroed.
    #[must_use]
    pub fn new() -> Cpu {
        Cpu {
            gpr: [0; NUM_GPR],
            vreg: [[0.0; 4]; NUM_VREG],
            flags: Flags::default(),
            pc: 0,
            cycles: 0,
            retired: 0,
        }
    }

    /// Reads an integer register.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a general-purpose register.
    #[must_use]
    pub fn read_gpr(&self, reg: Reg) -> i64 {
        assert_eq!(reg.class(), RegClass::Gpr, "expected a GPR, got {reg}");
        self.gpr[reg.index() as usize]
    }

    /// Writes an integer register.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a general-purpose register.
    pub fn write_gpr(&mut self, reg: Reg, value: i64) {
        assert_eq!(reg.class(), RegClass::Gpr, "expected a GPR, got {reg}");
        self.gpr[reg.index() as usize] = value;
    }

    /// Reads lane 0 of a vector register as a scalar `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a vector register.
    #[must_use]
    pub fn read_f64(&self, reg: Reg) -> f64 {
        assert_eq!(reg.class(), RegClass::Vec, "expected a vector register");
        self.vreg[reg.index() as usize][0]
    }

    /// Writes lane 0 of a vector register.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a vector register.
    pub fn write_f64(&mut self, reg: Reg, value: f64) {
        assert_eq!(reg.class(), RegClass::Vec, "expected a vector register");
        self.vreg[reg.index() as usize][0] = value;
    }

    /// The stack pointer.
    #[must_use]
    pub fn sp(&self) -> u64 {
        self.read_gpr(Reg::SP) as u64
    }

    /// Sets the stack pointer.
    pub fn set_sp(&mut self, sp: u64) {
        self.write_gpr(Reg::SP, sp as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_flag_semantics() {
        let mut f = Flags::default();
        f.set_cmp(5, 5);
        assert!(f.eval(Cond::Eq));
        assert!(f.eval(Cond::Le));
        assert!(f.eval(Cond::Ge));
        assert!(!f.eval(Cond::Lt));

        f.set_cmp(3, 7);
        assert!(f.eval(Cond::Lt));
        assert!(f.eval(Cond::Ne));
        assert!(!f.eval(Cond::Gt));

        f.set_cmp(-1, 1);
        assert!(f.eval(Cond::Lt));
        assert!(!f.eval(Cond::Below), "unsigned: -1 is huge");

        f.set_cmp(7, 3);
        assert!(f.eval(Cond::Gt));
        assert!(f.eval(Cond::AboveEq));
    }

    #[test]
    fn unsigned_conditions_use_carry() {
        let mut f = Flags::default();
        f.set_cmp(-1, 1); // as unsigned: u64::MAX vs 1
        assert!(!f.eval(Cond::Below));
        assert!(f.eval(Cond::AboveEq));
        f.set_cmp(1, -1);
        assert!(f.eval(Cond::Below));
    }

    #[test]
    fn fcmp_flag_semantics() {
        let mut f = Flags::default();
        f.set_fcmp(1.5, 1.5);
        assert!(f.eval(Cond::Eq));
        f.set_fcmp(1.0, 2.0);
        assert!(f.eval(Cond::Lt));
        assert!(f.eval(Cond::Below));
        f.set_fcmp(2.0, 1.0);
        assert!(f.eval(Cond::Gt));
    }

    #[test]
    fn register_accessors() {
        let mut cpu = Cpu::new();
        cpu.write_gpr(Reg::R3, -17);
        assert_eq!(cpu.read_gpr(Reg::R3), -17);
        cpu.write_f64(Reg::V2, 2.75);
        assert_eq!(cpu.read_f64(Reg::V2), 2.75);
        cpu.set_sp(0x7fff_0000);
        assert_eq!(cpu.sp(), 0x7fff_0000);
    }

    #[test]
    #[should_panic(expected = "expected a GPR")]
    fn reading_vector_as_gpr_panics() {
        let cpu = Cpu::new();
        let _ = cpu.read_gpr(Reg::V0);
    }
}
