//! Named regression tests for divergences found by the differential
//! guest-program fuzzer (`janus_bench::fuzz`). Each test pins one shrunk
//! counterexample; the same shape also lives on as a named workload (see
//! `janus_workloads::fuzz_regressions`), so the fuzzer only ever finds
//! each bug once.

use janus_bench::fuzz::check_spec;
use janus_compile::ast::{Expr, Function, Program, Stmt};
use janus_compile::Compiler;
use janus_core::{BackendKind, Janus, JanusConfig};
use janus_workloads::{workload, ArraySpec, ElemTy, GenOp, LoopSpec, ProgramSpec};

/// Generator seed 1093, shrunk: aliasing pointer kernel + shifted
/// element-wise subtraction + signed scatter. Before the fixes this
/// tripped the oracle at every thread count: the scatter's sign-following
/// `%` wrote below the destination array and corrupted the float global
/// next to it, whose NaN-laden checksum then failed the `outputs_match`
/// comparison even though both legs printed identical bits.
#[test]
fn seed_1093_signed_scatter_passes_the_matrix() {
    let spec = ProgramSpec {
        seed: 1093,
        arrays: vec![
            ArraySpec {
                ty: ElemTy::I64,
                len: 56,
                init_mul: 3,
                init_add: 7,
                init_modulus: 56,
            },
            ArraySpec {
                ty: ElemTy::F64,
                len: 44,
                init_mul: 5,
                init_add: 1,
                init_modulus: 97,
            },
            ArraySpec {
                ty: ElemTy::I64,
                len: 63,
                init_mul: 9,
                init_add: 2,
                init_modulus: 63,
            },
            ArraySpec {
                ty: ElemTy::F64,
                len: 7,
                init_mul: 11,
                init_add: 4,
                init_modulus: 37,
            },
        ],
        loops: vec![
            LoopSpec::PointerKernel {
                a: 2,
                b: 0,
                alias: true,
                iters: 44,
            },
            LoopSpec::Elementwise {
                dst: 0,
                a: 0,
                b: 2,
                op: GenOp::Sub,
                shift: 4,
                iters: 34,
            },
            LoopSpec::Scatter {
                dst: 2,
                table: 0,
                w: 0,
                iters: 35,
            },
        ],
    };
    check_spec(&spec).expect("seed-1093 shape must pass the differential matrix");
}

/// The exact generated spec (not just the shrunk shape) must also pass.
#[test]
fn seed_1093_as_generated_passes_the_matrix() {
    let spec = ProgramSpec::generate(1093);
    check_spec(&spec).expect("generated seed 1093 must pass the differential matrix");
}

/// The promoted workload built from the counterexample runs clean through
/// both backends.
#[test]
fn promoted_nan_scatter_workload_passes() {
    let program = workload("fuzz.nan-scatter")
        .expect("promoted workload exists")
        .program;
    let binary = Compiler::new().compile(&program).expect("compiles");
    for backend in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
        let report = Janus::with_config(JanusConfig {
            threads: 4,
            backend,
            ..JanusConfig::default()
        })
        .run(&binary, &[])
        .expect("runs");
        assert!(
            report.outputs_match,
            "fuzz.nan-scatter must match on {backend} (NaN prints included)"
        );
        assert_eq!(report.parallel.exit_code, 0);
    }
}

/// A guest that prints NaN (IEEE 0.0/0.0) must still count as matching
/// when both legs produce the identical bit pattern — `|a - b| <= tol`
/// alone is false for NaN vs NaN.
#[test]
fn bit_identical_nan_output_counts_as_matching() {
    let program = Program::builder("nan-print")
        .function(Function::new("main").body(vec![
            Stmt::print(Expr::div(Expr::const_f(0.0), Expr::const_f(0.0))),
            Stmt::print(Expr::const_f(1.5)),
        ]))
        .build();
    let binary = Compiler::new().compile(&program).expect("compiles");
    for backend in [BackendKind::VirtualTime, BackendKind::NativeThreads] {
        let report = Janus::with_config(JanusConfig {
            threads: 2,
            backend,
            ..JanusConfig::default()
        })
        .run(&binary, &[])
        .expect("runs");
        assert!(
            report.parallel.output_floats[0].is_nan(),
            "guest printed NaN"
        );
        assert!(
            report.outputs_match,
            "identical NaN streams must match on {backend}"
        );
    }
}

/// The generated scatter/gather subscript wrap is euclidean: a table full
/// of negative values must never index outside the destination, so the
/// float global that sits beside it comes through with a finite checksum.
#[test]
fn negative_scatter_indices_stay_in_bounds() {
    let spec = ProgramSpec {
        seed: 0,
        arrays: vec![
            // All-negative table: (i * -5 - 3).rem_euclid(200) stays
            // positive, so drive negativity through Elementwise instead.
            ArraySpec {
                ty: ElemTy::I64,
                len: 32,
                init_mul: 7,
                init_add: 1,
                init_modulus: 200,
            },
            ArraySpec {
                ty: ElemTy::I64,
                len: 24,
                init_mul: 3,
                init_add: 5,
                init_modulus: 24,
            },
            ArraySpec {
                ty: ElemTy::F64,
                len: 16,
                init_mul: 5,
                init_add: 2,
                init_modulus: 31,
            },
        ],
        loops: vec![
            // table[i] = table[i] - big => negative subscript source.
            LoopSpec::Elementwise {
                dst: 0,
                a: 1,
                b: 0,
                op: GenOp::Sub,
                shift: 0,
                iters: 32,
            },
            LoopSpec::Scatter {
                dst: 1,
                table: 0,
                w: 1,
                iters: 32,
            },
            LoopSpec::Gather {
                dst: 1,
                table: 0,
                src: 1,
                iters: 24,
            },
        ],
    };
    check_spec(&spec).expect("negative subscripts must stay in bounds");
    // And the bystander float array's checksum is finite on a direct run.
    let binary = Compiler::new().compile(&spec.lower()).expect("compiles");
    let report = Janus::with_config(JanusConfig {
        threads: 4,
        ..JanusConfig::default()
    })
    .run(&binary, &[])
    .expect("runs");
    assert!(
        report.parallel.output_floats.iter().all(|f| f.is_finite()),
        "no generated float checksum may be poisoned by out-of-bounds writes: {:?}",
        report.parallel.output_floats
    );
}
