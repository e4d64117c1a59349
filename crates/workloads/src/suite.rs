//! The 25 synthetic benchmark programs.

use janus_compile::ast::{
    CmpOp, Cond, Expr, Function, GlobalArray, Init, LValue, Program, Stmt, Ty,
};

/// Rough behavioural class of a workload, used in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// Dominated by DOALL floating-point loops (parallelisable by Janus).
    FloatDoall,
    /// Floating-point but dominated by loops needing runtime checks.
    FloatDynamic,
    /// Integer / C++-like code dominated by incompatible loops.
    IntegerIrregular,
    /// Dominated by a may-dependent (DOACROSS-shaped) loop — data-dependent
    /// subscripts or sliding windows — that only the iteration-level
    /// speculation engine (`janus-spec`) can parallelise.
    MayDependent,
}

/// One benchmark program plus its input scales.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (SPEC-style, e.g. `"470.lbm"`).
    pub name: &'static str,
    /// Behavioural class.
    pub class: WorkloadClass,
    /// The program at reference scale.
    pub program: Program,
    /// The program at training scale (smaller arrays / fewer repeats).
    pub train_program: Program,
}

/// The nine benchmarks the paper parallelises in Figures 7–12.
#[must_use]
pub fn parallel_benchmarks() -> [&'static str; 9] {
    [
        "410.bwaves",
        "433.milc",
        "436.cactusADM",
        "437.leslie3d",
        "459.GemsFDTD",
        "462.libquantum",
        "464.h264ref",
        "470.lbm",
        "482.sphinx3",
    ]
}

/// The may-dependent (DOACROSS-shaped) kernels that the seed pipeline runs
/// serially and the `janus-spec` engine parallelises speculatively. Not part
/// of the paper's 25-benchmark suite.
#[must_use]
pub fn speculative_benchmarks() -> [&'static str; 4] {
    [
        "spec.histogram",
        "spec.sparse-update",
        "spec.gather-scatter",
        "spec.doacross-window",
    ]
}

/// Workloads promoted from differential-fuzzer counterexamples. The
/// promotion rule: every minimal counterexample `janus_bench::fuzz` finds
/// becomes a named workload here plus a named regression test, so the
/// fuzzer only ever finds each bug once. Not part of the paper's suite.
///
/// * `fuzz.nan-scatter` — generator seed 1093 (shrunk): an aliasing
///   pointer kernel feeding a shifted element-wise subtraction that drives
///   an index table negative, consumed by a signed scatter-add, with an
///   untouched bystander float array and a deliberate `0.0 / 0.0` print.
///   Caught two bugs at once: `outputs_match` rejected bit-identical NaN
///   streams, and the generated scatter's sign-following `%` indexed out
///   of bounds, stomping the global below the destination array.
#[must_use]
pub fn fuzz_regressions() -> [&'static str; 1] {
    ["fuzz.nan-scatter"]
}

/// Names of every workload in the suite (Figure 6's x-axis).
#[must_use]
pub fn all_names() -> Vec<&'static str> {
    vec![
        "400.perlbench",
        "401.bzip2",
        "403.gcc",
        "410.bwaves",
        "429.mcf",
        "433.milc",
        "434.zeusmp",
        "435.gromacs",
        "436.cactusADM",
        "437.leslie3d",
        "444.namd",
        "445.gobmk",
        "447.dealII",
        "450.soplex",
        "453.povray",
        "454.calculix",
        "456.hmmer",
        "458.sjeng",
        "459.GemsFDTD",
        "462.libquantum",
        "464.h264ref",
        "470.lbm",
        "473.astar",
        "482.sphinx3",
        "483.xalancbmk",
    ]
}

/// Builds the whole suite.
#[must_use]
pub fn suite() -> Vec<Workload> {
    all_names()
        .into_iter()
        .map(|n| workload(n).unwrap())
        .collect()
}

/// Builds one workload by name.
#[must_use]
pub fn workload(name: &str) -> Option<Workload> {
    let (class, build): (WorkloadClass, fn(u64) -> Program) = match name {
        "410.bwaves" => (WorkloadClass::FloatDynamic, bwaves),
        "433.milc" => (WorkloadClass::FloatDynamic, milc),
        "436.cactusADM" => (WorkloadClass::FloatDynamic, cactus),
        "437.leslie3d" => (WorkloadClass::FloatDynamic, leslie3d),
        "459.GemsFDTD" => (WorkloadClass::FloatDynamic, gems_fdtd),
        "462.libquantum" => (WorkloadClass::FloatDoall, libquantum),
        "464.h264ref" => (WorkloadClass::IntegerIrregular, h264ref),
        "470.lbm" => (WorkloadClass::FloatDoall, lbm),
        "482.sphinx3" => (WorkloadClass::FloatDynamic, sphinx3),
        "434.zeusmp" | "435.gromacs" | "444.namd" | "454.calculix" => {
            (WorkloadClass::FloatDynamic, mixed_float_irregular)
        }
        "400.perlbench" | "403.gcc" | "445.gobmk" | "458.sjeng" | "483.xalancbmk"
        | "453.povray" | "447.dealII" => (WorkloadClass::IntegerIrregular, irregular_integer),
        "401.bzip2" | "429.mcf" | "456.hmmer" | "473.astar" | "450.soplex" => {
            (WorkloadClass::IntegerIrregular, pointer_chasing_integer)
        }
        "spec.histogram" => (WorkloadClass::MayDependent, spec_histogram),
        "spec.sparse-update" => (WorkloadClass::MayDependent, spec_sparse_update),
        "spec.gather-scatter" => (WorkloadClass::MayDependent, spec_gather_scatter),
        "spec.doacross-window" => (WorkloadClass::MayDependent, spec_doacross_window),
        "fuzz.nan-scatter" => (WorkloadClass::MayDependent, fuzz_nan_scatter),
        _ => return None,
    };
    let seed = name.bytes().map(u64::from).sum::<u64>();
    let ref_scale = 16 + seed % 7;
    let train_scale = 3 + seed % 3;
    let mut program = build(ref_scale);
    program.name = name.to_string();
    let mut train_program = build(train_scale);
    train_program.name = format!("{name}.train");
    Some(Workload {
        name: all_names()
            .into_iter()
            .chain(speculative_benchmarks())
            .chain(fuzz_regressions())
            .find(|n| *n == name)?,
        class,
        program,
        train_program,
    })
}

// ----------------------------------------------------------------------------
// Building blocks
// ----------------------------------------------------------------------------

fn f64_array(name: &str, len: usize, seed: i64) -> GlobalArray {
    GlobalArray {
        name: name.to_string(),
        ty: Ty::F64,
        len,
        init: Init::Pattern {
            mul: 37 + seed,
            add: 11 * seed + 3,
            modulus: 1009,
        },
    }
}

fn i64_array(name: &str, len: usize, seed: i64) -> GlobalArray {
    GlobalArray {
        name: name.to_string(),
        ty: Ty::I64,
        len,
        init: Init::Pattern {
            mul: 17 + seed,
            add: 7 * seed + 1,
            modulus: len.max(2) as i64,
        },
    }
}

/// `dst[i] = a*x[i] + y[i]` over global arrays (static DOALL).
fn axpy_loop(dst: &str, x: &str, y: &str, n: i64, a: f64) -> Stmt {
    Stmt::simple_for(
        "i",
        Expr::const_i(0),
        Expr::const_i(n),
        vec![Stmt::assign(
            LValue::store(dst, Expr::var("i")),
            Expr::add(
                Expr::mul(Expr::load(x, Expr::var("i")), Expr::const_f(a)),
                Expr::load(y, Expr::var("i")),
            ),
        )],
    )
}

/// `s += x[i]*y[i]` reduction loop (static DOALL with reduction).
fn dot_loop(x: &str, y: &str, n: i64) -> Vec<Stmt> {
    vec![
        Stmt::assign(LValue::var("s"), Expr::const_f(0.0)),
        Stmt::simple_for(
            "i",
            Expr::const_i(0),
            Expr::const_i(n),
            vec![Stmt::assign(
                LValue::var("s"),
                Expr::add(
                    Expr::var("s"),
                    Expr::mul(Expr::load(x, Expr::var("i")), Expr::load(y, Expr::var("i"))),
                ),
            )],
        ),
        Stmt::print(Expr::var("s")),
    ]
}

/// A pointer-parameterised element-wise kernel (dynamic DOALL: bounds checks).
fn pointer_kernel(name: &str, extra_reads: usize) -> Function {
    let mut value = Expr::load_ptr("s", Expr::var("i"));
    for k in 0..extra_reads {
        value = Expr::add(
            value,
            Expr::mul(
                Expr::load_ptr(if k % 2 == 0 { "p" } else { "q" }, Expr::var("i")),
                Expr::const_f(0.25 + k as f64 * 0.125),
            ),
        );
    }
    Function::new(name)
        .param("d", Ty::Ptr)
        .param("s", Ty::Ptr)
        .param("p", Ty::Ptr)
        .param("n", Ty::I64)
        .local("q", Ty::Ptr)
        .local("i", Ty::I64)
        .body(vec![
            Stmt::assign(LValue::var("q"), Expr::var("p")),
            Stmt::simple_for(
                "i",
                Expr::const_i(0),
                Expr::var("n"),
                vec![Stmt::assign(LValue::store_ptr("d", Expr::var("i")), value)],
            ),
        ])
}

/// A recurrence loop `a[i] = a[i-1]*c + b[i]` (static dependence).
fn recurrence_loop(a: &str, b: &str, n: i64) -> Stmt {
    Stmt::simple_for(
        "i",
        Expr::const_i(1),
        Expr::const_i(n),
        vec![Stmt::assign(
            LValue::store(a, Expr::var("i")),
            Expr::add(
                Expr::mul(
                    Expr::load(a, Expr::sub(Expr::var("i"), Expr::const_i(1))),
                    Expr::const_f(0.5),
                ),
                Expr::load(b, Expr::var("i")),
            ),
        )],
    )
}

/// A pointer-chasing loop over an index array (incompatible: irregular
/// induction through memory).
fn pointer_chase_loop(next: &str, steps: i64) -> Vec<Stmt> {
    vec![
        Stmt::assign(LValue::var("p"), Expr::const_i(0)),
        Stmt::assign(LValue::var("k"), Expr::const_i(0)),
        Stmt::While {
            cond: Cond::new(Expr::var("k"), CmpOp::Lt, Expr::const_i(steps)),
            body: vec![
                Stmt::assign(LValue::var("p"), Expr::load(next, Expr::var("p"))),
                Stmt::assign(
                    LValue::var("acc"),
                    Expr::add(Expr::var("acc"), Expr::var("p")),
                ),
                Stmt::assign(
                    LValue::var("k"),
                    Expr::add(Expr::var("k"), Expr::const_i(1)),
                ),
            ],
        },
        Stmt::print(Expr::var("acc")),
    ]
}

/// A loop that prints inside the body (incompatible: IO).
fn io_loop(n: i64) -> Stmt {
    Stmt::simple_for(
        "i",
        Expr::const_i(0),
        Expr::const_i(n),
        vec![Stmt::print(Expr::var("i"))],
    )
}

/// A loop making indirect calls through a function table (incompatible).
fn indirect_call_loop(table: &str, n: i64) -> Stmt {
    Stmt::simple_for(
        "i",
        Expr::const_i(0),
        Expr::const_i(n),
        vec![Stmt::CallIndirect {
            table: table.to_string(),
            index: Expr::rem(Expr::var("i"), Expr::const_i(2)),
        }],
    )
}

// ----------------------------------------------------------------------------
// The nine parallelisable benchmarks
// ----------------------------------------------------------------------------

/// 470.lbm: one huge element-wise stencil sweep dominates execution (~98%).
fn lbm(scale: u64) -> Program {
    let n = (scale * 1200) as i64;
    Program::builder("470.lbm")
        .global(f64_array("src", n as usize, 1))
        .global(f64_array("dst", n as usize, 2))
        .global(f64_array("flags", n as usize, 3))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("t", Ty::I64)
                .local("s", Ty::F64)
                .body(vec![
                    Stmt::step_for(
                        "t",
                        Expr::const_i(0),
                        Expr::const_i(4),
                        1,
                        vec![Stmt::simple_for(
                            "i",
                            Expr::const_i(0),
                            Expr::const_i(n),
                            vec![Stmt::assign(
                                LValue::store("dst", Expr::var("i")),
                                Expr::add(
                                    Expr::mul(
                                        Expr::load("src", Expr::var("i")),
                                        Expr::const_f(0.85),
                                    ),
                                    Expr::mul(
                                        Expr::load("flags", Expr::var("i")),
                                        Expr::const_f(0.15),
                                    ),
                                ),
                            )],
                        )],
                    ),
                    Stmt::print(Expr::load("dst", Expr::const_i(17))),
                ]),
        )
        .build()
}

/// 462.libquantum: big DOALL gate-application loops plus a reduction.
fn libquantum(scale: u64) -> Program {
    let n = (scale * 1000) as i64;
    let mut body = vec![
        Stmt::simple_for(
            "i",
            Expr::const_i(0),
            Expr::const_i(n),
            vec![Stmt::assign(
                LValue::store("amp", Expr::var("i")),
                Expr::mul(Expr::load("amp", Expr::var("i")), Expr::const_f(0.9999)),
            )],
        ),
        Stmt::simple_for(
            "i",
            Expr::const_i(0),
            Expr::const_i(n),
            vec![Stmt::assign(
                LValue::store("state", Expr::var("i")),
                Expr::add(
                    Expr::load("state", Expr::var("i")),
                    Expr::load("amp", Expr::var("i")),
                ),
            )],
        ),
    ];
    body.extend(dot_loop("amp", "state", n));
    Program::builder("462.libquantum")
        .global(f64_array("amp", n as usize, 5))
        .global(f64_array("state", n as usize, 6))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("s", Ty::F64)
                .body(body),
        )
        .build()
}

/// 410.bwaves: the hot loop calls `pow` from the shared library and walks
/// arrays through pointer parameters (speculation + bounds checks).
fn bwaves(scale: u64) -> Program {
    let n = (scale * 1500) as i64;
    Program::builder("410.bwaves")
        .global(f64_array("u", n as usize, 7))
        .global(f64_array("v", n as usize, 8))
        .global(f64_array("w", n as usize, 9))
        .function(
            Function::new("flux")
                .param("d", Ty::Ptr)
                .param("s", Ty::Ptr)
                .param("n", Ty::I64)
                .local("i", Ty::I64)
                .local("t", Ty::F64)
                .body(vec![Stmt::simple_for(
                    "i",
                    Expr::const_i(0),
                    Expr::var("n"),
                    vec![
                        Stmt::call_ext(
                            "pow",
                            vec![Expr::load_ptr("s", Expr::var("i")), Expr::const_f(1.4)],
                            Some(LValue::var("t")),
                        ),
                        Stmt::assign(LValue::store_ptr("d", Expr::var("i")), Expr::var("t")),
                    ],
                )]),
        )
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("s", Ty::F64)
                .body({
                    let mut b = vec![
                        Stmt::Call {
                            name: "flux".into(),
                            args: vec![Expr::addr_of("v"), Expr::addr_of("u"), Expr::const_i(n)],
                            ret: None,
                        },
                        axpy_loop("w", "v", "u", n, 0.25),
                    ];
                    b.extend(dot_loop("w", "v", n));
                    b
                }),
        )
        .build()
}

/// 436.cactusADM: a 3-array pointer stencil needing a few bounds checks.
fn cactus(scale: u64) -> Program {
    let n = (scale * 2200) as i64;
    Program::builder("436.cactusADM")
        .global(f64_array("g11", n as usize, 10))
        .global(f64_array("g12", n as usize, 11))
        .global(f64_array("k11", n as usize, 12))
        .function(pointer_kernel("adm_kernel", 2))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("s", Ty::F64)
                .body({
                    let mut b = vec![Stmt::Call {
                        name: "adm_kernel".into(),
                        args: vec![
                            Expr::addr_of("k11"),
                            Expr::addr_of("g11"),
                            Expr::addr_of("g12"),
                            Expr::const_i(n),
                        ],
                        ret: None,
                    }];
                    b.extend(dot_loop("k11", "g11", n));
                    b
                }),
        )
        .build()
}

/// 459.GemsFDTD: many field-update loops, each over several pointer-based
/// arrays, so many bounds checks per loop.
fn gems_fdtd(scale: u64) -> Program {
    let n = (scale * 1600) as i64;
    let mut main_body = Vec::new();
    for (d, s) in [("ex", "hy"), ("ey", "hz"), ("ez", "hx")] {
        main_body.push(Stmt::Call {
            name: "update".into(),
            args: vec![
                Expr::addr_of(d),
                Expr::addr_of(s),
                Expr::addr_of("coef"),
                Expr::const_i(n),
            ],
            ret: None,
        });
    }
    main_body.extend(dot_loop("ex", "ey", n));
    Program::builder("459.GemsFDTD")
        .global(f64_array("ex", n as usize, 13))
        .global(f64_array("ey", n as usize, 14))
        .global(f64_array("ez", n as usize, 15))
        .global(f64_array("hx", n as usize, 16))
        .global(f64_array("hy", n as usize, 17))
        .global(f64_array("hz", n as usize, 18))
        .global(f64_array("coef", n as usize, 19))
        .function(pointer_kernel("update", 3))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("s", Ty::F64)
                .body(main_body),
        )
        .build()
}

/// 433.milc: many short loops invoked many times, so thread start/finish
/// overhead dominates; plus a sequential recurrence phase (Amdahl tail).
fn milc(scale: u64) -> Program {
    let n = (scale * 24) as i64;
    let reps = 60;
    Program::builder("433.milc")
        .global(f64_array("link", n as usize, 20))
        .global(f64_array("mom", n as usize, 21))
        .global(f64_array("force", n as usize, 22))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("r", Ty::I64)
                .local("s", Ty::F64)
                .body({
                    let mut b = vec![Stmt::step_for(
                        "r",
                        Expr::const_i(0),
                        Expr::const_i(reps),
                        1,
                        vec![
                            axpy_loop("force", "link", "mom", n, 0.1),
                            recurrence_loop("mom", "force", n),
                        ],
                    )];
                    b.extend(dot_loop("force", "link", n));
                    b
                }),
        )
        .build()
}

/// 437.leslie3d: loop candidates have low iteration counts and a large
/// sequential recurrence fraction.
fn leslie3d(scale: u64) -> Program {
    let n = (scale * 40) as i64;
    Program::builder("437.leslie3d")
        .global(f64_array("q", n as usize, 23))
        .global(f64_array("flux", n as usize, 24))
        .global(f64_array("visc", n as usize, 25))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("r", Ty::I64)
                .local("s", Ty::F64)
                .body({
                    let mut b = vec![Stmt::step_for(
                        "r",
                        Expr::const_i(0),
                        Expr::const_i(30),
                        1,
                        vec![
                            axpy_loop("flux", "q", "visc", n, 0.3),
                            recurrence_loop("q", "flux", n),
                            recurrence_loop("visc", "q", n),
                        ],
                    )];
                    b.extend(dot_loop("flux", "visc", n));
                    b
                }),
        )
        .build()
}

/// 482.sphinx3: a modest DOALL fraction plus heavy sequential scoring code.
fn sphinx3(scale: u64) -> Program {
    let n = (scale * 1400) as i64;
    Program::builder("482.sphinx3")
        .global(f64_array("feat", n as usize, 26))
        .global(f64_array("score", n as usize, 27))
        .global(f64_array("gauden", n as usize, 28))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("s", Ty::F64)
                .body({
                    let mut b = vec![
                        axpy_loop("score", "feat", "gauden", n, 0.7),
                        recurrence_loop("gauden", "score", n),
                        recurrence_loop("score", "feat", n),
                    ];
                    b.extend(dot_loop("score", "gauden", n));
                    b
                }),
        )
        .build()
}

/// 464.h264ref: branchy integer code with indirect calls and only small
/// DOALL loops, so DynamoRIO overhead dominates.
fn h264ref(scale: u64) -> Program {
    let n = (scale * 40) as i64;
    Program::builder("464.h264ref")
        .global(i64_array("blocks", n as usize, 29))
        .global(i64_array("mv", n as usize, 30))
        .global_i64("table", 2)
        .global(f64_array("sad", n as usize, 31))
        .global(f64_array("cost", n as usize, 32))
        .function(Function::new("mode0").body(vec![Stmt::assign(
            LValue::store("mv", Expr::const_i(0)),
            Expr::add(Expr::load("mv", Expr::const_i(0)), Expr::const_i(1)),
        )]))
        .function(Function::new("mode1").body(vec![Stmt::assign(
            LValue::store("mv", Expr::const_i(1)),
            Expr::add(Expr::load("mv", Expr::const_i(1)), Expr::const_i(2)),
        )]))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("k", Ty::I64)
                .local("p", Ty::I64)
                .local("acc", Ty::I64)
                .local("s", Ty::F64)
                .body({
                    let mut b = vec![
                        Stmt::assign(
                            LValue::store("table", Expr::const_i(0)),
                            Expr::AddrOfFn("mode0".into()),
                        ),
                        Stmt::assign(
                            LValue::store("table", Expr::const_i(1)),
                            Expr::AddrOfFn("mode1".into()),
                        ),
                        indirect_call_loop("table", n),
                        Stmt::simple_for(
                            "i",
                            Expr::const_i(0),
                            Expr::const_i(n),
                            vec![Stmt::If {
                                cond: Cond::new(
                                    Expr::rem(
                                        Expr::load("blocks", Expr::var("i")),
                                        Expr::const_i(3),
                                    ),
                                    CmpOp::Eq,
                                    Expr::const_i(0),
                                ),
                                then: vec![Stmt::assign(
                                    LValue::var("acc"),
                                    Expr::add(Expr::var("acc"), Expr::load("mv", Expr::var("i"))),
                                )],
                                els: vec![Stmt::assign(
                                    LValue::var("acc"),
                                    Expr::add(Expr::var("acc"), Expr::const_i(1)),
                                )],
                            }],
                        ),
                        axpy_loop("cost", "sad", "cost", n, 0.5),
                        Stmt::print(Expr::var("acc")),
                    ];
                    b.extend(dot_loop("cost", "sad", n));
                    b
                }),
        )
        .build()
}

// ----------------------------------------------------------------------------
// May-dependent (speculative DOACROSS) kernels
// ----------------------------------------------------------------------------

/// An i64 index array with values in `[0, modulus)`.
fn index_array(name: &str, len: usize, seed: i64, modulus: i64) -> GlobalArray {
    GlobalArray {
        name: name.to_string(),
        ty: Ty::I64,
        len,
        init: Init::Pattern {
            mul: 13 + seed,
            add: 5 * seed + 2,
            modulus: modulus.max(2),
        },
    }
}

/// `spec.histogram`: `hist[idx[i]] += w[i]` — a scatter-add through a
/// data-dependent subscript. Collisions exist (the bin count is below the
/// iteration count) but are spread far apart, so speculative iterations
/// rarely conflict inside the in-flight window.
fn spec_histogram(scale: u64) -> Program {
    let n = (scale * 420) as i64;
    let bins = (n * 3 / 4).max(8);
    let mut body = vec![Stmt::simple_for(
        "i",
        Expr::const_i(0),
        Expr::const_i(n),
        vec![Stmt::assign(
            LValue::store("hist", Expr::load("idx", Expr::var("i"))),
            Expr::add(
                Expr::load("hist", Expr::load("idx", Expr::var("i"))),
                Expr::load("w", Expr::var("i")),
            ),
        )],
    )];
    body.extend(dot_loop("hist", "hist", bins));
    Program::builder("spec.histogram")
        .global(index_array("idx", n as usize, 41, bins))
        .global(f64_array("w", n as usize, 42))
        .global(f64_array("hist", bins as usize, 43))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("s", Ty::F64)
                .body(body),
        )
        .build()
}

/// `spec.sparse-update`: `cell[map[i]] = cell[map[i]] * 0.6 + inc[i]` — a
/// read-modify-write sparse field update; every cell is revisited a few
/// times, at long distances.
fn spec_sparse_update(scale: u64) -> Program {
    let n = (scale * 380) as i64;
    let cells = (n / 2).max(8);
    let mut body = vec![Stmt::simple_for(
        "i",
        Expr::const_i(0),
        Expr::const_i(n),
        vec![Stmt::assign(
            LValue::store("cell", Expr::load("map", Expr::var("i"))),
            Expr::add(
                Expr::mul(
                    Expr::load("cell", Expr::load("map", Expr::var("i"))),
                    Expr::const_f(0.6),
                ),
                Expr::load("inc", Expr::var("i")),
            ),
        )],
    )];
    body.extend(dot_loop("cell", "cell", cells));
    Program::builder("spec.sparse-update")
        .global(index_array("map", n as usize, 44, cells))
        .global(f64_array("inc", n as usize, 45))
        .global(f64_array("cell", cells as usize, 46))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("s", Ty::F64)
                .body(body),
        )
        .build()
}

/// `spec.gather-scatter`: `dst[p[i]] += src[q[i]]` — independent gather and
/// scatter permutations, the classic irregular kernel no bounds check can
/// discharge.
fn spec_gather_scatter(scale: u64) -> Program {
    let n = (scale * 340) as i64;
    let mut body = vec![Stmt::simple_for(
        "i",
        Expr::const_i(0),
        Expr::const_i(n),
        vec![Stmt::assign(
            LValue::store("dst", Expr::load("p", Expr::var("i"))),
            Expr::add(
                Expr::load("dst", Expr::load("p", Expr::var("i"))),
                Expr::load("src", Expr::load("q", Expr::var("i"))),
            ),
        )],
    )];
    body.extend(dot_loop("dst", "src", n));
    Program::builder("spec.gather-scatter")
        .global(index_array("p", n as usize, 47, n))
        .global(index_array("q", n as usize, 48, n))
        .global(f64_array("src", n as usize, 49))
        .global(f64_array("dst", n as usize, 50))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("s", Ty::F64)
                .body(body),
        )
        .build()
}

/// `spec.doacross-window`: `ring[i % 6] += a[i]` — a sliding-window
/// recurrence with cross-iteration dependences at distance 6, *inside* the
/// speculative in-flight window: iterations genuinely conflict, abort and
/// retry, and the abort counters in the run report are non-trivial.
fn spec_doacross_window(scale: u64) -> Program {
    let n = (scale * 300) as i64;
    let window = 6i64;
    let mut body = vec![Stmt::simple_for(
        "i",
        Expr::const_i(0),
        Expr::const_i(n),
        vec![Stmt::assign(
            LValue::store("ring", Expr::rem(Expr::var("i"), Expr::const_i(window))),
            Expr::add(
                Expr::load("ring", Expr::rem(Expr::var("i"), Expr::const_i(window))),
                Expr::load("a", Expr::var("i")),
            ),
        )],
    )];
    body.extend(dot_loop("ring", "ring", window));
    Program::builder("spec.doacross-window")
        .global(f64_array("a", n as usize, 51))
        .global(f64_array("ring", window as usize, 52))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("s", Ty::F64)
                .body(body),
        )
        .build()
}

/// `fuzz.nan-scatter`: the shrunk differential-fuzzer counterexample from
/// generator seed 1093, promoted per the rule on [`fuzz_regressions`]. An
/// aliasing pointer kernel doubles `acc` in place, a shifted element-wise
/// subtraction drives `table` negative, and a scatter-add consumes those
/// signed values through a euclidean wrap (`((x % n) + n) % n` — the
/// JVA's `Rem` follows the dividend's sign, so the single-`%` version of
/// this workload wrote below `acc` and corrupted `bystander`). The
/// deliberate `0.0 / 0.0` print pins NaN handling in the output-equality
/// check: both legs print NaN and must still count as matching.
fn fuzz_nan_scatter(scale: u64) -> Program {
    let tn = (scale * 7) as i64; // table / weight length
    let an = (scale * 8) as i64; // scatter destination length (differs from tn)
    let wrap = |x: Expr| {
        Expr::rem(
            Expr::add(Expr::rem(x, Expr::const_i(an)), Expr::const_i(an)),
            Expr::const_i(an),
        )
    };
    let body = vec![
        // Aliasing pointer kernel: kern(&acc, &acc, an) => acc[i] += acc[i].
        Stmt::Call {
            name: "kern".to_string(),
            args: vec![
                Expr::addr_of("acc"),
                Expr::addr_of("acc"),
                Expr::const_i(an),
            ],
            ret: None,
        },
        // Shifted element-wise subtraction pushes table values negative.
        Stmt::simple_for(
            "i",
            Expr::const_i(0),
            Expr::const_i(tn),
            vec![Stmt::assign(
                LValue::store("table", Expr::var("i")),
                Expr::sub(
                    Expr::load(
                        "table",
                        Expr::rem(
                            Expr::add(Expr::var("i"), Expr::const_i(4)),
                            Expr::const_i(tn),
                        ),
                    ),
                    Expr::load(
                        "acc",
                        Expr::rem(
                            Expr::add(Expr::var("i"), Expr::const_i(4)),
                            Expr::const_i(an),
                        ),
                    ),
                ),
            )],
        ),
        // Scatter-add through the signed, euclidean-wrapped subscript.
        Stmt::simple_for(
            "i",
            Expr::const_i(0),
            Expr::const_i(tn),
            vec![
                Stmt::assign(LValue::var("t"), wrap(Expr::load("table", Expr::var("i")))),
                Stmt::assign(
                    LValue::store("acc", Expr::var("t")),
                    Expr::add(
                        Expr::load("acc", Expr::var("t")),
                        Expr::load("table", Expr::var("i")),
                    ),
                ),
            ],
        ),
        // The NaN pin: IEEE 0/0, printed from both execution legs.
        Stmt::print(Expr::div(Expr::const_f(0.0), Expr::const_f(0.0))),
        // Integer checksum over the scatter destination.
        Stmt::assign(LValue::var("cs"), Expr::const_i(0)),
        Stmt::simple_for(
            "i",
            Expr::const_i(0),
            Expr::const_i(an),
            vec![Stmt::assign(
                LValue::var("cs"),
                Expr::add(
                    Expr::mul(Expr::var("cs"), Expr::const_i(31)),
                    Expr::load("acc", Expr::var("i")),
                ),
            )],
        ),
        Stmt::print(Expr::var("cs")),
        // The bystander must come through untouched: with the pre-fix
        // single-`%` scatter this sum read as garbage.
        Stmt::assign(LValue::var("s"), Expr::const_f(0.0)),
        Stmt::simple_for(
            "i",
            Expr::const_i(0),
            Expr::const_i(tn),
            vec![Stmt::assign(
                LValue::var("s"),
                Expr::add(Expr::var("s"), Expr::load("bystander", Expr::var("i"))),
            )],
        ),
        Stmt::print(Expr::var("s")),
    ];
    Program::builder("fuzz.nan-scatter")
        .global(i64_array("acc", an as usize, 61))
        .global(f64_array("bystander", tn as usize, 62))
        .global(index_array("table", tn as usize, 63, an))
        .function(
            Function::new("kern")
                .param("p", Ty::Ptr)
                .param("q", Ty::Ptr)
                .param("n", Ty::I64)
                .local("i", Ty::I64)
                .body(vec![Stmt::simple_for(
                    "i",
                    Expr::const_i(0),
                    Expr::var("n"),
                    vec![Stmt::assign(
                        LValue::store_ptr("p", Expr::var("i")),
                        Expr::add(
                            Expr::load_ptr("p", Expr::var("i")),
                            Expr::load_ptr("q", Expr::var("i")),
                        ),
                    )],
                )]),
        )
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("t", Ty::I64)
                .local("cs", Ty::I64)
                .local("s", Ty::F64)
                .body(body),
        )
        .build()
}

// ----------------------------------------------------------------------------
// Non-parallelisable benchmark templates
// ----------------------------------------------------------------------------

/// Float code mixing a small DOALL loop with dominant recurrences and IO
/// (zeusmp, gromacs, namd, calculix).
fn mixed_float_irregular(scale: u64) -> Program {
    let n = (scale * 60) as i64;
    Program::builder("mixed")
        .global(f64_array("a", n as usize, 33))
        .global(f64_array("b", n as usize, 34))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("s", Ty::F64)
                .body({
                    let mut b = vec![
                        axpy_loop("a", "b", "a", n, 0.2),
                        recurrence_loop("b", "a", n),
                        recurrence_loop("a", "b", n),
                        io_loop(8),
                    ];
                    b.extend(dot_loop("a", "b", n));
                    b
                }),
        )
        .build()
}

/// Integer code dominated by irregular control flow, indirect calls and IO
/// (perlbench, gcc, gobmk, sjeng, xalancbmk, povray, dealII).
fn irregular_integer(scale: u64) -> Program {
    let n = (scale * 70) as i64;
    Program::builder("irregular")
        .global(i64_array("work", n as usize, 35))
        .global(i64_array("hash", n as usize, 36))
        .global_i64("table", 2)
        .function(Function::new("op_add").body(vec![Stmt::assign(
            LValue::store("hash", Expr::const_i(0)),
            Expr::add(Expr::load("hash", Expr::const_i(0)), Expr::const_i(3)),
        )]))
        .function(Function::new("op_xor").body(vec![Stmt::assign(
            LValue::store("hash", Expr::const_i(1)),
            Expr::add(Expr::load("hash", Expr::const_i(1)), Expr::const_i(5)),
        )]))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("k", Ty::I64)
                .local("p", Ty::I64)
                .local("acc", Ty::I64)
                .body(vec![
                    Stmt::assign(
                        LValue::store("table", Expr::const_i(0)),
                        Expr::AddrOfFn("op_add".into()),
                    ),
                    Stmt::assign(
                        LValue::store("table", Expr::const_i(1)),
                        Expr::AddrOfFn("op_xor".into()),
                    ),
                    indirect_call_loop("table", n),
                    // Hash loop with a data-dependent index (unknown access).
                    Stmt::simple_for(
                        "i",
                        Expr::const_i(0),
                        Expr::const_i(n),
                        vec![Stmt::assign(
                            LValue::store("hash", Expr::load("work", Expr::var("i"))),
                            Expr::add(
                                Expr::load("hash", Expr::load("work", Expr::var("i"))),
                                Expr::const_i(1),
                            ),
                        )],
                    ),
                    io_loop(6),
                    Stmt::print(Expr::load("hash", Expr::const_i(0))),
                ]),
        )
        .build()
}

/// Integer code dominated by pointer chasing over linked structures
/// (bzip2, mcf, hmmer, astar, soplex).
fn pointer_chasing_integer(scale: u64) -> Program {
    let n = (scale * 90) as i64;
    let mut body = vec![
        // Build a permutation-like next[] chain.
        Stmt::simple_for(
            "i",
            Expr::const_i(0),
            Expr::const_i(n),
            vec![Stmt::assign(
                LValue::store("next", Expr::var("i")),
                Expr::rem(
                    Expr::add(
                        Expr::mul(Expr::var("i"), Expr::const_i(7)),
                        Expr::const_i(3),
                    ),
                    Expr::const_i(n),
                ),
            )],
        ),
    ];
    body.extend(pointer_chase_loop("next", n * 3));
    Program::builder("chase")
        .global(i64_array("next", n as usize, 37))
        .function(
            Function::new("main")
                .local("i", Ty::I64)
                .local("p", Ty::I64)
                .local("k", Ty::I64)
                .local("acc", Ty::I64)
                .body(body),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_compile::{CompileOptions, Compiler};
    use janus_vm::{Process, Vm};

    #[test]
    fn all_25_workloads_build_and_compile() {
        let suite = suite();
        assert_eq!(suite.len(), 25);
        for w in &suite {
            let bin = Compiler::with_options(CompileOptions::gcc_o3())
                .compile(&w.program)
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", w.name));
            assert!(bin.num_instructions() > 0, "{}", w.name);
            let train = Compiler::new().compile(&w.train_program).unwrap();
            assert!(
                train.num_instructions() > 0,
                "{} train binary empty",
                w.name
            );
        }
    }

    #[test]
    fn parallel_candidates_execute_natively_and_produce_output() {
        for name in parallel_benchmarks() {
            let w = workload(name).unwrap();
            let bin = Compiler::with_options(CompileOptions::gcc_o2())
                .compile(&w.train_program)
                .unwrap();
            let mut vm = Vm::new(Process::load(&bin).unwrap());
            let result = vm.run().unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert!(result.retired > 0, "{name}");
            assert!(
                !vm.output_floats().is_empty() || !vm.output_ints().is_empty(),
                "{name} produced no output"
            );
        }
    }

    #[test]
    fn workload_lookup_and_classification() {
        assert!(parallel_benchmarks().contains(&"470.lbm"));
        assert!(!parallel_benchmarks().contains(&"403.gcc"));
        assert!(workload("does-not-exist").is_none());
        assert_eq!(all_names().len(), 25);
        assert_eq!(parallel_benchmarks().len(), 9);
        let h = workload("spec.histogram").unwrap();
        assert!(speculative_benchmarks().contains(&h.name));
        assert!(!parallel_benchmarks().contains(&h.name));
        assert_eq!(h.class, WorkloadClass::MayDependent);
        assert!(!speculative_benchmarks().contains(&"470.lbm"));
    }

    #[test]
    fn speculative_workloads_compile_and_run_natively() {
        let suite: Vec<Workload> = speculative_benchmarks()
            .into_iter()
            .map(|n| workload(n).unwrap())
            .collect();
        assert_eq!(suite.len(), 4);
        for w in &suite {
            let bin = Compiler::with_options(CompileOptions::gcc_o2())
                .compile(&w.train_program)
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", w.name));
            let mut vm = Vm::new(Process::load(&bin).unwrap());
            let result = vm
                .run()
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
            assert!(result.retired > 0, "{}", w.name);
            assert!(
                !vm.output_floats().is_empty(),
                "{} produced no output",
                w.name
            );
        }
    }

    #[test]
    fn train_programs_are_smaller_than_ref() {
        let w = workload("470.lbm").unwrap();
        let ref_len = w.program.globals.iter().map(|g| g.len).sum::<usize>();
        let train_len = w.train_program.globals.iter().map(|g| g.len).sum::<usize>();
        assert!(train_len < ref_len);
    }
}
