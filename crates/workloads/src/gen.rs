//! # Random guest-program generation for differential fuzzing
//!
//! The named suite ([`mod@crate::suite`]) is 13 hand-written benchmark kernels;
//! this module turns the cross-backend equivalence batteries into a
//! *scalable fuzzer* by generating arbitrary guest programs from a seed:
//! loop nests of configurable depth, affine and modulo subscripts, indirect
//! gathers and may-dependent scatters, add/sub reductions, loop-carried
//! recurrences and stencils, pointer-parameterised kernels (optionally
//! aliased), calls into the shared system library, irregular `while` chases,
//! data-dependent branches and IO inside loops — every loop category the
//! analyser knows, in random combination.
//!
//! The design splits generation from lowering. [`ProgramSpec`] is a small
//! declarative description (arrays + a list of [`LoopSpec`] shapes) produced
//! deterministically from a `u64` seed via the vendored proptest
//! [`TestRng`]; [`ProgramSpec::lower`] turns it into a well-formed
//! [`Program`]. Keeping the spec around (rather than generating the AST
//! directly) is what makes *shrinking* possible: [`ProgramSpec::
//! shrink_candidates`] proposes strictly simpler specs (drop a loop, halve
//! trip counts, halve arrays), and a greedy fixpoint over those candidates
//! reduces any failing program to a minimal counterexample.
//!
//! Every generated program terminates by construction: all `for` bounds are
//! compile-time constants and the single `while` shape counts down a bounded
//! counter. All subscripts are either range-limited by construction or
//! wrapped with an explicit `% len`, so no access can leave its array. The
//! program ends with a per-array checksum epilogue (an order-sensitive
//! integer fold and an order-insensitive float sum, both printed), so the
//! output stream captures the final memory state and a divergence in any
//! array is visible even without comparing memory digests.

use janus_compile::ast::{
    BinOp, CmpOp, Cond, Expr, Function, GlobalArray, Init, LValue, Program, Stmt, Ty,
};
use proptest::test_runner::TestRng;
use std::fmt;

/// Element type of a generated global array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemTy {
    /// 64-bit signed integers.
    I64,
    /// 64-bit floats.
    F64,
}

/// A generated global array: type, length, deterministic initial contents.
#[derive(Debug, Clone, PartialEq)]
pub struct ArraySpec {
    /// Element type.
    pub ty: ElemTy,
    /// Number of elements (kept small: fuzz cases favour breadth over size).
    pub len: usize,
    /// `a[i] = (i * mul + add) % modulus` (scaled into `[0, 1)` for floats).
    pub init_mul: i64,
    /// See `init_mul`.
    pub init_add: i64,
    /// See `init_mul` (always positive).
    pub init_modulus: i64,
}

/// One top-level loop nest in the generated program. Array operands are
/// indices into [`ProgramSpec::arrays`]; lowering clamps every trip count
/// and subscript into range, so any combination of fields is valid — which
/// is exactly what makes mechanical shrinking safe.
#[derive(Debug, Clone, PartialEq)]
pub enum LoopSpec {
    /// `dst[i] = a[(i + shift) % len_a] op b[i]` — DOALL elementwise map;
    /// `shift == 0` lowers to the pure affine form.
    Elementwise {
        /// Destination array.
        dst: usize,
        /// First source array (same type as `dst`).
        a: usize,
        /// Second source array (same type as `dst`).
        b: usize,
        /// Operator (type-appropriate).
        op: GenOp,
        /// Read skew for the first source; non-zero lowers a `%` subscript.
        shift: i64,
        /// Trip count (clamped to the operand lengths).
        iters: usize,
    },
    /// `acc (+|-)= a[i] * b[i]`, printed after the loop — a recognisable
    /// add/sub reduction.
    Reduction {
        /// First source array.
        a: usize,
        /// Second source array (same type).
        b: usize,
        /// Subtract instead of add.
        sub: bool,
        /// Trip count.
        iters: usize,
    },
    /// `dst[i] = src[i-1] + src[i+1]` for `i in 1..n` — a three-point
    /// stencil; when `dst == src` it carries a cross-iteration dependence.
    Stencil {
        /// Destination array.
        dst: usize,
        /// Source array (same type; may equal `dst`).
        src: usize,
        /// Trip count.
        iters: usize,
    },
    /// `a[i] = a[i-1] * mul + add` — a first-order recurrence, sequential
    /// by construction.
    Recurrence {
        /// The array (read and written).
        arr: usize,
        /// Multiplier.
        mul: i64,
        /// Addend.
        add: i64,
        /// Trip count.
        iters: usize,
    },
    /// `dst[table[i] % len] += w[i]` — a may-dependent scatter-add, the
    /// DOACROSS shape `janus-spec` exists for.
    Scatter {
        /// Destination array.
        dst: usize,
        /// Integer array supplying the indirect subscripts.
        table: usize,
        /// Weight array (same type as `dst`).
        w: usize,
        /// Trip count.
        iters: usize,
    },
    /// `dst[i] = src[table[i] % len]` — an indirect gather (affine writes,
    /// data-dependent reads).
    Gather {
        /// Destination array.
        dst: usize,
        /// Integer array supplying the indirect subscripts.
        table: usize,
        /// Source array (same type as `dst`).
        src: usize,
        /// Trip count.
        iters: usize,
    },
    /// A helper function `kern(p, q, n)` walking two pointer parameters
    /// (`p[i] += q[i]`), called from `main` with array addresses — the
    /// dynamic-DOALL/bounds-check shape. With `alias` set the same array is
    /// passed for both pointers, so the "independent" operands in fact
    /// overlap.
    PointerKernel {
        /// Array passed as the destination pointer.
        a: usize,
        /// Array passed as the source pointer (ignored when `alias`).
        b: usize,
        /// Pass `a` for both parameters.
        alias: bool,
        /// Trip count.
        iters: usize,
    },
    /// `dst[i] = sin(src[i])` via the shared system library — the loop the
    /// pipeline must wrap in transactions (or speculate) because the callee
    /// is dynamically discovered code.
    SyslibLoop {
        /// Destination array (float).
        dst: usize,
        /// Source array (float).
        src: usize,
        /// Trip count.
        iters: usize,
    },
    /// A rectangular loop nest of depth `dims.len()` (2 or 3) writing
    /// `dst[linearised index] = f(indices)`.
    Nest {
        /// Destination array.
        dst: usize,
        /// Extent of each nesting level, outermost first.
        dims: Vec<usize>,
    },
    /// A non-unit-stride loop, upward or downward:
    /// `for i in 0..n step s` / `for i in n-1 ..= 0 step -s`.
    Strided {
        /// Destination array.
        dst: usize,
        /// Range walked.
        iters: usize,
        /// Stride (>= 2).
        step: i64,
        /// Walk downward with a negative step.
        down: bool,
    },
    /// A counted `while` chase: `j = (j*5 + 3) % len` accumulated through
    /// `probe[j]` — irregular induction, incompatible with parallelisation.
    ChaseLoop {
        /// Array probed through the chased index.
        probe: usize,
        /// Number of hops.
        iters: usize,
    },
    /// `if src[i] < threshold { dst[i] = src[i] + c } else { dst[i] =
    /// src[i] - c }` — data-dependent control flow inside a DOALL body.
    Branchy {
        /// Destination array.
        dst: usize,
        /// Source array (same type).
        src: usize,
        /// Branch threshold (integer; floats compare against it cast).
        threshold: i64,
        /// Trip count.
        iters: usize,
    },
    /// `print(src[i])` inside a short loop — IO makes it incompatible.
    IoLoop {
        /// Array printed.
        src: usize,
        /// Trip count (kept tiny to bound the output stream).
        iters: usize,
    },
}

/// Type-appropriate binary operators for [`LoopSpec::Elementwise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenOp {
    /// `+` (both types).
    Add,
    /// `-` (both types).
    Sub,
    /// `*` (both types).
    Mul,
    /// `^` on integers, `min` on floats.
    XorOrMin,
}

impl GenOp {
    fn binop(self, ty: ElemTy) -> BinOp {
        match (self, ty) {
            (GenOp::Add, _) => BinOp::Add,
            (GenOp::Sub, _) => BinOp::Sub,
            (GenOp::Mul, _) => BinOp::Mul,
            (GenOp::XorOrMin, ElemTy::I64) => BinOp::Xor,
            (GenOp::XorOrMin, ElemTy::F64) => BinOp::Min,
        }
    }
}

/// A complete generated program: arrays, loop nests, and the seed it came
/// from (carried for reporting).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpec {
    /// The seed [`ProgramSpec::generate`] was called with.
    pub seed: u64,
    /// Global arrays.
    pub arrays: Vec<ArraySpec>,
    /// Top-level loop nests, executed in order by `main`.
    pub loops: Vec<LoopSpec>,
}

impl fmt::Display for ProgramSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {}: arrays [", self.seed)?;
        for (i, a) in self.arrays.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let ty = match a.ty {
                ElemTy::I64 => "i64",
                ElemTy::F64 => "f64",
            };
            write!(f, "g{i}: [{ty}; {}]", a.len)?;
        }
        write!(f, "], loops [")?;
        for (i, l) in self.loops.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l:?}")?;
        }
        write!(f, "]")
    }
}

fn pick(rng: &mut TestRng, bound: usize) -> usize {
    rng.below(bound as u64) as usize
}

impl ProgramSpec {
    /// Deterministically generates a program spec from `seed`. Equal seeds
    /// produce equal specs.
    #[must_use]
    pub fn generate(seed: u64) -> ProgramSpec {
        let mut rng = TestRng::deterministic(&format!("janus-gen-{seed}"));
        let rng = &mut rng;

        // 2..=5 arrays, at least one of each element type so every loop
        // shape can find operands.
        let extra = pick(rng, 4);
        let mut arrays = vec![
            Self::gen_array(rng, ElemTy::I64),
            Self::gen_array(rng, ElemTy::F64),
        ];
        for _ in 0..extra {
            let ty = if rng.below(2) == 0 {
                ElemTy::I64
            } else {
                ElemTy::F64
            };
            arrays.push(Self::gen_array(rng, ty));
        }

        // 1..=4 loop nests.
        let n_loops = 1 + pick(rng, 4);
        let mut loops = Vec::with_capacity(n_loops);
        for _ in 0..n_loops {
            loops.push(Self::gen_loop(rng, &arrays));
        }

        ProgramSpec {
            seed,
            arrays,
            loops,
        }
    }

    fn gen_array(rng: &mut TestRng, ty: ElemTy) -> ArraySpec {
        ArraySpec {
            ty,
            len: 16 + pick(rng, 49), // 16..=64
            init_mul: 1 + rng.below(13) as i64,
            init_add: rng.below(7) as i64,
            init_modulus: 17 + rng.below(240) as i64,
        }
    }

    /// Index of a random array of the requested type (one always exists).
    fn of_type(rng: &mut TestRng, arrays: &[ArraySpec], ty: ElemTy) -> usize {
        let candidates: Vec<usize> = arrays
            .iter()
            .enumerate()
            .filter(|(_, a)| a.ty == ty)
            .map(|(i, _)| i)
            .collect();
        candidates[pick(rng, candidates.len())]
    }

    fn gen_loop(rng: &mut TestRng, arrays: &[ArraySpec]) -> LoopSpec {
        let any_ty = |rng: &mut TestRng| {
            if rng.below(2) == 0 {
                ElemTy::I64
            } else {
                ElemTy::F64
            }
        };
        let iters = 8 + pick(rng, 41); // 8..=48
        match rng.below(13) {
            0 => {
                let ty = any_ty(rng);
                let op = match rng.below(4) {
                    0 => GenOp::Add,
                    1 => GenOp::Sub,
                    2 => GenOp::Mul,
                    _ => GenOp::XorOrMin,
                };
                LoopSpec::Elementwise {
                    dst: Self::of_type(rng, arrays, ty),
                    a: Self::of_type(rng, arrays, ty),
                    b: Self::of_type(rng, arrays, ty),
                    op,
                    shift: rng.below(8) as i64,
                    iters,
                }
            }
            1 => {
                let ty = any_ty(rng);
                LoopSpec::Reduction {
                    a: Self::of_type(rng, arrays, ty),
                    b: Self::of_type(rng, arrays, ty),
                    sub: rng.below(2) == 1,
                    iters,
                }
            }
            2 => {
                let ty = any_ty(rng);
                LoopSpec::Stencil {
                    dst: Self::of_type(rng, arrays, ty),
                    src: Self::of_type(rng, arrays, ty),
                    iters,
                }
            }
            3 => {
                let ty = any_ty(rng);
                LoopSpec::Recurrence {
                    arr: Self::of_type(rng, arrays, ty),
                    mul: 1 + rng.below(3) as i64,
                    add: rng.below(5) as i64,
                    iters,
                }
            }
            4 => {
                let ty = any_ty(rng);
                LoopSpec::Scatter {
                    dst: Self::of_type(rng, arrays, ty),
                    table: Self::of_type(rng, arrays, ElemTy::I64),
                    w: Self::of_type(rng, arrays, ty),
                    iters,
                }
            }
            5 => {
                let ty = any_ty(rng);
                LoopSpec::Gather {
                    dst: Self::of_type(rng, arrays, ty),
                    table: Self::of_type(rng, arrays, ElemTy::I64),
                    src: Self::of_type(rng, arrays, ty),
                    iters,
                }
            }
            6 => {
                let ty = any_ty(rng);
                LoopSpec::PointerKernel {
                    a: Self::of_type(rng, arrays, ty),
                    b: Self::of_type(rng, arrays, ty),
                    alias: rng.below(3) == 0,
                    iters,
                }
            }
            7 => LoopSpec::SyslibLoop {
                dst: Self::of_type(rng, arrays, ElemTy::F64),
                src: Self::of_type(rng, arrays, ElemTy::F64),
                iters: 4 + pick(rng, 13), // syslib calls are modelled-pricey
            },
            8 => {
                let depth = 2 + pick(rng, 2);
                let dims = (0..depth).map(|_| 2 + pick(rng, 6)).collect();
                let ty = any_ty(rng);
                LoopSpec::Nest {
                    dst: Self::of_type(rng, arrays, ty),
                    dims,
                }
            }
            9 => {
                let ty = any_ty(rng);
                LoopSpec::Strided {
                    dst: Self::of_type(rng, arrays, ty),
                    iters,
                    step: 2 + rng.below(3) as i64,
                    down: rng.below(2) == 1,
                }
            }
            10 => {
                let ty = any_ty(rng);
                LoopSpec::ChaseLoop {
                    probe: Self::of_type(rng, arrays, ty),
                    iters,
                }
            }
            11 => {
                let ty = any_ty(rng);
                LoopSpec::Branchy {
                    dst: Self::of_type(rng, arrays, ty),
                    src: Self::of_type(rng, arrays, ty),
                    threshold: rng.below(64) as i64,
                    iters,
                }
            }
            _ => {
                let ty = any_ty(rng);
                LoopSpec::IoLoop {
                    src: Self::of_type(rng, arrays, ty),
                    iters: 2 + pick(rng, 5), // bounded output stream
                }
            }
        }
    }

    /// Lowers the spec to a well-formed guest program. Always succeeds: trip
    /// counts are clamped to operand lengths and indirect subscripts wrapped
    /// with `% len`, so the program compiles, stays in bounds and
    /// terminates.
    #[must_use]
    pub fn lower(&self) -> Program {
        let mut b = Program::builder(format!("gen.seed{}", self.seed));
        for (i, a) in self.arrays.iter().enumerate() {
            b = b.global(GlobalArray {
                name: format!("g{i}"),
                ty: match a.ty {
                    ElemTy::I64 => Ty::I64,
                    ElemTy::F64 => Ty::F64,
                },
                len: a.len,
                init: Init::Pattern {
                    mul: a.init_mul,
                    add: a.init_add,
                    modulus: a.init_modulus,
                },
            });
        }

        let mut main = Function::new("main");
        let mut body = Vec::new();
        let mut helpers = Vec::new();
        for (j, l) in self.loops.iter().enumerate() {
            let mut ctx = Lowerer {
                spec: self,
                j,
                main: &mut main,
                helpers: &mut helpers,
            };
            body.extend(ctx.lower_loop(l));
        }

        // Checksum epilogue: print an order-sensitive fold of every integer
        // array and an (exactly reassociable up to float rounding) sum of
        // every float array, so the output stream pins the final memory.
        for (i, a) in self.arrays.iter().enumerate() {
            let name = format!("g{i}");
            let iv = format!("ci{i}");
            main = main.local(&iv, Ty::I64);
            match a.ty {
                ElemTy::I64 => {
                    let acc = format!("cs{i}");
                    main = main.local(&acc, Ty::I64);
                    body.push(Stmt::assign(LValue::var(&acc), Expr::const_i(0)));
                    body.push(Stmt::simple_for(
                        &iv,
                        Expr::const_i(0),
                        Expr::const_i(a.len as i64),
                        vec![Stmt::assign(
                            LValue::var(&acc),
                            Expr::add(
                                Expr::mul(Expr::var(&acc), Expr::const_i(31)),
                                Expr::load(&name, Expr::var(&iv)),
                            ),
                        )],
                    ));
                    body.push(Stmt::print(Expr::var(&acc)));
                }
                ElemTy::F64 => {
                    let acc = format!("cf{i}");
                    main = main.local(&acc, Ty::F64);
                    body.push(Stmt::assign(LValue::var(&acc), Expr::const_f(0.0)));
                    body.push(Stmt::simple_for(
                        &iv,
                        Expr::const_i(0),
                        Expr::const_i(a.len as i64),
                        vec![Stmt::assign(
                            LValue::var(&acc),
                            Expr::add(Expr::var(&acc), Expr::load(&name, Expr::var(&iv))),
                        )],
                    ));
                    body.push(Stmt::print(Expr::var(&acc)));
                }
            }
        }

        main = main.body(body);
        for h in helpers {
            b = b.function(h);
        }
        b.function(main).build()
    }

    /// Strictly simpler variants of this spec, for greedy shrinking: each
    /// candidate drops one loop, halves one loop's trip count, or halves one
    /// array. The partial order is well-founded (every candidate has fewer
    /// loops, a smaller trip count, or a smaller array), so a greedy
    /// fixpoint over `shrink_candidates` terminates at a local minimum.
    #[must_use]
    pub fn shrink_candidates(&self) -> Vec<ProgramSpec> {
        let mut out = Vec::new();
        // Drop each loop (keep at least one — an empty program tests
        // nothing).
        if self.loops.len() > 1 {
            for j in 0..self.loops.len() {
                let mut s = self.clone();
                s.loops.remove(j);
                out.push(s);
            }
        }
        // Halve each loop's trip count.
        for j in 0..self.loops.len() {
            let mut s = self.clone();
            if s.loops[j].halve_iters() {
                out.push(s);
            }
        }
        // Halve each array.
        for i in 0..self.arrays.len() {
            if self.arrays[i].len > 8 {
                let mut s = self.clone();
                s.arrays[i].len /= 2;
                out.push(s);
            }
        }
        out
    }

    /// Greedily shrinks this spec while `fails` keeps returning `true`,
    /// returning a locally-minimal failing spec (possibly `self` unchanged).
    /// `fails` is re-run on every candidate, so it should be deterministic.
    #[must_use]
    pub fn shrink(&self, mut fails: impl FnMut(&ProgramSpec) -> bool) -> ProgramSpec {
        let mut current = self.clone();
        'outer: loop {
            for cand in current.shrink_candidates() {
                if fails(&cand) {
                    current = cand;
                    continue 'outer;
                }
            }
            return current;
        }
    }
}

impl ArraySpec {
    fn is_float(&self) -> bool {
        self.ty == ElemTy::F64
    }
}

impl LoopSpec {
    /// Halves this loop's trip count; returns `false` when already minimal.
    fn halve_iters(&mut self) -> bool {
        let iters = match self {
            LoopSpec::Elementwise { iters, .. }
            | LoopSpec::Reduction { iters, .. }
            | LoopSpec::Stencil { iters, .. }
            | LoopSpec::Recurrence { iters, .. }
            | LoopSpec::Scatter { iters, .. }
            | LoopSpec::Gather { iters, .. }
            | LoopSpec::PointerKernel { iters, .. }
            | LoopSpec::SyslibLoop { iters, .. }
            | LoopSpec::Strided { iters, .. }
            | LoopSpec::ChaseLoop { iters, .. }
            | LoopSpec::Branchy { iters, .. }
            | LoopSpec::IoLoop { iters, .. } => iters,
            LoopSpec::Nest { dims, .. } => {
                if let Some(d) = dims.iter_mut().find(|d| **d > 2) {
                    *d /= 2;
                    return true;
                }
                return false;
            }
        };
        if *iters > 4 {
            *iters /= 2;
            true
        } else {
            false
        }
    }
}

/// Per-loop lowering context: owns the unique-name discipline (`i{j}`,
/// accumulators, helper names) and pushes locals onto `main` as it goes.
struct Lowerer<'a> {
    spec: &'a ProgramSpec,
    j: usize,
    main: &'a mut Function,
    helpers: &'a mut Vec<Function>,
}

impl<'a> Lowerer<'a> {
    fn arr(&self, idx: usize) -> (&'a ArraySpec, String) {
        (&self.spec.arrays[idx], format!("g{idx}"))
    }

    fn local(&mut self, prefix: &str, ty: Ty) -> String {
        let name = format!("{prefix}{}", self.j);
        let taken = std::mem::replace(self.main, Function::new("main"));
        *self.main = taken.local(&name, ty);
        name
    }

    /// Constant for the loop's value scale: floats stay small, ints wrap
    /// deterministically anyway.
    fn small_const(&self, a: &ArraySpec) -> Expr {
        if a.is_float() {
            Expr::const_f(0.5)
        } else {
            Expr::const_i(3)
        }
    }

    fn lower_loop(&mut self, l: &LoopSpec) -> Vec<Stmt> {
        match l {
            LoopSpec::Elementwise {
                dst,
                a,
                b,
                op,
                shift,
                iters,
            } => {
                let (da, dn) = self.arr(*dst);
                let (aa, an) = self.arr(*a);
                let (_, bn) = self.arr(*b);
                let n = (*iters).min(da.len).min(self.spec.arrays[*b].len);
                let n = if *shift == 0 { n.min(aa.len) } else { n };
                let i = self.local("i", Ty::I64);
                let read_a = if *shift == 0 {
                    Expr::load(&an, Expr::var(&i))
                } else {
                    Expr::load(
                        &an,
                        Expr::rem(
                            Expr::add(Expr::var(&i), Expr::const_i(*shift)),
                            Expr::const_i(aa.len as i64),
                        ),
                    )
                };
                vec![Stmt::simple_for(
                    &i,
                    Expr::const_i(0),
                    Expr::const_i(n as i64),
                    vec![Stmt::assign(
                        LValue::store(&dn, Expr::var(&i)),
                        Expr::binary(op.binop(da.ty), read_a, Expr::load(&bn, Expr::var(&i))),
                    )],
                )]
            }
            LoopSpec::Reduction { a, b, sub, iters } => {
                let (aa, an) = self.arr(*a);
                let (_, bn) = self.arr(*b);
                let n = (*iters).min(aa.len).min(self.spec.arrays[*b].len);
                let i = self.local("i", Ty::I64);
                let float = aa.is_float();
                let acc = self.local("r", if float { Ty::F64 } else { Ty::I64 });
                let zero = if float {
                    Expr::const_f(0.0)
                } else {
                    Expr::const_i(0)
                };
                let term = Expr::mul(
                    Expr::load(&an, Expr::var(&i)),
                    Expr::load(&bn, Expr::var(&i)),
                );
                let op = if *sub { BinOp::Sub } else { BinOp::Add };
                vec![
                    Stmt::assign(LValue::var(&acc), zero),
                    Stmt::simple_for(
                        &i,
                        Expr::const_i(0),
                        Expr::const_i(n as i64),
                        vec![Stmt::assign(
                            LValue::var(&acc),
                            Expr::binary(op, Expr::var(&acc), term),
                        )],
                    ),
                    Stmt::print(Expr::var(&acc)),
                ]
            }
            LoopSpec::Stencil { dst, src, iters } => {
                let (da, dn) = self.arr(*dst);
                let (sa, sn) = self.arr(*src);
                // i in 1..n with i+1 <= len-1 on both operands.
                let n = (*iters)
                    .min(da.len.saturating_sub(1))
                    .min(sa.len.saturating_sub(1));
                let i = self.local("i", Ty::I64);
                vec![Stmt::simple_for(
                    &i,
                    Expr::const_i(1),
                    Expr::const_i(n as i64),
                    vec![Stmt::assign(
                        LValue::store(&dn, Expr::var(&i)),
                        Expr::add(
                            Expr::load(&sn, Expr::sub(Expr::var(&i), Expr::const_i(1))),
                            Expr::load(&sn, Expr::add(Expr::var(&i), Expr::const_i(1))),
                        ),
                    )],
                )]
            }
            LoopSpec::Recurrence {
                arr,
                mul,
                add,
                iters,
            } => {
                let (aa, an) = self.arr(*arr);
                let n = (*iters).min(aa.len);
                let i = self.local("i", Ty::I64);
                let (mul_e, add_e) = if aa.is_float() {
                    (
                        Expr::const_f(*mul as f64 * 0.25),
                        Expr::const_f(*add as f64 * 0.125),
                    )
                } else {
                    (Expr::const_i(*mul), Expr::const_i(*add))
                };
                vec![Stmt::simple_for(
                    &i,
                    Expr::const_i(1),
                    Expr::const_i(n as i64),
                    vec![Stmt::assign(
                        LValue::store(&an, Expr::var(&i)),
                        Expr::add(
                            Expr::mul(
                                Expr::load(&an, Expr::sub(Expr::var(&i), Expr::const_i(1))),
                                mul_e,
                            ),
                            add_e,
                        ),
                    )],
                )]
            }
            LoopSpec::Scatter {
                dst,
                table,
                w,
                iters,
            } => {
                let (da, dn) = self.arr(*dst);
                let (ta, tn) = self.arr(*table);
                let (_, wn) = self.arr(*w);
                let n = (*iters).min(ta.len).min(self.spec.arrays[*w].len);
                let i = self.local("i", Ty::I64);
                let t = self.local("t", Ty::I64);
                vec![Stmt::simple_for(
                    &i,
                    Expr::const_i(0),
                    Expr::const_i(n as i64),
                    vec![
                        // Euclidean wrap: the JVA's `Rem` follows the sign of
                        // the dividend, and table values go negative, so a
                        // plain `x % len` would index out of bounds and stomp
                        // whatever global sits below `dst` (fuzzer seed 1093).
                        Stmt::assign(
                            LValue::var(&t),
                            Expr::rem(
                                Expr::add(
                                    Expr::rem(
                                        Expr::load(&tn, Expr::var(&i)),
                                        Expr::const_i(da.len as i64),
                                    ),
                                    Expr::const_i(da.len as i64),
                                ),
                                Expr::const_i(da.len as i64),
                            ),
                        ),
                        Stmt::assign(
                            LValue::store(&dn, Expr::var(&t)),
                            Expr::add(
                                Expr::load(&dn, Expr::var(&t)),
                                Expr::load(&wn, Expr::var(&i)),
                            ),
                        ),
                    ],
                )]
            }
            LoopSpec::Gather {
                dst,
                table,
                src,
                iters,
            } => {
                let (da, dn) = self.arr(*dst);
                let (ta, tn) = self.arr(*table);
                let (sa, sn) = self.arr(*src);
                let n = (*iters).min(da.len).min(ta.len);
                let i = self.local("i", Ty::I64);
                vec![Stmt::simple_for(
                    &i,
                    Expr::const_i(0),
                    Expr::const_i(n as i64),
                    // Same euclidean wrap as `Scatter`: negative table values
                    // must not read below `src`.
                    vec![Stmt::assign(
                        LValue::store(&dn, Expr::var(&i)),
                        Expr::load(
                            &sn,
                            Expr::rem(
                                Expr::add(
                                    Expr::rem(
                                        Expr::load(&tn, Expr::var(&i)),
                                        Expr::const_i(sa.len as i64),
                                    ),
                                    Expr::const_i(sa.len as i64),
                                ),
                                Expr::const_i(sa.len as i64),
                            ),
                        ),
                    )],
                )]
            }
            LoopSpec::PointerKernel { a, b, alias, iters } => {
                let (aa, an) = self.arr(*a);
                let (_, bn) = self.arr(*b);
                let b_used = if *alias { *a } else { *b };
                let n = (*iters).min(aa.len).min(self.spec.arrays[b_used].len);
                let kern = format!("kern{}", self.j);
                self.helpers.push(
                    Function::new(&kern)
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
                );
                let q = if *alias { an.clone() } else { bn };
                vec![Stmt::Call {
                    name: kern,
                    args: vec![Expr::addr_of(an), Expr::addr_of(q), Expr::const_i(n as i64)],
                    ret: None,
                }]
            }
            LoopSpec::SyslibLoop { dst, src, iters } => {
                let (da, dn) = self.arr(*dst);
                let (sa, sn) = self.arr(*src);
                let n = (*iters).min(da.len).min(sa.len);
                let i = self.local("i", Ty::I64);
                let t = self.local("f", Ty::F64);
                vec![Stmt::simple_for(
                    &i,
                    Expr::const_i(0),
                    Expr::const_i(n as i64),
                    vec![
                        Stmt::call_ext(
                            "sin",
                            vec![Expr::load(&sn, Expr::var(&i))],
                            Some(LValue::var(&t)),
                        ),
                        Stmt::assign(LValue::store(&dn, Expr::var(&i)), Expr::var(&t)),
                    ],
                )]
            }
            LoopSpec::Nest { dst, dims } => {
                let (da, dn) = self.arr(*dst);
                // Clamp the extents so the linearised index stays in range.
                let mut dims: Vec<usize> = dims.iter().map(|d| (*d).max(1)).collect();
                while dims.iter().product::<usize>() > da.len {
                    let m = dims
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, d)| **d)
                        .map(|(i, _)| i)
                        .unwrap();
                    if dims[m] <= 1 {
                        break;
                    }
                    dims[m] -= 1;
                }
                if dims.iter().product::<usize>() > da.len {
                    return Vec::new(); // degenerate: array too small to nest
                }
                let ivs: Vec<String> = (0..dims.len())
                    .map(|d| self.local(&format!("n{d}x"), Ty::I64))
                    .collect();
                // linear = ((iv0 * d1) + iv1) * d2 + iv2 ...
                let mut linear = Expr::var(&ivs[0]);
                for d in 1..dims.len() {
                    linear = Expr::add(
                        Expr::mul(linear, Expr::const_i(dims[d] as i64)),
                        Expr::var(&ivs[d]),
                    );
                }
                // value = iv0 + 2*iv1 (+ 3*iv2), type-cast for floats.
                let mut value = Expr::var(&ivs[0]);
                for (d, iv) in ivs.iter().enumerate().skip(1) {
                    value = Expr::add(value, Expr::mul(Expr::var(iv), Expr::const_i(d as i64 + 1)));
                }
                if da.is_float() {
                    value = Expr::cast(Ty::F64, value);
                }
                let mut stmt = Stmt::assign(LValue::store(&dn, linear), value);
                for (d, iv) in ivs.iter().enumerate().rev() {
                    stmt = Stmt::simple_for(
                        iv,
                        Expr::const_i(0),
                        Expr::const_i(dims[d] as i64),
                        vec![stmt],
                    );
                }
                vec![stmt]
            }
            LoopSpec::Strided {
                dst,
                iters,
                step,
                down,
            } => {
                let (da, dn) = self.arr(*dst);
                let n = (*iters).min(da.len);
                if n == 0 {
                    return Vec::new();
                }
                let i = self.local("i", Ty::I64);
                let value = if da.is_float() {
                    Expr::cast(Ty::F64, Expr::var(&i))
                } else {
                    Expr::mul(Expr::var(&i), Expr::const_i(7))
                };
                let body = vec![Stmt::assign(LValue::store(&dn, Expr::var(&i)), value)];
                if *down {
                    vec![Stmt::step_for(
                        &i,
                        Expr::const_i(n as i64 - 1),
                        Expr::const_i(-1),
                        -*step,
                        body,
                    )]
                } else {
                    vec![Stmt::step_for(
                        &i,
                        Expr::const_i(0),
                        Expr::const_i(n as i64),
                        *step,
                        body,
                    )]
                }
            }
            LoopSpec::ChaseLoop { probe, iters } => {
                let (pa, pn) = self.arr(*probe);
                let i = self.local("k", Ty::I64);
                let jv = self.local("c", Ty::I64);
                let float = pa.is_float();
                let acc = self.local("h", if float { Ty::F64 } else { Ty::I64 });
                let zero = if float {
                    Expr::const_f(0.0)
                } else {
                    Expr::const_i(0)
                };
                vec![
                    Stmt::assign(LValue::var(&i), Expr::const_i(0)),
                    Stmt::assign(LValue::var(&jv), Expr::const_i(0)),
                    Stmt::assign(LValue::var(&acc), zero),
                    Stmt::While {
                        cond: Cond::new(Expr::var(&i), CmpOp::Lt, Expr::const_i(*iters as i64)),
                        body: vec![
                            Stmt::assign(
                                LValue::var(&jv),
                                Expr::rem(
                                    Expr::add(
                                        Expr::mul(Expr::var(&jv), Expr::const_i(5)),
                                        Expr::const_i(3),
                                    ),
                                    Expr::const_i(pa.len as i64),
                                ),
                            ),
                            Stmt::assign(
                                LValue::var(&acc),
                                Expr::add(Expr::var(&acc), Expr::load(&pn, Expr::var(&jv))),
                            ),
                            Stmt::assign(
                                LValue::var(&i),
                                Expr::add(Expr::var(&i), Expr::const_i(1)),
                            ),
                        ],
                    },
                    Stmt::print(Expr::var(&acc)),
                ]
            }
            LoopSpec::Branchy {
                dst,
                src,
                threshold,
                iters,
            } => {
                let (da, dn) = self.arr(*dst);
                let (sa, sn) = self.arr(*src);
                let n = (*iters).min(da.len).min(sa.len);
                let i = self.local("i", Ty::I64);
                let c = self.small_const(da);
                let thr = if sa.is_float() {
                    Expr::const_f(*threshold as f64 / 64.0)
                } else {
                    Expr::const_i(*threshold)
                };
                vec![Stmt::simple_for(
                    &i,
                    Expr::const_i(0),
                    Expr::const_i(n as i64),
                    vec![Stmt::If {
                        cond: Cond::new(Expr::load(&sn, Expr::var(&i)), CmpOp::Lt, thr),
                        then: vec![Stmt::assign(
                            LValue::store(&dn, Expr::var(&i)),
                            Expr::add(Expr::load(&sn, Expr::var(&i)), c.clone()),
                        )],
                        els: vec![Stmt::assign(
                            LValue::store(&dn, Expr::var(&i)),
                            Expr::sub(Expr::load(&sn, Expr::var(&i)), c),
                        )],
                    }],
                )]
            }
            LoopSpec::IoLoop { src, iters } => {
                let (sa, sn) = self.arr(*src);
                let n = (*iters).min(sa.len).min(8);
                let i = self.local("i", Ty::I64);
                vec![Stmt::simple_for(
                    &i,
                    Expr::const_i(0),
                    Expr::const_i(n as i64),
                    vec![Stmt::print(Expr::load(&sn, Expr::var(&i)))],
                )]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            assert_eq!(ProgramSpec::generate(seed), ProgramSpec::generate(seed));
        }
        assert_ne!(ProgramSpec::generate(1), ProgramSpec::generate(2));
    }

    #[test]
    fn every_spec_lowers_to_a_buildable_program() {
        for seed in 0..64u64 {
            let spec = ProgramSpec::generate(seed);
            let program = spec.lower();
            assert!(program.function("main").is_some(), "{spec}");
            assert_eq!(program.globals.len(), spec.arrays.len(), "{spec}");
        }
    }

    #[test]
    fn shrink_candidates_are_strictly_simpler() {
        let spec = ProgramSpec::generate(7);
        for cand in spec.shrink_candidates() {
            let simpler = cand.loops.len() < spec.loops.len()
                || cand
                    .arrays
                    .iter()
                    .zip(&spec.arrays)
                    .any(|(c, o)| c.len < o.len)
                || cand != spec;
            assert!(simpler);
        }
    }

    #[test]
    fn greedy_shrink_reaches_a_fixpoint() {
        let spec = ProgramSpec::generate(3);
        // "Fails" whenever more than one loop remains: the shrinker must
        // reach exactly one loop and stop.
        let min = spec.shrink(|s| s.loops.len() > 1);
        assert_eq!(min.loops.len(), 1);
        // A predicate nothing satisfies leaves the spec unchanged.
        assert_eq!(spec.shrink(|_| false), spec);
    }
}
