//! AST-level loop transformations performed at `-O3`: inner-loop unrolling
//! with a scalar remainder ("peeled") loop.
//!
//! These transformations are what make compiler-optimised binaries hard for a
//! binary-level paralleliser: the unrolled body contains several offset copies
//! of each memory access and the remainder loop duplicates the loop body under
//! a different bound, exactly the patterns section II-D of the paper calls
//! out.

use crate::ast::{Expr, LValue, Program, Stmt};
use crate::options::{CompileOptions, Vectorize};

/// Applies inner-loop unrolling to every function of a program.
#[must_use]
pub(crate) fn unroll_program(program: &Program, options: &CompileOptions) -> Program {
    let factor = options.unroll_factor();
    if factor <= 1 {
        return program.clone();
    }
    let mut out = program.clone();
    for f in &mut out.functions {
        let body = std::mem::take(&mut f.body);
        f.body = unroll_block(&body, factor, options);
    }
    out
}

fn unroll_block(block: &[Stmt], factor: usize, options: &CompileOptions) -> Vec<Stmt> {
    block
        .iter()
        .map(|s| unroll_stmt(s, factor, options))
        .collect()
}

fn unroll_stmt(stmt: &Stmt, factor: usize, options: &CompileOptions) -> Stmt {
    match stmt {
        Stmt::For {
            var,
            start,
            end,
            step,
            body,
        } => {
            let inner = unroll_block(body, factor, options);
            // Leave vectorisable loops to the vectoriser, and only unroll
            // innermost loops with simple bodies.
            let vectorise_later =
                options.vectorize != Vectorize::None && body.len() == 1 && *step == 1;
            if !vectorise_later && is_unrollable(var, &inner) {
                unroll_for(var, start, end, *step, &inner, factor)
            } else {
                Stmt::For {
                    var: var.clone(),
                    start: start.clone(),
                    end: end.clone(),
                    step: *step,
                    body: inner,
                }
            }
        }
        Stmt::While { cond, body } => Stmt::While {
            cond: cond.clone(),
            body: unroll_block(body, factor, options),
        },
        Stmt::If { cond, then, els } => Stmt::If {
            cond: cond.clone(),
            then: unroll_block(then, factor, options),
            els: unroll_block(els, factor, options),
        },
        other => other.clone(),
    }
}

/// A loop can be unrolled when its body is straight-line assignments that do
/// not redefine the induction variable and contain no control flow, calls or
/// IO.
fn is_unrollable(var: &str, body: &[Stmt]) -> bool {
    body.iter().all(|s| match s {
        Stmt::Assign { dst, .. } => !matches!(dst, LValue::Var(n) if n == var),
        _ => false,
    })
}

/// Builds the unrolled main loop plus the remainder loop.
fn unroll_for(
    var: &str,
    start: &Expr,
    end: &Expr,
    step: i64,
    body: &[Stmt],
    factor: usize,
) -> Stmt {
    let mut unrolled_body = Vec::with_capacity(body.len() * factor);
    for k in 0..factor {
        let offset = (k as i64) * step;
        for s in body {
            unrolled_body.push(offset_stmt(s, var, offset));
        }
    }
    // Main loop bound: end - (factor - 1) * step so that every unrolled copy
    // stays in range; the remainder loop finishes the leftover iterations.
    let adjustment = (factor as i64 - 1) * step;
    let main_end = Expr::sub(end.clone(), Expr::const_i(adjustment));
    let main_loop = Stmt::For {
        var: var.to_string(),
        start: start.clone(),
        end: main_end,
        step: step * factor as i64,
        body: unrolled_body,
    };
    let remainder = Stmt::For {
        var: var.to_string(),
        start: Expr::Var(var.to_string()),
        end: end.clone(),
        step,
        body: body.to_vec(),
    };
    // Wrap both in a block expressed as an `if 0 == 0` so a single statement
    // is returned (keeps the statement arity of the surrounding block).
    Stmt::If {
        cond: crate::ast::Cond::new(Expr::const_i(0), crate::ast::CmpOp::Eq, Expr::const_i(0)),
        then: vec![main_loop, remainder],
        els: vec![],
    }
}

/// Replaces every use of the induction variable `var` by `var + offset` in a
/// statement.
fn offset_stmt(stmt: &Stmt, var: &str, offset: i64) -> Stmt {
    if offset == 0 {
        return stmt.clone();
    }
    match stmt {
        Stmt::Assign { dst, value } => Stmt::Assign {
            dst: offset_lvalue(dst, var, offset),
            value: offset_expr(value, var, offset),
        },
        other => other.clone(),
    }
}

fn offset_lvalue(lv: &LValue, var: &str, offset: i64) -> LValue {
    match lv {
        LValue::Var(n) => LValue::Var(n.clone()),
        LValue::Store { array, index } => LValue::Store {
            array: array.clone(),
            index: offset_expr(index, var, offset),
        },
        LValue::StorePtr { ptr, index } => LValue::StorePtr {
            ptr: ptr.clone(),
            index: offset_expr(index, var, offset),
        },
    }
}

fn offset_expr(expr: &Expr, var: &str, offset: i64) -> Expr {
    match expr {
        Expr::Var(n) if n == var => Expr::add(Expr::Var(n.clone()), Expr::const_i(offset)),
        Expr::Load { array, index } => Expr::Load {
            array: array.clone(),
            index: Box::new(offset_expr(index, var, offset)),
        },
        Expr::LoadPtr { ptr, index } => Expr::LoadPtr {
            ptr: ptr.clone(),
            index: Box::new(offset_expr(index, var, offset)),
        },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(offset_expr(lhs, var, offset)),
            rhs: Box::new(offset_expr(rhs, var, offset)),
        },
        Expr::Cast { to, expr } => Expr::Cast {
            to: *to,
            expr: Box::new(offset_expr(expr, var, offset)),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Function, Ty};
    use crate::options::{OptLevel, Personality};

    fn copy_loop_program() -> Program {
        Program::builder("p")
            .global_i64("a", 64)
            .global_i64("b", 64)
            .function(
                Function::new("main")
                    .local("i", Ty::I64)
                    .body(vec![Stmt::simple_for(
                        "i",
                        Expr::const_i(0),
                        Expr::const_i(64),
                        vec![Stmt::assign(
                            LValue::store("b", Expr::var("i")),
                            Expr::load("a", Expr::var("i")),
                        )],
                    )]),
            )
            .build()
    }

    #[test]
    fn gcc_o3_unrolls_by_two_and_icc_by_four() {
        let gcc = unroll_program(&copy_loop_program(), &CompileOptions::gcc_o3());
        let count_assigns = |p: &Program| {
            fn walk(block: &[Stmt], out: &mut usize) {
                for s in block {
                    match s {
                        Stmt::Assign { .. } => *out += 1,
                        Stmt::For { body, .. } | Stmt::While { body, .. } => walk(body, out),
                        Stmt::If { then, els, .. } => {
                            walk(then, out);
                            walk(els, out);
                        }
                        _ => {}
                    }
                }
            }
            let mut n = 0;
            walk(&p.function("main").unwrap().body, &mut n);
            n
        };
        // Original: 1 assignment. gcc: 2 (main) + 1 (remainder). icc with SSE
        // vectorisation defers to the vectoriser, so force scalar icc here.
        assert_eq!(count_assigns(&gcc), 3);
        let mut icc_opts = CompileOptions::icc_o3();
        icc_opts.vectorize = Vectorize::None;
        let icc = unroll_program(&copy_loop_program(), &icc_opts);
        assert_eq!(count_assigns(&icc), 5);
        let _ = icc;
    }

    #[test]
    fn o2_does_not_unroll() {
        let p = copy_loop_program();
        let out = unroll_program(&p, &CompileOptions::opt(OptLevel::O2));
        assert_eq!(out, p);
    }

    #[test]
    fn loops_with_calls_are_not_unrolled() {
        let p = Program::builder("p")
            .global_f64("a", 8)
            .function(
                Function::new("main")
                    .local("i", Ty::I64)
                    .local("x", Ty::F64)
                    .body(vec![Stmt::simple_for(
                        "i",
                        Expr::const_i(0),
                        Expr::const_i(8),
                        vec![
                            Stmt::call_ext(
                                "sqrt",
                                vec![Expr::load("a", Expr::var("i"))],
                                Some(LValue::var("x")),
                            ),
                            Stmt::assign(LValue::store("a", Expr::var("i")), Expr::var("x")),
                        ],
                    )]),
            )
            .build();
        let mut opts = CompileOptions {
            personality: Personality::Icc,
            ..CompileOptions::default()
        };
        opts.vectorize = Vectorize::None;
        let out = unroll_program(&p, &opts);
        assert_eq!(out, p, "bodies containing calls must not be duplicated");
    }

    #[test]
    fn offset_expr_rewrites_only_the_induction_variable() {
        let e = Expr::add(Expr::var("i"), Expr::var("j"));
        let out = offset_expr(&e, "i", 2);
        match out {
            Expr::Binary { lhs, rhs, .. } => {
                assert_eq!(
                    *lhs,
                    Expr::add(Expr::var("i"), Expr::const_i(2)),
                    "induction use is offset"
                );
                assert_eq!(*rhs, Expr::var("j"), "other variables untouched");
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }
}
