//! Compiler auto-parallelisation (`-ftree-parallelize-loops` / `-parallel`).
//!
//! This is the baseline Janus is compared against in Figure 11 of the paper:
//! a conservative source-level auto-paralleliser that outlines provably
//! independent loops into `fn(start, end)` worker functions and calls the
//! `par_for` runtime. Like real compilers it gives up as soon as aliasing is
//! not statically obvious: loops that access arrays through pointer
//! parameters, carry scalar dependences, call functions or perform IO are left
//! sequential.

use crate::ast::{Expr, Function, LValue, Program, Stmt, Ty};
use crate::options::{CompileOptions, Personality};
use std::collections::HashSet;

/// Applies compiler auto-parallelisation to a program.
#[must_use]
pub(crate) fn parallelize(program: &Program, options: &CompileOptions) -> Program {
    let mut out = program.clone();
    let mut new_functions = Vec::new();
    let mut counter = 0usize;
    for f in &mut out.functions {
        let body = std::mem::take(&mut f.body);
        f.body = body
            .into_iter()
            .map(|stmt| {
                transform_stmt(
                    stmt,
                    f.name.clone(),
                    options,
                    &mut new_functions,
                    &mut counter,
                )
            })
            .collect();
    }
    out.functions.extend(new_functions);
    out
}

fn transform_stmt(
    stmt: Stmt,
    fn_name: String,
    options: &CompileOptions,
    new_functions: &mut Vec<Function>,
    counter: &mut usize,
) -> Stmt {
    match stmt {
        Stmt::For {
            var,
            start,
            end,
            step,
            body,
        } => {
            if step == 1 && loop_is_parallelisable(&var, &body, options) {
                *counter += 1;
                let worker_name = format!("{fn_name}__par{counter}");
                let worker = Function::new(worker_name.clone())
                    .param("__start", Ty::I64)
                    .param("__end", Ty::I64)
                    .local(var.clone(), Ty::I64)
                    .body(vec![Stmt::For {
                        var: var.clone(),
                        start: Expr::var("__start"),
                        end: Expr::var("__end"),
                        step: 1,
                        body: body.clone(),
                    }]);
                new_functions.push(worker);
                Stmt::CallExt {
                    name: "par_for".to_string(),
                    args: vec![
                        Expr::AddrOfFn(worker_name),
                        start,
                        end,
                        Expr::const_i(i64::from(options.parallel_threads)),
                    ],
                    ret: None,
                }
            } else {
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                }
            }
        }
        // Only top-level loops of each function are considered, matching the
        // conservative behaviour of the baseline compilers.
        other => other,
    }
}

/// Decides whether a loop body is provably independent across iterations
/// without any runtime checking.
fn loop_is_parallelisable(var: &str, body: &[Stmt], options: &CompileOptions) -> bool {
    let mut written_arrays = HashSet::new();
    // First pass: collect written arrays and reject disallowed statements.
    for stmt in body {
        match stmt {
            Stmt::Assign { dst, value } => {
                match dst {
                    LValue::Store { array, index } => {
                        if !index_is_loop_var(index, var) {
                            return false;
                        }
                        written_arrays.insert(array.clone());
                    }
                    // Scalar or pointer writes defeat the static analysis.
                    LValue::Var(_) | LValue::StorePtr { .. } => return false,
                }
                if !expr_is_safe(value, var, options) {
                    return false;
                }
            }
            _ => return false,
        }
    }
    // Second pass: any read of a written array must use exactly the loop
    // index (no cross-iteration reuse).
    for stmt in body {
        if let Stmt::Assign { value, .. } = stmt {
            if !reads_of_written_ok(value, var, &written_arrays) {
                return false;
            }
        }
    }
    // The body must reference no scalars other than the induction variable
    // (otherwise the outlined worker could not see them).
    for stmt in body {
        if let Stmt::Assign { dst, value } = stmt {
            let mut vars = Vec::new();
            value.variables(&mut vars);
            if let LValue::Store { index, .. } = dst {
                index.variables(&mut vars);
            }
            if vars.iter().any(|v| v != var) {
                return false;
            }
        }
    }
    true
}

fn index_is_loop_var(index: &Expr, var: &str) -> bool {
    *index == Expr::Var(var.to_string())
}

/// icc additionally accepts reads at small constant offsets from the loop
/// index (it multi-versions internally); gcc only accepts exact-index reads.
fn index_is_acceptable_read(index: &Expr, var: &str, options: &CompileOptions) -> bool {
    if index_is_loop_var(index, var) {
        return true;
    }
    if options.personality == Personality::Icc {
        if let Expr::Binary { op: _, lhs, rhs } = index {
            return index_is_loop_var(lhs, var) && matches!(**rhs, Expr::ConstI(_));
        }
    }
    false
}

fn expr_is_safe(expr: &Expr, var: &str, options: &CompileOptions) -> bool {
    match expr {
        Expr::ConstI(_) | Expr::ConstF(_) => true,
        Expr::Var(n) => n == var,
        Expr::Load { index, .. } => index_is_acceptable_read(index, var, options),
        // Pointer loads have unknown aliasing: the static compiler gives up.
        Expr::LoadPtr { .. } => false,
        Expr::Binary { lhs, rhs, .. } => {
            expr_is_safe(lhs, var, options) && expr_is_safe(rhs, var, options)
        }
        Expr::Cast { expr, .. } => expr_is_safe(expr, var, options),
        Expr::AddrOfArray(_) | Expr::AddrOfFn(_) => false,
    }
}

fn reads_of_written_ok(expr: &Expr, var: &str, written: &HashSet<String>) -> bool {
    match expr {
        Expr::Load { array, index } => !written.contains(array) || index_is_loop_var(index, var),
        Expr::Binary { lhs, rhs, .. } => {
            reads_of_written_ok(lhs, var, written) && reads_of_written_ok(rhs, var, written)
        }
        Expr::Cast { expr, .. } => reads_of_written_ok(expr, var, written),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::GlobalArray;
    use crate::ast::Init;
    use crate::options::CompileOptions;
    use crate::Compiler;
    use janus_vm::{Process, Vm};

    fn elementwise_program(n: usize) -> Program {
        Program::builder("elem")
            .global(GlobalArray {
                name: "a".into(),
                ty: Ty::F64,
                len: n,
                init: Init::Iota,
            })
            .global_f64("b", n)
            .function(Function::new("main").local("i", Ty::I64).body(vec![
                Stmt::simple_for(
                    "i",
                    Expr::const_i(0),
                    Expr::const_i(n as i64),
                    vec![Stmt::assign(
                        LValue::store("b", Expr::var("i")),
                        Expr::mul(Expr::load("a", Expr::var("i")), Expr::const_f(3.0)),
                    )],
                ),
                Stmt::print(Expr::load("b", Expr::const_i(10))),
            ]))
            .build()
    }

    #[test]
    fn independent_loop_is_outlined_and_still_correct() {
        let p = elementwise_program(128);
        let par = parallelize(&p, &CompileOptions::gcc_parallel(4));
        assert_eq!(
            par.functions.len(),
            2,
            "a worker function should have been created"
        );
        assert!(par
            .function("main")
            .unwrap()
            .body
            .iter()
            .any(|s| matches!(s, Stmt::CallExt { name, .. } if name == "par_for")));

        // End-to-end: the parallelised binary computes the same output.
        let bin = Compiler::with_options(CompileOptions::gcc_parallel(4))
            .compile(&p)
            .unwrap();
        let mut vm = Vm::new(Process::load(&bin).unwrap());
        vm.run().unwrap();
        assert_eq!(vm.output_floats(), &[30.0]);
    }

    #[test]
    fn scalar_dependences_prevent_parallelisation() {
        let p = Program::builder("red")
            .global_f64("a", 64)
            .function(
                Function::new("main")
                    .local("i", Ty::I64)
                    .local("s", Ty::F64)
                    .body(vec![Stmt::simple_for(
                        "i",
                        Expr::const_i(0),
                        Expr::const_i(64),
                        vec![Stmt::assign(
                            LValue::var("s"),
                            Expr::add(Expr::var("s"), Expr::load("a", Expr::var("i"))),
                        )],
                    )]),
            )
            .build();
        let out = parallelize(&p, &CompileOptions::gcc_parallel(8));
        assert_eq!(out.functions.len(), 1, "reduction loop must stay serial");
    }

    #[test]
    fn pointer_accesses_prevent_parallelisation() {
        let p = Program::builder("ptr")
            .function(
                Function::new("kernel")
                    .param("d", Ty::Ptr)
                    .param("n", Ty::I64)
                    .local("i", Ty::I64)
                    .body(vec![Stmt::simple_for(
                        "i",
                        Expr::const_i(0),
                        Expr::var("n"),
                        vec![Stmt::assign(
                            LValue::store_ptr("d", Expr::var("i")),
                            Expr::const_f(1.0),
                        )],
                    )]),
            )
            .function(Function::new("main").body(vec![]))
            .build();
        let out = parallelize(&p, &CompileOptions::gcc_parallel(8));
        assert_eq!(out.functions.len(), 2, "no worker should be added");
    }

    #[test]
    fn icc_accepts_constant_offset_reads_gcc_does_not() {
        // b[i] = a[i + 1] (stencil read of an array that is never written).
        let body = vec![Stmt::assign(
            LValue::store("b", Expr::var("i")),
            Expr::load("a", Expr::add(Expr::var("i"), Expr::const_i(1))),
        )];
        assert!(!loop_is_parallelisable(
            "i",
            &body,
            &CompileOptions::gcc_parallel(8)
        ));
        assert!(loop_is_parallelisable(
            "i",
            &body,
            &CompileOptions::icc_parallel(8)
        ));
    }

    #[test]
    fn write_with_shifted_index_is_rejected() {
        let body = vec![Stmt::assign(
            LValue::store("a", Expr::add(Expr::var("i"), Expr::const_i(1))),
            Expr::const_f(0.0),
        )];
        assert!(!loop_is_parallelisable(
            "i",
            &body,
            &CompileOptions::icc_parallel(8)
        ));
    }
}
