//! Quickstart: compile a small DOALL kernel, parallelise it with Janus and
//! compare against native execution.
//!
//! Run with:
//! `cargo run --release --example quickstart -- [--backend virtual|native] [--threads N]`

use janus::compile::{ast, Compiler};
use janus::core::{Janus, JanusConfig};

#[path = "util/flags.rs"]
mod flags;

fn main() {
    let (backend, threads) = flags::parse(8);
    // A simple `y[i] = 3*x[i] + y[i]` kernel over 64k elements.
    let n = 65_536i64;
    let program = ast::Program::builder("quickstart")
        .global_f64("x", n as usize)
        .global_f64("y", n as usize)
        .function(
            ast::Function::new("main")
                .local("i", ast::Ty::I64)
                .body(vec![
                    ast::Stmt::simple_for(
                        "i",
                        ast::Expr::const_i(0),
                        ast::Expr::const_i(n),
                        vec![ast::Stmt::assign(
                            ast::LValue::store("y", ast::Expr::var("i")),
                            ast::Expr::add(
                                ast::Expr::mul(
                                    ast::Expr::load("x", ast::Expr::var("i")),
                                    ast::Expr::const_f(3.0),
                                ),
                                ast::Expr::load("y", ast::Expr::var("i")),
                            ),
                        )],
                    ),
                    ast::Stmt::print(ast::Expr::load("y", ast::Expr::const_i(1234))),
                ]),
        )
        .build();

    // Compile to a JVA binary, exactly as gcc -O3 would produce an ELF.
    let binary = Compiler::new().compile(&program).expect("compiles");
    println!(
        "binary: {} instructions, {} bytes",
        binary.num_instructions(),
        binary.file_size()
    );

    // Parallelise with the selected backend and thread count.
    let janus = Janus::with_config(JanusConfig {
        threads,
        backend,
        ..JanusConfig::default()
    });
    let report = janus.run(&binary, &[]).expect("pipeline succeeds");

    println!(
        "backend:             {} ({threads} threads)",
        report.backend
    );
    println!("selected loops:      {:?}", report.selected_loops);
    println!("native cycles:       {}", report.native.cycles);
    println!("janus cycles:        {}", report.parallel.cycles);
    println!("speedup:             {:.2}x (modelled)", report.speedup());
    if report.parallel.stats.os_threads_used > 0 {
        println!(
            "os threads used:     {} (parallel wall time {:.4}s)",
            report.parallel.stats.os_threads_used,
            report.parallel.stats.parallel_wall_nanos as f64 / 1e9
        );
    }
    println!("outputs match:       {}", report.outputs_match);
    println!(
        "schedule size:       {} bytes ({:.2}% of binary)",
        report.schedule_size,
        report.schedule_size_fraction() * 100.0
    );
    println!("breakdown:           {}", report.parallel.stats.breakdown);
}
