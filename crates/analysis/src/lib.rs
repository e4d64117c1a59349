//! # janus-analysis — the static binary analyser
//!
//! This crate is the Janus reproduction's equivalent of the paper's custom
//! Capstone-based static analyser (section II-D): it consumes a *stripped*
//! [`janus_ir::JBinary`], recovers functions, control-flow graphs, dominators
//! and natural loops, recognises induction variables and symbolic memory
//! access patterns, performs alias/dependence analysis and classifies every
//! loop into the paper's five categories:
//!
//! * **Type A — static DOALL**: no cross-iteration dependences except
//!   induction and add/sub reductions.
//! * **Type B — static dependence**: a cross-iteration dependence was proved.
//! * **Type C — dynamic DOALL**: the induction variable is known but some
//!   accesses cannot be disambiguated statically (pointer-based array bases,
//!   shared-library calls); runtime checks or speculation are required.
//! * **Type D — dynamic dependence**: profiling observed an actual
//!   cross-iteration dependence.
//! * **Incompatible**: system calls, indirect control flow, or an
//!   unrecognisable induction variable.
//!
//! The entry point is [`analyze`], which returns a [`BinaryAnalysis`]
//! containing a [`LoopInfo`] for every natural loop discovered.
//!
//! # Example
//!
//! ```
//! use janus_compile::{ast, Compiler};
//! use janus_analysis::{analyze, LoopCategory};
//!
//! let program = ast::Program::builder("p")
//!     .global_f64("a", 64)
//!     .global_f64("b", 64)
//!     .function(ast::Function::new("main").local("i", ast::Ty::I64).body(vec![
//!         ast::Stmt::simple_for(
//!             "i",
//!             ast::Expr::const_i(0),
//!             ast::Expr::const_i(64),
//!             vec![ast::Stmt::assign(
//!                 ast::LValue::store("b", ast::Expr::var("i")),
//!                 ast::Expr::load("a", ast::Expr::var("i")),
//!             )],
//!         ),
//!     ]))
//!     .build();
//! let binary = Compiler::new().compile(&program).unwrap();
//! let analysis = analyze(&binary).unwrap();
//! assert!(analysis
//!     .loops
//!     .iter()
//!     .any(|l| l.category == LoopCategory::StaticDoall));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cfg;
pub mod classify;
pub mod depend;
pub mod dom;
pub mod induction;
pub mod liveness;
pub mod loops;
pub mod memory;

mod error;

pub use cfg::{BasicBlock, BlockId, FunctionCfg};
pub use classify::{LoopCategory, LoopInfo};
pub use depend::{BoundsCheckPair, Dependence, DependenceKind, Reduction};
pub use error::{AnalysisError, Result};
pub use induction::{InductionVar, LoopBound, VarRef};
pub use liveness::Liveness;
pub use loops::{LoopId, NaturalLoop};
pub use memory::{AccessPattern, AddressBase, MemAccess};

use janus_ir::JBinary;

/// The complete result of statically analysing one binary.
#[derive(Debug, Clone)]
pub struct BinaryAnalysis {
    /// Recovered functions, in discovery order (entry function first).
    pub functions: Vec<FunctionCfg>,
    /// Every natural loop discovered, across all functions.
    pub loops: Vec<LoopInfo>,
}

impl BinaryAnalysis {
    /// Counts loops per category (used by the Figure 6 reproduction).
    #[must_use]
    pub fn category_histogram(&self) -> [(LoopCategory, usize); 6] {
        let mut counts = [
            (LoopCategory::StaticDoall, 0),
            (LoopCategory::StaticDependence, 0),
            (LoopCategory::DynamicDoall, 0),
            (LoopCategory::DynamicDependence, 0),
            (LoopCategory::Speculative, 0),
            (LoopCategory::Incompatible, 0),
        ];
        for l in &self.loops {
            for (cat, n) in &mut counts {
                if *cat == l.category {
                    *n += 1;
                }
            }
        }
        counts
    }
}

// Analyses are cached content-addressed (keyed by `JBinary::content_digest`)
// and shared across serving worker threads; keep the whole artifact
// cheap-to-clone plain data so `Arc<BinaryAnalysis>` needs no locking.
const _: () = {
    const fn artifact<T: Clone + Send + Sync>() {}
    artifact::<BinaryAnalysis>();
    artifact::<LoopInfo>();
    artifact::<FunctionCfg>();
};

/// Statically analyses a binary: recovers CFGs, finds loops, recognises
/// induction variables and memory access patterns, and classifies every loop.
///
/// # Errors
///
/// Returns an error if the binary's text section cannot be decoded.
pub fn analyze(binary: &JBinary) -> Result<BinaryAnalysis> {
    let functions = cfg::recover_functions(binary)?;
    let mut loops = Vec::new();
    for (func_idx, func) in functions.iter().enumerate() {
        let doms = dom::Dominators::compute(func);
        let natural = loops::find_loops(func, &doms);
        let live = liveness::Liveness::compute(func);
        for nl in &natural {
            let info = classify::classify_loop(func, func_idx, nl, &natural, &live);
            loops.push(info);
        }
    }
    // Assign stable ids.
    for (i, l) in loops.iter_mut().enumerate() {
        l.id = i;
    }
    Ok(BinaryAnalysis { functions, loops })
}
