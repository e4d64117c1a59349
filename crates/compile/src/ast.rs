//! The source language consumed by the mini compiler.
//!
//! The language is a tiny structured loop/array language — just enough to
//! express the hot kernels of numeric benchmarks (stencils, reductions,
//! element-wise updates, pointer-parameterised kernels) as well as the
//! control-flow shapes that defeat parallelisation (pointer chasing, indirect
//! calls, IO in loops, irregular induction).

/// Scalar types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit signed integer (also used for pointers).
    I64,
    /// 64-bit IEEE float.
    F64,
    /// A pointer to an array of 64-bit elements.
    Ptr,
}

impl Ty {
    /// Returns `true` for floating-point values.
    #[must_use]
    pub fn is_float(self) -> bool {
        matches!(self, Ty::F64)
    }
}

/// Integer and floating-point binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder (integers only).
    Rem,
    /// Bitwise and (integers only).
    And,
    /// Bitwise or (integers only).
    Or,
    /// Bitwise xor (integers only).
    Xor,
    /// Shift left (integers only).
    Shl,
    /// Shift right (integers only).
    Shr,
    /// Minimum (floats only).
    Min,
    /// Maximum (floats only).
    Max,
}

/// Comparison operators used in conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer constant.
    ConstI(i64),
    /// Floating-point constant.
    ConstF(f64),
    /// A scalar variable (parameter or local).
    Var(String),
    /// `array[index]` where `array` is a program global.
    Load {
        /// Global array name.
        array: String,
        /// Element index.
        index: Box<Expr>,
    },
    /// `ptr[index]` where `ptr` is a pointer-typed variable.
    LoadPtr {
        /// Pointer variable name.
        ptr: String,
        /// Element index.
        index: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// The address of a global array (pointer value).
    AddrOfArray(String),
    /// The address of a function (used to build indirect-call tables).
    AddrOfFn(String),
    /// Conversion between integer and float.
    Cast {
        /// Target type.
        to: Ty,
        /// Value to convert.
        expr: Box<Expr>,
    },
}

impl Expr {
    /// Integer constant.
    #[must_use]
    pub fn const_i(v: i64) -> Expr {
        Expr::ConstI(v)
    }

    /// Floating-point constant.
    #[must_use]
    pub fn const_f(v: f64) -> Expr {
        Expr::ConstF(v)
    }

    /// Variable reference.
    #[must_use]
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Global array load.
    #[must_use]
    pub fn load(array: impl Into<String>, index: Expr) -> Expr {
        Expr::Load {
            array: array.into(),
            index: Box::new(index),
        }
    }

    /// Pointer load.
    #[must_use]
    pub fn load_ptr(ptr: impl Into<String>, index: Expr) -> Expr {
        Expr::LoadPtr {
            ptr: ptr.into(),
            index: Box::new(index),
        }
    }

    /// Generic binary operation.
    #[must_use]
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `lhs + rhs`.
    ///
    /// These constructors share names with the `std::ops` traits on purpose:
    /// they are associated functions (`Expr::add(a, b)`), the AST-building
    /// vocabulary every workload is written in, not operators on values.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Add, lhs, rhs)
    }

    /// `lhs - rhs`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Sub, lhs, rhs)
    }

    /// `lhs * rhs`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Mul, lhs, rhs)
    }

    /// `lhs / rhs`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn div(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Div, lhs, rhs)
    }

    /// `lhs % rhs`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn rem(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Rem, lhs, rhs)
    }

    /// Address of a global array.
    #[must_use]
    pub fn addr_of(array: impl Into<String>) -> Expr {
        Expr::AddrOfArray(array.into())
    }

    /// Cast to another scalar type.
    #[must_use]
    pub fn cast(to: Ty, expr: Expr) -> Expr {
        Expr::Cast {
            to,
            expr: Box::new(expr),
        }
    }

    /// Returns every variable mentioned by the expression.
    pub fn variables(&self, out: &mut Vec<String>) {
        match self {
            Expr::ConstI(_) | Expr::ConstF(_) | Expr::AddrOfArray(_) | Expr::AddrOfFn(_) => {}
            Expr::Var(n) => out.push(n.clone()),
            Expr::Load { index, .. } => index.variables(out),
            Expr::LoadPtr { ptr, index } => {
                out.push(ptr.clone());
                index.variables(out);
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.variables(out);
                rhs.variables(out);
            }
            Expr::Cast { expr, .. } => expr.variables(out),
        }
    }
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A scalar variable.
    Var(String),
    /// `array[index]` where `array` is a program global.
    Store {
        /// Global array name.
        array: String,
        /// Element index.
        index: Expr,
    },
    /// `ptr[index]` where `ptr` is a pointer-typed variable.
    StorePtr {
        /// Pointer variable name.
        ptr: String,
        /// Element index.
        index: Expr,
    },
}

impl LValue {
    /// Scalar variable target.
    #[must_use]
    pub fn var(name: impl Into<String>) -> LValue {
        LValue::Var(name.into())
    }

    /// Global array element target.
    #[must_use]
    pub fn store(array: impl Into<String>, index: Expr) -> LValue {
        LValue::Store {
            array: array.into(),
            index,
        }
    }

    /// Pointer element target.
    #[must_use]
    pub fn store_ptr(ptr: impl Into<String>, index: Expr) -> LValue {
        LValue::StorePtr {
            ptr: ptr.into(),
            index,
        }
    }
}

/// A boolean condition `lhs op rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond {
    /// Left-hand side.
    pub lhs: Expr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: Expr,
}

impl Cond {
    /// Builds a condition.
    #[must_use]
    pub fn new(lhs: Expr, op: CmpOp, rhs: Expr) -> Cond {
        Cond { lhs, op, rhs }
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `dst = value`.
    Assign {
        /// Target.
        dst: LValue,
        /// Value.
        value: Expr,
    },
    /// A counted loop `for var in start..end step step { body }`.
    For {
        /// Loop variable (must be a declared `I64` local).
        var: String,
        /// Initial value.
        start: Expr,
        /// Exclusive upper bound.
        end: Expr,
        /// Increment per iteration (may be negative).
        step: i64,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// A `while cond { body }` loop.
    While {
        /// Continuation condition.
        cond: Cond,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `if cond { then } else { els }`.
    If {
        /// Condition.
        cond: Cond,
        /// Statements executed when the condition holds.
        then: Vec<Stmt>,
        /// Statements executed otherwise.
        els: Vec<Stmt>,
    },
    /// Direct call to another function in the program.
    Call {
        /// Callee name.
        name: String,
        /// Arguments (at most four integers and four floats).
        args: Vec<Expr>,
        /// Where to store the return value, if any.
        ret: Option<LValue>,
    },
    /// Call to an external (shared-library or runtime) function.
    CallExt {
        /// Imported name (e.g. `"pow"`).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Where to store the return value, if any.
        ret: Option<LValue>,
    },
    /// Indirect call through a table of function addresses.
    CallIndirect {
        /// Global array holding function addresses.
        table: String,
        /// Index into the table.
        index: Expr,
    },
    /// Return from the current function.
    Return(Option<Expr>),
    /// Write a value to the simulated output stream (an IO operation).
    Print(Expr),
    /// Leave the innermost loop.
    Break,
}

impl Stmt {
    /// `dst = value`.
    #[must_use]
    pub fn assign(dst: LValue, value: Expr) -> Stmt {
        Stmt::Assign { dst, value }
    }

    /// A unit-stride counted loop.
    #[must_use]
    pub fn simple_for(var: impl Into<String>, start: Expr, end: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            var: var.into(),
            start,
            end,
            step: 1,
            body,
        }
    }

    /// A counted loop with an explicit step.
    #[must_use]
    pub fn step_for(
        var: impl Into<String>,
        start: Expr,
        end: Expr,
        step: i64,
        body: Vec<Stmt>,
    ) -> Stmt {
        Stmt::For {
            var: var.into(),
            start,
            end,
            step,
            body,
        }
    }

    /// Print statement.
    #[must_use]
    pub fn print(value: Expr) -> Stmt {
        Stmt::Print(value)
    }

    /// External call with a scalar result.
    #[must_use]
    pub fn call_ext(name: impl Into<String>, args: Vec<Expr>, ret: Option<LValue>) -> Stmt {
        Stmt::CallExt {
            name: name.into(),
            args,
            ret,
        }
    }
}

/// How a global array's initial contents are produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Init {
    /// All zeros (lives in `.bss`-like storage).
    Zero,
    /// `a[i] = i` (integers) or `a[i] = i as f64` (floats).
    Iota,
    /// `a[i] = (i * mul + add) % modulus` for integers, or the same value
    /// scaled into `[0, 1)` for floats — cheap deterministic pseudo-data.
    Pattern {
        /// Multiplier.
        mul: i64,
        /// Addend.
        add: i64,
        /// Modulus (must be positive).
        modulus: i64,
    },
    /// Explicit values (padded with zeros).
    ValuesI(Vec<i64>),
    /// Explicit floating-point values (padded with zeros).
    ValuesF(Vec<f64>),
}

/// A global array.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalArray {
    /// Name.
    pub name: String,
    /// Element type ([`Ty::I64`] or [`Ty::F64`]).
    pub ty: Ty,
    /// Number of elements.
    pub len: usize,
    /// Initialisation rule.
    pub init: Init,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (`"main"` is the program entry point).
    pub name: String,
    /// Parameters (name, type); integers/pointers and floats are passed in
    /// separate register classes.
    pub params: Vec<(String, Ty)>,
    /// Local variables.
    pub locals: Vec<(String, Ty)>,
    /// Function body.
    pub body: Vec<Stmt>,
}

impl Function {
    /// Creates an empty function.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Function {
        Function {
            name: name.into(),
            params: Vec::new(),
            locals: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Adds a parameter.
    #[must_use]
    pub fn param(mut self, name: impl Into<String>, ty: Ty) -> Function {
        self.params.push((name.into(), ty));
        self
    }

    /// Adds a local variable.
    #[must_use]
    pub fn local(mut self, name: impl Into<String>, ty: Ty) -> Function {
        self.locals.push((name.into(), ty));
        self
    }

    /// Sets the body.
    #[must_use]
    pub fn body(mut self, body: Vec<Stmt>) -> Function {
        self.body = body;
        self
    }

    /// The declared type of a parameter or local, if any.
    #[must_use]
    pub fn var_type(&self, name: &str) -> Option<Ty> {
        self.params
            .iter()
            .chain(self.locals.iter())
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
    }
}

/// A whole program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name (used for diagnostics and the producer string).
    pub name: String,
    /// Global arrays.
    pub globals: Vec<GlobalArray>,
    /// Functions; exactly one must be called `main`.
    pub functions: Vec<Function>,
}

impl Program {
    /// Starts building a program.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            program: Program {
                name: name.into(),
                globals: Vec::new(),
                functions: Vec::new(),
            },
        }
    }

    /// Finds a function by name.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Finds a global by name.
    #[must_use]
    pub fn global(&self, name: &str) -> Option<&GlobalArray> {
        self.globals.iter().find(|g| g.name == name)
    }
}

/// Incremental builder for [`Program`].
#[derive(Debug)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Adds a zero-initialised integer array.
    #[must_use]
    pub fn global_i64(mut self, name: impl Into<String>, len: usize) -> Self {
        self.program.globals.push(GlobalArray {
            name: name.into(),
            ty: Ty::I64,
            len,
            init: Init::Zero,
        });
        self
    }

    /// Adds a zero-initialised floating-point array.
    #[must_use]
    pub fn global_f64(mut self, name: impl Into<String>, len: usize) -> Self {
        self.program.globals.push(GlobalArray {
            name: name.into(),
            ty: Ty::F64,
            len,
            init: Init::Zero,
        });
        self
    }

    /// Adds a global array with an explicit initialisation rule.
    #[must_use]
    pub fn global(mut self, array: GlobalArray) -> Self {
        self.program.globals.push(array);
        self
    }

    /// Adds a function.
    #[must_use]
    pub fn function(mut self, function: Function) -> Self {
        self.program.functions.push(function);
        self
    }

    /// Finishes the program.
    ///
    /// # Panics
    ///
    /// Panics if no `main` function was added.
    #[must_use]
    pub fn build(self) -> Program {
        assert!(
            self.program.function("main").is_some(),
            "program `{}` has no main function",
            self.program.name
        );
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_a_program() {
        let p = Program::builder("p")
            .global_i64("a", 10)
            .global_f64("x", 4)
            .function(
                Function::new("main")
                    .local("i", Ty::I64)
                    .body(vec![Stmt::simple_for(
                        "i",
                        Expr::const_i(0),
                        Expr::const_i(10),
                        vec![Stmt::assign(
                            LValue::store("a", Expr::var("i")),
                            Expr::var("i"),
                        )],
                    )]),
            )
            .build();
        assert_eq!(p.globals.len(), 2);
        assert!(p.function("main").is_some());
        assert!(p.global("a").is_some());
        assert!(p.global("zzz").is_none());
    }

    #[test]
    #[should_panic(expected = "no main function")]
    fn build_without_main_panics() {
        let _ = Program::builder("p").build();
    }

    #[test]
    fn function_var_types() {
        let f = Function::new("f").param("p", Ty::Ptr).local("x", Ty::F64);
        assert_eq!(f.var_type("p"), Some(Ty::Ptr));
        assert_eq!(f.var_type("x"), Some(Ty::F64));
        assert_eq!(f.var_type("missing"), None);
    }

    #[test]
    fn expr_variables_are_collected() {
        let e = Expr::add(
            Expr::load_ptr("p", Expr::var("i")),
            Expr::mul(Expr::var("j"), Expr::const_i(3)),
        );
        let mut vars = Vec::new();
        e.variables(&mut vars);
        assert_eq!(
            vars,
            vec!["p".to_string(), "i".to_string(), "j".to_string()]
        );
    }

    #[test]
    fn expression_helpers_build_expected_shapes() {
        assert_eq!(
            Expr::add(Expr::const_i(1), Expr::const_i(2)),
            Expr::Binary {
                op: BinOp::Add,
                lhs: Box::new(Expr::ConstI(1)),
                rhs: Box::new(Expr::ConstI(2)),
            }
        );
        assert!(Ty::F64.is_float());
        assert!(!Ty::I64.is_float());
    }
}
