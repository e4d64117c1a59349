//! Lowering of the source AST to JVA machine code.

use crate::ast::{
    BinOp, CmpOp, Cond, Expr, Function, GlobalArray, Init, LValue, Program, Stmt, Ty,
};
use crate::error::{CompileError, Result};
use crate::options::{CompileOptions, OptLevel, Vectorize};
use crate::parallelize;
use crate::transform;
use janus_ir::{AluOp, AsmBuilder, FpuOp, Inst, JBinary, MemRef, Operand, Reg};
use std::collections::HashMap;

/// Integer registers available as variable homes (argument registers R0–R3,
/// the stack/frame pointers and the scratch pool are excluded).
const INT_HOMES: [Reg; 6] = [Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::R8, Reg::R9];
/// Floating-point registers available as variable homes.
const FLT_HOMES: [Reg; 6] = [Reg::V4, Reg::V5, Reg::V6, Reg::V7, Reg::V8, Reg::V9];
/// Integer scratch registers used for expression evaluation.
const INT_SCRATCH: [Reg; 4] = [Reg::R10, Reg::R11, Reg::R12, Reg::R13];
/// Floating-point scratch registers used for expression evaluation.
const FLT_SCRATCH: [Reg; 6] = [Reg::V10, Reg::V11, Reg::V12, Reg::V13, Reg::V14, Reg::V15];

/// Where a scalar variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// In an integer register.
    Gpr(Reg),
    /// In a vector register (scalar f64 in lane 0).
    VReg(Reg),
    /// On the stack at `[fp + offset]` (offset is negative).
    Stack(i64),
}

/// Information about a lowered global array.
#[derive(Debug, Clone, Copy)]
struct GlobalInfo {
    addr: u64,
    ty: Ty,
    /// Element count; retained for diagnostics and future bounds folding.
    #[allow(dead_code)]
    len: usize,
}

/// The mini compiler: lowers a [`Program`] to a [`JBinary`].
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Default, Clone)]
pub struct Compiler {
    options: CompileOptions,
}

impl Compiler {
    /// A compiler with the default (gcc `-O3`) options.
    #[must_use]
    pub fn new() -> Compiler {
        Compiler::default()
    }

    /// A compiler with explicit options.
    #[must_use]
    pub fn with_options(options: CompileOptions) -> Compiler {
        Compiler { options }
    }

    /// The active options.
    #[must_use]
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Compiles a program into an executable binary.
    ///
    /// # Errors
    ///
    /// Returns an error if the program references undefined names, mixes
    /// types, or exceeds the code generator's expression-depth limit.
    pub fn compile(&self, program: &Program) -> Result<JBinary> {
        // Optimisation pipeline (AST to AST).
        let mut program = program.clone();
        if self.options.parallelize {
            program = parallelize::parallelize(&program, &self.options);
        }
        if self.options.unroll_factor() > 1 {
            program = transform::unroll_program(&program, &self.options);
        }

        let mut asm = AsmBuilder::new();
        asm.set_producer(format!("{} [{}]", self.options.describe(), program.name));

        // Lay out globals.
        let mut globals = HashMap::new();
        for g in &program.globals {
            let addr = emit_global(&mut asm, g);
            globals.insert(
                g.name.clone(),
                GlobalInfo {
                    addr,
                    ty: g.ty,
                    len: g.len,
                },
            );
        }

        // Emit main first so the entry point is the first function, then the
        // remaining functions in declaration order.
        let mut order: Vec<&Function> = Vec::new();
        if let Some(main) = program.function("main") {
            order.push(main);
        }
        for f in &program.functions {
            if f.name != "main" {
                order.push(f);
            }
        }
        for f in &order {
            let mut ctx = FnCtx::new(f, &program, &globals, &self.options);
            ctx.emit_function(&mut asm)?;
        }
        let mut bin = asm.finish_binary("main")?;
        bin.set_producer(format!("{} [{}]", self.options.describe(), program.name));
        Ok(bin)
    }
}

/// Emits a global array's initial data and returns its address.
fn emit_global(asm: &mut AsmBuilder, g: &GlobalArray) -> u64 {
    let mut bytes = Vec::with_capacity(g.len * 8);
    match (&g.init, g.ty) {
        (Init::Zero, _) => bytes.resize(g.len * 8, 0),
        (Init::Iota, Ty::I64 | Ty::Ptr) => {
            for i in 0..g.len {
                bytes.extend_from_slice(&(i as i64).to_le_bytes());
            }
        }
        (Init::Iota, Ty::F64) => {
            for i in 0..g.len {
                bytes.extend_from_slice(&(i as f64).to_bits().to_le_bytes());
            }
        }
        (Init::Pattern { mul, add, modulus }, ty) => {
            let modulus = (*modulus).max(1);
            for i in 0..g.len {
                let v = ((i as i64).wrapping_mul(*mul).wrapping_add(*add)).rem_euclid(modulus);
                match ty {
                    Ty::F64 => bytes.extend_from_slice(
                        &((v as f64) / (modulus as f64)).to_bits().to_le_bytes(),
                    ),
                    _ => bytes.extend_from_slice(&v.to_le_bytes()),
                }
            }
        }
        (Init::ValuesI(vs), _) => {
            for i in 0..g.len {
                bytes.extend_from_slice(&vs.get(i).copied().unwrap_or(0).to_le_bytes());
            }
        }
        (Init::ValuesF(vs), _) => {
            for i in 0..g.len {
                bytes.extend_from_slice(&vs.get(i).copied().unwrap_or(0.0).to_bits().to_le_bytes());
            }
        }
    }
    asm.data_object(g.name.clone(), &bytes)
}

struct FnCtx<'a> {
    func: &'a Function,
    program: &'a Program,
    globals: &'a HashMap<String, GlobalInfo>,
    options: &'a CompileOptions,
    locs: HashMap<String, Loc>,
    used_int_homes: Vec<Reg>,
    used_flt_homes: Vec<Reg>,
    frame_size: i64,
    label_counter: usize,
    break_labels: Vec<String>,
    epilogue_label: String,
    is_main: bool,
}

impl<'a> FnCtx<'a> {
    fn new(
        func: &'a Function,
        program: &'a Program,
        globals: &'a HashMap<String, GlobalInfo>,
        options: &'a CompileOptions,
    ) -> FnCtx<'a> {
        FnCtx {
            func,
            program,
            globals,
            options,
            locs: HashMap::new(),
            used_int_homes: Vec::new(),
            used_flt_homes: Vec::new(),
            frame_size: 0,
            label_counter: 0,
            break_labels: Vec::new(),
            epilogue_label: format!("{}__epilogue", func.name),
            is_main: func.name == "main",
        }
    }

    fn fresh_label(&mut self, kind: &str) -> String {
        self.label_counter += 1;
        format!("{}__{}_{}", self.func.name, kind, self.label_counter)
    }

    fn alloc_stack_slot(&mut self) -> i64 {
        self.frame_size += 8;
        -self.frame_size
    }

    /// Assigns a home to every parameter and local.
    fn allocate_variables(&mut self) {
        let reg_alloc = self.options.register_allocate();
        let mut next_int = 0usize;
        let mut next_flt = 0usize;
        let vars: Vec<(String, Ty)> = self
            .func
            .params
            .iter()
            .chain(self.func.locals.iter())
            .cloned()
            .collect();
        for (name, ty) in vars {
            let loc = if ty.is_float() {
                if reg_alloc && next_flt < FLT_HOMES.len() {
                    let r = FLT_HOMES[next_flt];
                    next_flt += 1;
                    self.used_flt_homes.push(r);
                    Loc::VReg(r)
                } else {
                    Loc::Stack(self.alloc_stack_slot())
                }
            } else if reg_alloc && next_int < INT_HOMES.len() {
                let r = INT_HOMES[next_int];
                next_int += 1;
                self.used_int_homes.push(r);
                Loc::Gpr(r)
            } else {
                Loc::Stack(self.alloc_stack_slot())
            };
            self.locs.insert(name, loc);
        }
    }

    fn loc(&self, name: &str) -> Result<Loc> {
        self.locs
            .get(name)
            .copied()
            .ok_or_else(|| CompileError::UndefinedVariable {
                name: name.to_string(),
                function: self.func.name.clone(),
            })
    }

    fn global(&self, name: &str) -> Result<GlobalInfo> {
        self.globals
            .get(name)
            .copied()
            .ok_or_else(|| CompileError::UndefinedArray {
                name: name.to_string(),
            })
    }

    fn var_type(&self, name: &str) -> Result<Ty> {
        self.func
            .var_type(name)
            .ok_or_else(|| CompileError::UndefinedVariable {
                name: name.to_string(),
                function: self.func.name.clone(),
            })
    }

    /// The scalar type an expression evaluates to.
    fn expr_type(&self, expr: &Expr) -> Result<Ty> {
        Ok(match expr {
            Expr::ConstI(_) | Expr::AddrOfArray(_) | Expr::AddrOfFn(_) => Ty::I64,
            Expr::ConstF(_) => Ty::F64,
            Expr::Var(n) => match self.var_type(n)? {
                Ty::F64 => Ty::F64,
                _ => Ty::I64,
            },
            Expr::Load { array, .. } => {
                if self.global(array)?.ty.is_float() {
                    Ty::F64
                } else {
                    Ty::I64
                }
            }
            // Pointer parameters always point to f64 elements (see the
            // crate-level documentation of the source language).
            Expr::LoadPtr { .. } => Ty::F64,
            Expr::Binary { lhs, .. } => self.expr_type(lhs)?,
            Expr::Cast { to, .. } => *to,
        })
    }

    // ----- operand helpers --------------------------------------------------

    fn int_operand_of_loc(loc: Loc) -> Operand {
        match loc {
            Loc::Gpr(r) => Operand::Reg(r),
            Loc::Stack(off) => Operand::Mem(MemRef::base_disp(Reg::FP, off)),
            Loc::VReg(r) => Operand::Reg(r),
        }
    }

    // ----- expression evaluation --------------------------------------------

    /// Evaluates an integer expression into the integer scratch register with
    /// index `depth`. Returns the register.
    fn eval_int(&mut self, asm: &mut AsmBuilder, expr: &Expr, depth: usize) -> Result<Reg> {
        if depth >= INT_SCRATCH.len() {
            return Err(CompileError::ExpressionTooDeep {
                function: self.func.name.clone(),
            });
        }
        let dst = INT_SCRATCH[depth];
        match expr {
            Expr::ConstI(v) => {
                asm.push(Inst::mov(Operand::reg(dst), Operand::imm(*v)));
            }
            Expr::ConstF(_) => {
                return Err(CompileError::TypeMismatch {
                    context: format!("float constant in integer context in `{}`", self.func.name),
                })
            }
            Expr::Var(n) => {
                let loc = self.loc(n)?;
                match loc {
                    Loc::Gpr(r) => {
                        asm.push(Inst::mov(Operand::reg(dst), Operand::reg(r)));
                    }
                    Loc::Stack(off) => {
                        asm.push(Inst::mov(
                            Operand::reg(dst),
                            Operand::mem(MemRef::base_disp(Reg::FP, off)),
                        ));
                    }
                    Loc::VReg(_) => {
                        return Err(CompileError::TypeMismatch {
                            context: format!("float variable `{n}` used as integer"),
                        })
                    }
                }
            }
            Expr::Load { array, index } => {
                let g = self.global(array)?;
                if g.ty.is_float() {
                    return Err(CompileError::TypeMismatch {
                        context: format!("float array `{array}` loaded as integer"),
                    });
                }
                let mem = self.array_ref(asm, g, index, depth)?;
                asm.push(Inst::mov(Operand::reg(dst), Operand::mem(mem)));
            }
            Expr::LoadPtr { ptr, .. } => {
                return Err(CompileError::TypeMismatch {
                    context: format!("pointer load through `{ptr}` used as integer"),
                })
            }
            Expr::Binary { op, lhs, rhs } => {
                self.eval_int(asm, lhs, depth)?;
                let rhs_operand = self.simple_int_operand(rhs)?;
                let alu = int_binop(*op, &self.func.name)?;
                match rhs_operand {
                    Some(operand) => {
                        asm.push(Inst::alu(alu, Operand::reg(dst), operand));
                    }
                    None => {
                        let rhs_reg = self.eval_int(asm, rhs, depth + 1)?;
                        asm.push(Inst::alu(alu, Operand::reg(dst), Operand::reg(rhs_reg)));
                    }
                }
            }
            Expr::AddrOfArray(name) => {
                let g = self.global(name)?;
                asm.push(Inst::mov(Operand::reg(dst), Operand::imm(g.addr as i64)));
            }
            Expr::AddrOfFn(name) => {
                if self.program.function(name).is_none() {
                    return Err(CompileError::UndefinedFunction { name: name.clone() });
                }
                asm.push_load_label_addr(dst, name.clone());
            }
            Expr::Cast { to: Ty::I64, expr } => {
                let v = self.eval_float(asm, expr, 0)?;
                asm.push(Inst::CvtFloatToInt {
                    dst,
                    src: Operand::reg(v),
                });
            }
            Expr::Cast { to, expr } => {
                let _ = (to, expr);
                return Err(CompileError::TypeMismatch {
                    context: format!("unsupported cast in `{}`", self.func.name),
                });
            }
        }
        Ok(dst)
    }

    /// Returns an operand for simple integer expressions (constants and
    /// register-resident variables) that can be folded directly into the
    /// consuming instruction — this is what produces the compact
    /// `add r10, r4` / `cmp r10, 10000` shapes the analyser expects from
    /// optimised code.
    fn simple_int_operand(&self, expr: &Expr) -> Result<Option<Operand>> {
        if let Some(v) = const_eval_int(expr) {
            return Ok(Some(Operand::imm(v)));
        }
        Ok(match expr {
            Expr::ConstI(v) => Some(Operand::imm(*v)),
            Expr::Var(n) => match self.loc(n)? {
                Loc::Gpr(r) => Some(Operand::reg(r)),
                Loc::Stack(off) => Some(Operand::mem(MemRef::base_disp(Reg::FP, off))),
                Loc::VReg(_) => None,
            },
            _ => None,
        })
    }

    /// Evaluates a floating-point expression into the float scratch register
    /// with index `depth`.
    fn eval_float(&mut self, asm: &mut AsmBuilder, expr: &Expr, depth: usize) -> Result<Reg> {
        if depth >= FLT_SCRATCH.len() {
            return Err(CompileError::ExpressionTooDeep {
                function: self.func.name.clone(),
            });
        }
        let dst = FLT_SCRATCH[depth];
        match expr {
            Expr::ConstF(v) => {
                // Materialise the bit pattern through an integer scratch
                // register, as a real compiler would via a constant pool.
                asm.push(Inst::mov(
                    Operand::reg(INT_SCRATCH[3]),
                    Operand::imm(v.to_bits() as i64),
                ));
                asm.push(Inst::Push {
                    src: Operand::reg(INT_SCRATCH[3]),
                });
                asm.push(Inst::FMov {
                    dst: Operand::reg(dst),
                    src: Operand::mem(MemRef::base(Reg::SP)),
                });
                asm.push(Inst::Pop {
                    dst: Operand::reg(INT_SCRATCH[3]),
                });
            }
            Expr::ConstI(v) => {
                asm.push(Inst::mov(Operand::reg(INT_SCRATCH[3]), Operand::imm(*v)));
                asm.push(Inst::CvtIntToFloat {
                    dst,
                    src: Operand::reg(INT_SCRATCH[3]),
                });
            }
            Expr::Var(n) => match self.loc(n)? {
                Loc::VReg(r) => {
                    asm.push(Inst::FMov {
                        dst: Operand::reg(dst),
                        src: Operand::reg(r),
                    });
                }
                Loc::Stack(off) => {
                    asm.push(Inst::FMov {
                        dst: Operand::reg(dst),
                        src: Operand::mem(MemRef::base_disp(Reg::FP, off)),
                    });
                }
                Loc::Gpr(r) => {
                    asm.push(Inst::CvtIntToFloat {
                        dst,
                        src: Operand::reg(r),
                    });
                }
            },
            Expr::Load { array, index } => {
                let g = self.global(array)?;
                let mem = self.array_ref(asm, g, index, 0)?;
                asm.push(Inst::FMov {
                    dst: Operand::reg(dst),
                    src: Operand::mem(mem),
                });
            }
            Expr::LoadPtr { ptr, index } => {
                let mem = self.ptr_ref(asm, ptr, index, 0)?;
                asm.push(Inst::FMov {
                    dst: Operand::reg(dst),
                    src: Operand::mem(mem),
                });
            }
            Expr::Binary { op, lhs, rhs } => {
                self.eval_float(asm, lhs, depth)?;
                let rhs_reg = self.eval_float(asm, rhs, depth + 1)?;
                let fop = float_binop(*op, &self.func.name)?;
                asm.push(Inst::Fpu {
                    op: fop,
                    dst: Operand::reg(dst),
                    src: Operand::reg(rhs_reg),
                });
            }
            Expr::Cast { to: Ty::F64, expr } => {
                let r = self.eval_int(asm, expr, 0)?;
                asm.push(Inst::CvtIntToFloat {
                    dst,
                    src: Operand::reg(r),
                });
            }
            Expr::Cast { .. } | Expr::AddrOfArray(_) | Expr::AddrOfFn(_) => {
                return Err(CompileError::TypeMismatch {
                    context: format!(
                        "address expression in float context in `{}`",
                        self.func.name
                    ),
                })
            }
        }
        Ok(dst)
    }

    /// Builds a memory reference for `array[index]`, evaluating the index if
    /// it is not a simple variable or constant.
    fn array_ref(
        &mut self,
        asm: &mut AsmBuilder,
        g: GlobalInfo,
        index: &Expr,
        depth: usize,
    ) -> Result<MemRef> {
        match index {
            Expr::ConstI(v) => Ok(MemRef::absolute(g.addr).with_disp(g.addr as i64 + v * 8)),
            Expr::Var(n) => match self.loc(n)? {
                Loc::Gpr(r) => Ok(MemRef {
                    base: None,
                    index: Some(r),
                    scale: 8,
                    disp: g.addr as i64,
                }),
                _ => {
                    let idx = self.eval_int(asm, index, depth)?;
                    Ok(MemRef {
                        base: None,
                        index: Some(idx),
                        scale: 8,
                        disp: g.addr as i64,
                    })
                }
            },
            _ => {
                let idx = self.eval_int(asm, index, depth)?;
                Ok(MemRef {
                    base: None,
                    index: Some(idx),
                    scale: 8,
                    disp: g.addr as i64,
                })
            }
        }
    }

    /// Builds a memory reference for `ptr[index]` where `ptr` is a pointer
    /// variable (base register + scaled index, like compiled C).
    fn ptr_ref(
        &mut self,
        asm: &mut AsmBuilder,
        ptr: &str,
        index: &Expr,
        depth: usize,
    ) -> Result<MemRef> {
        let base_reg = match self.loc(ptr)? {
            Loc::Gpr(r) => r,
            Loc::Stack(off) => {
                // Load the pointer into the last integer scratch register.
                let r = INT_SCRATCH[INT_SCRATCH.len() - 1 - depth.min(1)];
                asm.push(Inst::mov(
                    Operand::reg(r),
                    Operand::mem(MemRef::base_disp(Reg::FP, off)),
                ));
                r
            }
            Loc::VReg(_) => {
                return Err(CompileError::TypeMismatch {
                    context: format!("`{ptr}` is not a pointer"),
                })
            }
        };
        match index {
            Expr::ConstI(v) => Ok(MemRef::base_disp(base_reg, v * 8)),
            Expr::Var(n) => match self.loc(n)? {
                Loc::Gpr(r) => Ok(MemRef::base_index(base_reg, r, 8)),
                _ => {
                    let idx = self.eval_int(asm, index, depth)?;
                    Ok(MemRef::base_index(base_reg, idx, 8))
                }
            },
            _ => {
                let idx = self.eval_int(asm, index, depth)?;
                Ok(MemRef::base_index(base_reg, idx, 8))
            }
        }
    }

    // ----- statements -------------------------------------------------------

    fn emit_function(&mut self, asm: &mut AsmBuilder) -> Result<()> {
        self.allocate_variables();
        asm.function(self.func.name.clone());

        // Prologue.
        if !self.is_main {
            asm.push(Inst::Push {
                src: Operand::reg(Reg::FP),
            });
        }
        asm.push(Inst::mov(Operand::reg(Reg::FP), Operand::reg(Reg::SP)));
        // Reserve the variable frame plus head-room for loop-bound temporaries
        // allocated while the body is being emitted.
        let frame_reserved = self.frame_size + 256;
        asm.push(Inst::alu(
            AluOp::Sub,
            Operand::reg(Reg::SP),
            Operand::imm(frame_reserved),
        ));
        // Save the callee-saved homes we are about to overwrite.
        let saved: Vec<Reg> = self
            .used_int_homes
            .iter()
            .copied()
            .filter(|_| !self.is_main)
            .collect();
        for r in &saved {
            asm.push(Inst::Push {
                src: Operand::reg(*r),
            });
        }
        // Move incoming arguments to their homes.
        let mut int_arg = 0u8;
        let mut flt_arg = 0u8;
        for (name, ty) in self.func.params.clone() {
            let loc = self.loc(&name)?;
            if ty.is_float() {
                let src = Reg::vreg(flt_arg);
                flt_arg += 1;
                match loc {
                    Loc::VReg(r) => {
                        asm.push(Inst::FMov {
                            dst: Operand::reg(r),
                            src: Operand::reg(src),
                        });
                    }
                    Loc::Stack(off) => {
                        asm.push(Inst::FMov {
                            dst: Operand::mem(MemRef::base_disp(Reg::FP, off)),
                            src: Operand::reg(src),
                        });
                    }
                    Loc::Gpr(_) => unreachable!("float parameter in integer register"),
                }
            } else {
                let src = Reg::gpr(int_arg);
                int_arg += 1;
                match loc {
                    Loc::Gpr(r) => {
                        asm.push(Inst::mov(Operand::reg(r), Operand::reg(src)));
                    }
                    Loc::Stack(off) => {
                        asm.push(Inst::mov(
                            Operand::mem(MemRef::base_disp(Reg::FP, off)),
                            Operand::reg(src),
                        ));
                    }
                    Loc::VReg(_) => unreachable!("integer parameter in float register"),
                }
            }
        }

        // Body.
        let body = self.func.body.clone();
        self.emit_block(asm, &body)?;

        // Epilogue.
        asm.label(self.epilogue_label.clone());
        for r in saved.iter().rev() {
            asm.push(Inst::Pop {
                dst: Operand::reg(*r),
            });
        }
        asm.push(Inst::mov(Operand::reg(Reg::SP), Operand::reg(Reg::FP)));
        if self.is_main {
            asm.push(Inst::Halt);
        } else {
            asm.push(Inst::Pop {
                dst: Operand::reg(Reg::FP),
            });
            asm.push(Inst::Ret);
        }
        Ok(())
    }

    fn emit_block(&mut self, asm: &mut AsmBuilder, block: &[Stmt]) -> Result<()> {
        for stmt in block {
            self.emit_stmt(asm, stmt)?;
        }
        Ok(())
    }

    fn emit_stmt(&mut self, asm: &mut AsmBuilder, stmt: &Stmt) -> Result<()> {
        match stmt {
            Stmt::Assign { dst, value } => self.emit_assign(asm, dst, value),
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => self.emit_for(asm, var, start, end, *step, body),
            Stmt::While { cond, body } => self.emit_while(asm, cond, body),
            Stmt::If { cond, then, els } => self.emit_if(asm, cond, then, els),
            Stmt::Call { name, args, ret } => self.emit_call(asm, name, args, ret.as_ref(), false),
            Stmt::CallExt { name, args, ret } => {
                self.emit_call(asm, name, args, ret.as_ref(), true)
            }
            Stmt::CallIndirect { table, index } => self.emit_call_indirect(asm, table, index),
            Stmt::Return(value) => self.emit_return(asm, value.as_ref()),
            Stmt::Print(value) => self.emit_print(asm, value),
            Stmt::Break => {
                let label = self
                    .break_labels
                    .last()
                    .cloned()
                    .expect("break outside of a loop");
                asm.push_jmp(label);
                Ok(())
            }
        }
    }

    fn emit_assign(&mut self, asm: &mut AsmBuilder, dst: &LValue, value: &Expr) -> Result<()> {
        // Accumulation peephole: `x = x op e` is emitted as a single
        // read-modify-write on x's home (`add r4, ...` / `fadd [fp-8], ...`),
        // the shape optimising compilers produce for reductions.
        if let (LValue::Var(name), Expr::Binary { op, lhs, rhs }) = (dst, value) {
            if **lhs == Expr::Var(name.clone()) {
                if let Ok(loc) = self.loc(name) {
                    let is_float = self.var_type(name)?.is_float();
                    let dst_operand = match (loc, is_float) {
                        (Loc::Gpr(r), false) => Some(Operand::reg(r)),
                        (Loc::VReg(r), true) => Some(Operand::reg(r)),
                        (Loc::Stack(off), _) => Some(Operand::mem(MemRef::base_disp(Reg::FP, off))),
                        _ => None,
                    };
                    if let Some(dst_operand) = dst_operand {
                        if is_float {
                            if let Ok(fop) = float_binop(*op, &self.func.name) {
                                let r = self.eval_float(asm, rhs, 0)?;
                                asm.push(Inst::Fpu {
                                    op: fop,
                                    dst: dst_operand,
                                    src: Operand::reg(r),
                                });
                                return Ok(());
                            }
                        } else if let Ok(alu) = int_binop(*op, &self.func.name) {
                            let src = match self.simple_int_operand(rhs)? {
                                Some(op) => op,
                                None => Operand::reg(self.eval_int(asm, rhs, 0)?),
                            };
                            asm.push(Inst::Alu {
                                op: alu,
                                dst: dst_operand,
                                src,
                            });
                            return Ok(());
                        }
                    }
                }
            }
        }
        let value_ty = self.expr_type(value)?;
        if value_ty.is_float() {
            let v = self.eval_float(asm, value, 0)?;
            match dst {
                LValue::Var(n) => match self.loc(n)? {
                    Loc::VReg(r) => {
                        asm.push(Inst::FMov {
                            dst: Operand::reg(r),
                            src: Operand::reg(v),
                        });
                    }
                    Loc::Stack(off) => {
                        asm.push(Inst::FMov {
                            dst: Operand::mem(MemRef::base_disp(Reg::FP, off)),
                            src: Operand::reg(v),
                        });
                    }
                    Loc::Gpr(r) => {
                        asm.push(Inst::CvtFloatToInt {
                            dst: r,
                            src: Operand::reg(v),
                        });
                    }
                },
                LValue::Store { array, index } => {
                    let g = self.global(array)?;
                    let mem = self.array_ref(asm, g, index, 0)?;
                    asm.push(Inst::FMov {
                        dst: Operand::mem(mem),
                        src: Operand::reg(v),
                    });
                }
                LValue::StorePtr { ptr, index } => {
                    let mem = self.ptr_ref(asm, ptr, index, 0)?;
                    asm.push(Inst::FMov {
                        dst: Operand::mem(mem),
                        src: Operand::reg(v),
                    });
                }
            }
        } else {
            let v = self.eval_int(asm, value, 0)?;
            match dst {
                LValue::Var(n) => match self.loc(n)? {
                    Loc::Gpr(r) => {
                        asm.push(Inst::mov(Operand::reg(r), Operand::reg(v)));
                    }
                    Loc::Stack(off) => {
                        asm.push(Inst::mov(
                            Operand::mem(MemRef::base_disp(Reg::FP, off)),
                            Operand::reg(v),
                        ));
                    }
                    Loc::VReg(r) => {
                        asm.push(Inst::CvtIntToFloat {
                            dst: r,
                            src: Operand::reg(v),
                        });
                    }
                },
                LValue::Store { array, index } => {
                    let g = self.global(array)?;
                    let mem = self.array_ref(asm, g, index, 1)?;
                    asm.push(Inst::mov(Operand::mem(mem), Operand::reg(v)));
                }
                LValue::StorePtr { ptr, index } => {
                    let mem = self.ptr_ref(asm, ptr, index, 1)?;
                    asm.push(Inst::mov(Operand::mem(mem), Operand::reg(v)));
                }
            }
        }
        Ok(())
    }

    /// Emits a comparison followed by a conditional branch to `target` taken
    /// when the condition is *false* (the usual compiled-code shape).
    fn emit_cond_branch_false(
        &mut self,
        asm: &mut AsmBuilder,
        cond: &Cond,
        target: &str,
    ) -> Result<()> {
        let float = self.expr_type(&cond.lhs)?.is_float() || self.expr_type(&cond.rhs)?.is_float();
        if float {
            let l = self.eval_float(asm, &cond.lhs, 0)?;
            let r = self.eval_float(asm, &cond.rhs, 1)?;
            asm.push(Inst::FCmp {
                lhs: Operand::reg(l),
                rhs: Operand::reg(r),
            });
        } else {
            let l = self.eval_int(asm, &cond.lhs, 0)?;
            let rhs_operand = self.simple_int_operand(&cond.rhs)?;
            let rhs = match rhs_operand {
                Some(op) => op,
                None => Operand::reg(self.eval_int(asm, &cond.rhs, 1)?),
            };
            asm.push(Inst::cmp(Operand::reg(l), rhs));
        }
        asm.push_branch(cmp_to_cond(cond.op).negate(), target);
        Ok(())
    }

    fn emit_for(
        &mut self,
        asm: &mut AsmBuilder,
        var: &str,
        start: &Expr,
        end: &Expr,
        step: i64,
        body: &[Stmt],
    ) -> Result<()> {
        // Vectorisation of eligible inner loops at -O3 with a vector width.
        if self.options.opt_level == OptLevel::O3
            && self.options.vectorize != Vectorize::None
            && step == 1
        {
            if let Some(plan) = self.vector_plan(var, body) {
                return self.emit_vector_for(asm, var, start, end, body, plan);
            }
        }

        let loop_label = self.fresh_label("loop");
        let done_label = self.fresh_label("loop_done");

        // var = start
        self.emit_assign(asm, &LValue::Var(var.to_string()), start)?;

        // Keep the bound in a well-defined place: a constant or variable is
        // used directly; anything else is evaluated once into a stack slot.
        let bound = match self.simple_int_operand(end)? {
            Some(op) => op,
            None => {
                let v = self.eval_int(asm, end, 0)?;
                let slot = self.alloc_stack_slot();
                asm.push(Inst::mov(
                    Operand::mem(MemRef::base_disp(Reg::FP, slot)),
                    Operand::reg(v),
                ));
                Operand::mem(MemRef::base_disp(Reg::FP, slot))
            }
        };

        let var_loc = self.loc(var)?;
        let var_operand = Self::int_operand_of_loc(var_loc);
        let (guard_cond, back_cond) = if step >= 0 {
            (janus_ir::Cond::Ge, janus_ir::Cond::Lt)
        } else {
            (janus_ir::Cond::Le, janus_ir::Cond::Gt)
        };

        // Guard: skip the loop entirely when it runs zero iterations.
        asm.push(Inst::Cmp {
            lhs: var_operand,
            rhs: bound,
        });
        asm.push_branch(guard_cond, done_label.clone());

        asm.label(loop_label.clone());
        self.break_labels.push(done_label.clone());
        self.emit_block(asm, body)?;
        self.break_labels.pop();

        // Induction update + bottom test.
        asm.push(Inst::Alu {
            op: AluOp::Add,
            dst: var_operand,
            src: Operand::imm(step),
        });
        asm.push(Inst::Cmp {
            lhs: var_operand,
            rhs: bound,
        });
        asm.push_branch(back_cond, loop_label);
        asm.label(done_label);
        Ok(())
    }

    /// Describes a vectorisable loop body: a single float store whose value is
    /// an expression over same-index loads and constants.
    fn vector_plan(&self, var: &str, body: &[Stmt]) -> Option<VectorPlan> {
        if body.len() != 1 {
            return None;
        }
        let Stmt::Assign { dst, value } = &body[0] else {
            return None;
        };
        let dst = match dst {
            LValue::Store { array, index } if *index == Expr::Var(var.to_string()) => {
                VecTarget::Global(array.clone())
            }
            LValue::StorePtr { ptr, index } if *index == Expr::Var(var.to_string()) => {
                VecTarget::Ptr(ptr.clone())
            }
            _ => return None,
        };
        if !self.expr_vectorisable(var, value) {
            return None;
        }
        if self.expr_type(value).ok()? != Ty::F64 {
            return None;
        }
        Some(VectorPlan {
            dst,
            value: value.clone(),
            lanes: self.options.vectorize.lanes(),
        })
    }

    fn expr_vectorisable(&self, var: &str, expr: &Expr) -> bool {
        match expr {
            Expr::ConstF(_) => true,
            Expr::Load { array, index } => {
                *index.as_ref() == Expr::Var(var.to_string())
                    && self.global(array).map(|g| g.ty.is_float()).unwrap_or(false)
            }
            Expr::LoadPtr { index, .. } => *index.as_ref() == Expr::Var(var.to_string()),
            Expr::Binary { op, lhs, rhs } => {
                matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
                    && self.expr_vectorisable(var, lhs)
                    && self.expr_vectorisable(var, rhs)
            }
            _ => false,
        }
    }

    /// Emits the vectorised form: an optional alignment peel loop, a packed
    /// main loop and a scalar remainder loop.
    fn emit_vector_for(
        &mut self,
        asm: &mut AsmBuilder,
        var: &str,
        start: &Expr,
        end: &Expr,
        scalar_body: &[Stmt],
        plan: VectorPlan,
    ) -> Result<()> {
        let lanes = plan.lanes;
        let main_label = self.fresh_label("vloop");
        let main_done = self.fresh_label("vloop_done");
        let peel_label = self.fresh_label("vpeel");
        let peel_done = self.fresh_label("vpeel_done");
        let rem_label = self.fresh_label("vrem");
        let rem_done = self.fresh_label("vrem_done");

        // var = start
        self.emit_assign(asm, &LValue::Var(var.to_string()), start)?;
        // bound in a stack slot (re-used by every sub-loop).
        let bound_slot = self.alloc_stack_slot();
        let bound = Operand::Mem(MemRef::base_disp(Reg::FP, bound_slot));
        let v = self.eval_int(asm, end, 0)?;
        asm.push(Inst::mov(bound, Operand::reg(v)));

        let var_loc = self.loc(var)?;
        let var_operand = Self::int_operand_of_loc(var_loc);

        // Alignment peel (AVX only): run scalar iterations until the index is
        // a multiple of the vector width.
        if matches!(self.options.vectorize, Vectorize::Avx) {
            asm.label(peel_label.clone());
            asm.push(Inst::Cmp {
                lhs: var_operand,
                rhs: bound,
            });
            asm.push_branch(janus_ir::Cond::Ge, peel_done.clone());
            let r = self.eval_int(asm, &Expr::Var(var.to_string()), 0)?;
            asm.push(Inst::alu(
                AluOp::And,
                Operand::reg(r),
                Operand::imm(i64::from(lanes) - 1),
            ));
            asm.push(Inst::Test {
                lhs: Operand::reg(r),
                rhs: Operand::reg(r),
            });
            asm.push_branch(janus_ir::Cond::Eq, peel_done.clone());
            self.break_labels.push(peel_done.clone());
            self.emit_block(asm, scalar_body)?;
            self.break_labels.pop();
            asm.push(Inst::Alu {
                op: AluOp::Add,
                dst: var_operand,
                src: Operand::imm(1),
            });
            asm.push_jmp(peel_label);
            asm.label(peel_done);
        }

        // Main packed loop: while var <= bound - lanes.
        let limit_slot = self.alloc_stack_slot();
        let limit = Operand::Mem(MemRef::base_disp(Reg::FP, limit_slot));
        let r = self.eval_int(asm, end, 0)?;
        asm.push(Inst::alu(
            AluOp::Sub,
            Operand::reg(r),
            Operand::imm(i64::from(lanes) - 1),
        ));
        asm.push(Inst::mov(limit, Operand::reg(r)));

        asm.label(main_label.clone());
        asm.push(Inst::Cmp {
            lhs: var_operand,
            rhs: limit,
        });
        asm.push_branch(janus_ir::Cond::Ge, main_done.clone());
        // Body: evaluate the packed expression into V10 and store it.
        let idx_reg = match var_loc {
            Loc::Gpr(r) => r,
            _ => {
                let r = INT_SCRATCH[0];
                asm.push(Inst::mov(Operand::reg(r), var_operand));
                r
            }
        };
        let result = self.eval_vector(asm, &plan.value, idx_reg, lanes, 0)?;
        let dst_mem = match &plan.dst {
            VecTarget::Global(array) => {
                let g = self.global(array)?;
                MemRef {
                    base: None,
                    index: Some(idx_reg),
                    scale: 8,
                    disp: g.addr as i64,
                }
            }
            VecTarget::Ptr(ptr) => self.ptr_ref(asm, ptr, &Expr::Var(var.to_string()), 1)?,
        };
        asm.push(Inst::VMov {
            dst: Operand::mem(dst_mem),
            src: Operand::reg(result),
            lanes,
        });
        asm.push(Inst::Alu {
            op: AluOp::Add,
            dst: var_operand,
            src: Operand::imm(i64::from(lanes)),
        });
        asm.push_jmp(main_label);
        asm.label(main_done);

        // Scalar remainder loop.
        asm.label(rem_label.clone());
        asm.push(Inst::Cmp {
            lhs: var_operand,
            rhs: bound,
        });
        asm.push_branch(janus_ir::Cond::Ge, rem_done.clone());
        self.break_labels.push(rem_done.clone());
        self.emit_block(asm, scalar_body)?;
        self.break_labels.pop();
        asm.push(Inst::Alu {
            op: AluOp::Add,
            dst: var_operand,
            src: Operand::imm(1),
        });
        asm.push_jmp(rem_label);
        asm.label(rem_done);
        Ok(())
    }

    /// Evaluates a vectorisable expression over `lanes` consecutive elements
    /// starting at index `idx_reg` into a vector scratch register.
    fn eval_vector(
        &mut self,
        asm: &mut AsmBuilder,
        expr: &Expr,
        idx_reg: Reg,
        lanes: u8,
        depth: usize,
    ) -> Result<Reg> {
        if depth + 10 >= 16 {
            return Err(CompileError::ExpressionTooDeep {
                function: self.func.name.clone(),
            });
        }
        let dst = Reg::vreg(10 + depth as u8);
        match expr {
            Expr::ConstF(v) => {
                // Broadcast through memory: push the constant `lanes` times.
                asm.push(Inst::mov(
                    Operand::reg(INT_SCRATCH[3]),
                    Operand::imm(v.to_bits() as i64),
                ));
                for _ in 0..lanes {
                    asm.push(Inst::Push {
                        src: Operand::reg(INT_SCRATCH[3]),
                    });
                }
                asm.push(Inst::VMov {
                    dst: Operand::reg(dst),
                    src: Operand::mem(MemRef::base(Reg::SP)),
                    lanes,
                });
                asm.push(Inst::alu(
                    AluOp::Add,
                    Operand::reg(Reg::SP),
                    Operand::imm(i64::from(lanes) * 8),
                ));
            }
            Expr::Load { array, .. } => {
                let g = self.global(array)?;
                asm.push(Inst::VMov {
                    dst: Operand::reg(dst),
                    src: Operand::mem(MemRef {
                        base: None,
                        index: Some(idx_reg),
                        scale: 8,
                        disp: g.addr as i64,
                    }),
                    lanes,
                });
            }
            Expr::LoadPtr { ptr, .. } => {
                let base = match self.loc(ptr)? {
                    Loc::Gpr(r) => r,
                    _ => {
                        return Err(CompileError::TypeMismatch {
                            context: format!("pointer `{ptr}` must be register resident"),
                        })
                    }
                };
                asm.push(Inst::VMov {
                    dst: Operand::reg(dst),
                    src: Operand::mem(MemRef::base_index(base, idx_reg, 8)),
                    lanes,
                });
            }
            Expr::Binary { op, lhs, rhs } => {
                self.eval_vector(asm, lhs, idx_reg, lanes, depth)?;
                let rhs_reg = self.eval_vector(asm, rhs, idx_reg, lanes, depth + 1)?;
                let fop = float_binop(*op, &self.func.name)?;
                asm.push(Inst::Vec {
                    op: fop,
                    dst,
                    src: Operand::reg(rhs_reg),
                    lanes,
                });
            }
            _ => {
                return Err(CompileError::TypeMismatch {
                    context: "expression is not vectorisable".to_string(),
                })
            }
        }
        Ok(dst)
    }

    fn emit_while(&mut self, asm: &mut AsmBuilder, cond: &Cond, body: &[Stmt]) -> Result<()> {
        let head = self.fresh_label("while");
        let done = self.fresh_label("while_done");
        asm.label(head.clone());
        self.emit_cond_branch_false(asm, cond, &done)?;
        self.break_labels.push(done.clone());
        self.emit_block(asm, body)?;
        self.break_labels.pop();
        asm.push_jmp(head);
        asm.label(done);
        Ok(())
    }

    fn emit_if(
        &mut self,
        asm: &mut AsmBuilder,
        cond: &Cond,
        then: &[Stmt],
        els: &[Stmt],
    ) -> Result<()> {
        let else_label = self.fresh_label("else");
        let end_label = self.fresh_label("endif");
        self.emit_cond_branch_false(asm, cond, &else_label)?;
        self.emit_block(asm, then)?;
        asm.push_jmp(end_label.clone());
        asm.label(else_label);
        self.emit_block(asm, els)?;
        asm.label(end_label);
        Ok(())
    }

    fn emit_call(
        &mut self,
        asm: &mut AsmBuilder,
        name: &str,
        args: &[Expr],
        ret: Option<&LValue>,
        external: bool,
    ) -> Result<()> {
        if !external && self.program.function(name).is_none() {
            return Err(CompileError::UndefinedFunction {
                name: name.to_string(),
            });
        }
        // Evaluate arguments and stage them on the stack, then pop into the
        // argument registers (this avoids clobbering scratch registers while
        // later arguments are evaluated).
        let mut classes = Vec::with_capacity(args.len());
        for arg in args {
            let ty = self.expr_type(arg)?;
            if ty.is_float() {
                let r = self.eval_float(asm, arg, 0)?;
                asm.push(Inst::alu(
                    AluOp::Sub,
                    Operand::reg(Reg::SP),
                    Operand::imm(8),
                ));
                asm.push(Inst::FMov {
                    dst: Operand::mem(MemRef::base(Reg::SP)),
                    src: Operand::reg(r),
                });
            } else {
                let r = self.eval_int(asm, arg, 0)?;
                asm.push(Inst::Push {
                    src: Operand::reg(r),
                });
            }
            classes.push(ty.is_float());
        }
        let int_count = classes.iter().filter(|f| !**f).count();
        let flt_count = classes.len() - int_count;
        if int_count > 4 || flt_count > 4 {
            return Err(CompileError::TooManyArguments {
                function: name.to_string(),
            });
        }
        // Pop in reverse into the correct argument registers.
        let mut int_idx = int_count;
        let mut flt_idx = flt_count;
        for is_float in classes.iter().rev() {
            if *is_float {
                flt_idx -= 1;
                asm.push(Inst::FMov {
                    dst: Operand::reg(Reg::vreg(flt_idx as u8)),
                    src: Operand::mem(MemRef::base(Reg::SP)),
                });
                asm.push(Inst::alu(
                    AluOp::Add,
                    Operand::reg(Reg::SP),
                    Operand::imm(8),
                ));
            } else {
                int_idx -= 1;
                asm.push(Inst::Pop {
                    dst: Operand::reg(Reg::gpr(int_idx as u8)),
                });
            }
        }
        if external {
            asm.push_call_ext(name.to_string());
        } else {
            asm.push_call(name.to_string());
        }
        if let Some(lv) = ret {
            // Results arrive in r0 (integer) or v0 (float).
            let is_float = match lv {
                LValue::Var(n) => self.var_type(n)?.is_float(),
                LValue::Store { array, .. } => self.global(array)?.ty.is_float(),
                LValue::StorePtr { .. } => true,
            };
            if is_float {
                self.store_float_result(asm, lv, Reg::V0)?;
            } else {
                self.store_int_result(asm, lv, Reg::R0)?;
            }
        }
        Ok(())
    }

    fn store_int_result(&mut self, asm: &mut AsmBuilder, lv: &LValue, src: Reg) -> Result<()> {
        match lv {
            LValue::Var(n) => match self.loc(n)? {
                Loc::Gpr(r) => {
                    asm.push(Inst::mov(Operand::reg(r), Operand::reg(src)));
                }
                Loc::Stack(off) => {
                    asm.push(Inst::mov(
                        Operand::mem(MemRef::base_disp(Reg::FP, off)),
                        Operand::reg(src),
                    ));
                }
                Loc::VReg(r) => {
                    asm.push(Inst::CvtIntToFloat {
                        dst: r,
                        src: Operand::reg(src),
                    });
                }
            },
            LValue::Store { array, index } => {
                let g = self.global(array)?;
                let index = index.clone();
                let mem = self.array_ref(asm, g, &index, 1)?;
                asm.push(Inst::mov(Operand::mem(mem), Operand::reg(src)));
            }
            LValue::StorePtr { ptr, index } => {
                let ptr = ptr.clone();
                let index = index.clone();
                let mem = self.ptr_ref(asm, &ptr, &index, 1)?;
                asm.push(Inst::mov(Operand::mem(mem), Operand::reg(src)));
            }
        }
        Ok(())
    }

    fn store_float_result(&mut self, asm: &mut AsmBuilder, lv: &LValue, src: Reg) -> Result<()> {
        match lv {
            LValue::Var(n) => match self.loc(n)? {
                Loc::VReg(r) => {
                    asm.push(Inst::FMov {
                        dst: Operand::reg(r),
                        src: Operand::reg(src),
                    });
                }
                Loc::Stack(off) => {
                    asm.push(Inst::FMov {
                        dst: Operand::mem(MemRef::base_disp(Reg::FP, off)),
                        src: Operand::reg(src),
                    });
                }
                Loc::Gpr(r) => {
                    asm.push(Inst::CvtFloatToInt {
                        dst: r,
                        src: Operand::reg(src),
                    });
                }
            },
            LValue::Store { array, index } => {
                let g = self.global(array)?;
                let index = index.clone();
                let mem = self.array_ref(asm, g, &index, 0)?;
                asm.push(Inst::FMov {
                    dst: Operand::mem(mem),
                    src: Operand::reg(src),
                });
            }
            LValue::StorePtr { ptr, index } => {
                let ptr = ptr.clone();
                let index = index.clone();
                let mem = self.ptr_ref(asm, &ptr, &index, 0)?;
                asm.push(Inst::FMov {
                    dst: Operand::mem(mem),
                    src: Operand::reg(src),
                });
            }
        }
        Ok(())
    }

    fn emit_call_indirect(
        &mut self,
        asm: &mut AsmBuilder,
        table: &str,
        index: &Expr,
    ) -> Result<()> {
        let g = self.global(table)?;
        let mem = self.array_ref(asm, g, index, 0)?;
        asm.push(Inst::mov(Operand::reg(INT_SCRATCH[2]), Operand::mem(mem)));
        asm.push(Inst::CallInd {
            target: Operand::reg(INT_SCRATCH[2]),
        });
        Ok(())
    }

    fn emit_return(&mut self, asm: &mut AsmBuilder, value: Option<&Expr>) -> Result<()> {
        if let Some(v) = value {
            if self.expr_type(v)?.is_float() {
                let r = self.eval_float(asm, v, 0)?;
                asm.push(Inst::FMov {
                    dst: Operand::reg(Reg::V0),
                    src: Operand::reg(r),
                });
            } else {
                let r = self.eval_int(asm, v, 0)?;
                asm.push(Inst::mov(Operand::reg(Reg::R0), Operand::reg(r)));
            }
        }
        asm.push_jmp(self.epilogue_label.clone());
        Ok(())
    }

    fn emit_print(&mut self, asm: &mut AsmBuilder, value: &Expr) -> Result<()> {
        if self.expr_type(value)?.is_float() {
            let r = self.eval_float(asm, value, 0)?;
            asm.push(Inst::FMov {
                dst: Operand::reg(Reg::V0),
                src: Operand::reg(r),
            });
            asm.push(Inst::Syscall {
                num: janus_ir::SyscallNum::WriteFloat.as_u32(),
            });
        } else {
            let r = self.eval_int(asm, value, 0)?;
            asm.push(Inst::mov(Operand::reg(Reg::R1), Operand::reg(r)));
            asm.push(Inst::Syscall {
                num: janus_ir::SyscallNum::WriteInt.as_u32(),
            });
        }
        Ok(())
    }
}

/// A recognised vectorisable loop body.
#[derive(Debug, Clone)]
struct VectorPlan {
    dst: VecTarget,
    value: Expr,
    lanes: u8,
}

#[derive(Debug, Clone)]
enum VecTarget {
    Global(String),
    Ptr(String),
}

/// Folds integer expressions made only of constants, as any optimising
/// compiler would.
fn const_eval_int(expr: &Expr) -> Option<i64> {
    match expr {
        Expr::ConstI(v) => Some(*v),
        Expr::Binary { op, lhs, rhs } => {
            let a = const_eval_int(lhs)?;
            let b = const_eval_int(rhs)?;
            Some(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div if b != 0 => a.wrapping_div(b),
                BinOp::Rem if b != 0 => a.wrapping_rem(b),
                BinOp::And => a & b,
                BinOp::Or => a | b,
                BinOp::Xor => a ^ b,
                BinOp::Shl => a.wrapping_shl(b as u32),
                BinOp::Shr => ((a as u64) >> (b as u32 & 63)) as i64,
                _ => return None,
            })
        }
        _ => None,
    }
}

fn int_binop(op: BinOp, function: &str) -> Result<AluOp> {
    Ok(match op {
        BinOp::Add => AluOp::Add,
        BinOp::Sub => AluOp::Sub,
        BinOp::Mul => AluOp::Mul,
        BinOp::Div => AluOp::Div,
        BinOp::Rem => AluOp::Rem,
        BinOp::And => AluOp::And,
        BinOp::Or => AluOp::Or,
        BinOp::Xor => AluOp::Xor,
        BinOp::Shl => AluOp::Shl,
        BinOp::Shr => AluOp::Shr,
        BinOp::Min | BinOp::Max => {
            return Err(CompileError::TypeMismatch {
                context: format!("min/max on integers in `{function}`"),
            })
        }
    })
}

fn float_binop(op: BinOp, function: &str) -> Result<FpuOp> {
    Ok(match op {
        BinOp::Add => FpuOp::Add,
        BinOp::Sub => FpuOp::Sub,
        BinOp::Mul => FpuOp::Mul,
        BinOp::Div => FpuOp::Div,
        BinOp::Min => FpuOp::Min,
        BinOp::Max => FpuOp::Max,
        _ => {
            return Err(CompileError::TypeMismatch {
                context: format!("integer-only operator on floats in `{function}`"),
            })
        }
    })
}

fn cmp_to_cond(op: CmpOp) -> janus_ir::Cond {
    match op {
        CmpOp::Eq => janus_ir::Cond::Eq,
        CmpOp::Ne => janus_ir::Cond::Ne,
        CmpOp::Lt => janus_ir::Cond::Lt,
        CmpOp::Le => janus_ir::Cond::Le,
        CmpOp::Gt => janus_ir::Cond::Gt,
        CmpOp::Ge => janus_ir::Cond::Ge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Function, LValue, Program, Stmt, Ty};
    use crate::options::{CompileOptions, OptLevel};
    use janus_vm::{Process, Vm};

    fn run(program: &Program, options: CompileOptions) -> Vm {
        let bin = Compiler::with_options(options).compile(program).unwrap();
        let mut vm = Vm::new(Process::load(&bin).unwrap());
        vm.run().unwrap();
        vm
    }

    fn sum_program(n: i64) -> Program {
        // s = 0; for i in 0..n { a[i] = i; s = s + a[i] }; print s
        Program::builder("sum")
            .global_i64("a", n as usize)
            .function(
                Function::new("main")
                    .local("i", Ty::I64)
                    .local("s", Ty::I64)
                    .body(vec![
                        Stmt::assign(LValue::var("s"), Expr::const_i(0)),
                        Stmt::simple_for(
                            "i",
                            Expr::const_i(0),
                            Expr::const_i(n),
                            vec![
                                Stmt::assign(LValue::store("a", Expr::var("i")), Expr::var("i")),
                                Stmt::assign(
                                    LValue::var("s"),
                                    Expr::add(Expr::var("s"), Expr::load("a", Expr::var("i"))),
                                ),
                            ],
                        ),
                        Stmt::print(Expr::var("s")),
                    ]),
            )
            .build()
    }

    #[test]
    fn sum_loop_computes_correctly_at_every_opt_level() {
        let expected = (0..100).sum::<i64>();
        for opt in [OptLevel::O0, OptLevel::O2, OptLevel::O3] {
            let vm = run(&sum_program(100), CompileOptions::opt(opt));
            assert_eq!(vm.output_ints(), &[expected], "opt level {opt:?}");
        }
    }

    #[test]
    fn unrolled_and_vectorised_binaries_produce_identical_results() {
        // b[i] = a[i] * 2.0 + 1.0, then print the sum of b.
        let n = 37i64; // deliberately not a multiple of the vector width
        let program = Program::builder("saxpy")
            .global(crate::ast::GlobalArray {
                name: "a".into(),
                ty: Ty::F64,
                len: n as usize,
                init: crate::ast::Init::Iota,
            })
            .global_f64("b", n as usize)
            .function(
                Function::new("main")
                    .local("i", Ty::I64)
                    .local("s", Ty::F64)
                    .body(vec![
                        Stmt::simple_for(
                            "i",
                            Expr::const_i(0),
                            Expr::const_i(n),
                            vec![Stmt::assign(
                                LValue::store("b", Expr::var("i")),
                                Expr::add(
                                    Expr::mul(Expr::load("a", Expr::var("i")), Expr::const_f(2.0)),
                                    Expr::const_f(1.0),
                                ),
                            )],
                        ),
                        Stmt::assign(LValue::var("s"), Expr::const_f(0.0)),
                        Stmt::simple_for(
                            "i",
                            Expr::const_i(0),
                            Expr::const_i(n),
                            vec![Stmt::assign(
                                LValue::var("s"),
                                Expr::add(Expr::var("s"), Expr::load("b", Expr::var("i"))),
                            )],
                        ),
                        Stmt::print(Expr::var("s")),
                    ]),
            )
            .build();
        let expected: f64 = (0..n).map(|i| i as f64 * 2.0 + 1.0).sum();
        for options in [
            CompileOptions::opt(OptLevel::O0),
            CompileOptions::gcc_o2(),
            CompileOptions::gcc_o3(),
            CompileOptions::gcc_o3_avx(),
            CompileOptions::icc_o3(),
        ] {
            let vm = run(&program, options);
            assert_eq!(vm.output_floats().len(), 1, "{}", options.describe());
            assert!(
                (vm.output_floats()[0] - expected).abs() < 1e-9,
                "{}: got {} want {expected}",
                options.describe(),
                vm.output_floats()[0]
            );
        }
    }

    #[test]
    fn function_calls_pass_arguments_and_return_values() {
        // fn addmul(x, y) -> x * y + 1 ; main prints addmul(6, 7)
        let program = Program::builder("call")
            .function(
                Function::new("addmul")
                    .param("x", Ty::I64)
                    .param("y", Ty::I64)
                    .body(vec![Stmt::Return(Some(Expr::add(
                        Expr::mul(Expr::var("x"), Expr::var("y")),
                        Expr::const_i(1),
                    )))]),
            )
            .function(Function::new("main").local("r", Ty::I64).body(vec![
                Stmt::Call {
                    name: "addmul".into(),
                    args: vec![Expr::const_i(6), Expr::const_i(7)],
                    ret: Some(LValue::var("r")),
                },
                Stmt::print(Expr::var("r")),
            ]))
            .build();
        let vm = run(&program, CompileOptions::gcc_o3());
        assert_eq!(vm.output_ints(), &[43]);
    }

    #[test]
    fn external_call_to_sqrt_via_plt() {
        let program = Program::builder("ext")
            .function(Function::new("main").local("x", Ty::F64).body(vec![
                Stmt::call_ext("sqrt", vec![Expr::const_f(81.0)], Some(LValue::var("x"))),
                Stmt::print(Expr::var("x")),
            ]))
            .build();
        let vm = run(&program, CompileOptions::gcc_o3());
        assert_eq!(vm.output_floats(), &[9.0]);
    }

    #[test]
    fn while_if_and_break_control_flow() {
        // Count multiples of 3 below 50, stopping at the first value >= 30.
        let program = Program::builder("cf")
            .function(
                Function::new("main")
                    .local("i", Ty::I64)
                    .local("count", Ty::I64)
                    .body(vec![
                        Stmt::assign(LValue::var("i"), Expr::const_i(0)),
                        Stmt::assign(LValue::var("count"), Expr::const_i(0)),
                        Stmt::While {
                            cond: crate::ast::Cond::new(
                                Expr::var("i"),
                                crate::ast::CmpOp::Lt,
                                Expr::const_i(50),
                            ),
                            body: vec![
                                Stmt::If {
                                    cond: crate::ast::Cond::new(
                                        Expr::var("i"),
                                        crate::ast::CmpOp::Ge,
                                        Expr::const_i(30),
                                    ),
                                    then: vec![Stmt::Break],
                                    els: vec![],
                                },
                                Stmt::If {
                                    cond: crate::ast::Cond::new(
                                        Expr::rem(Expr::var("i"), Expr::const_i(3)),
                                        crate::ast::CmpOp::Eq,
                                        Expr::const_i(0),
                                    ),
                                    then: vec![Stmt::assign(
                                        LValue::var("count"),
                                        Expr::add(Expr::var("count"), Expr::const_i(1)),
                                    )],
                                    els: vec![],
                                },
                                Stmt::assign(
                                    LValue::var("i"),
                                    Expr::add(Expr::var("i"), Expr::const_i(1)),
                                ),
                            ],
                        },
                        Stmt::print(Expr::var("count")),
                    ]),
            )
            .build();
        let vm = run(&program, CompileOptions::gcc_o3());
        // Multiples of 3 in [0, 30): 0,3,...,27 -> 10 values.
        assert_eq!(vm.output_ints(), &[10]);
    }

    #[test]
    fn pointer_parameters_index_like_compiled_c() {
        // kernel(dst, src, n): dst[i] = src[i] + 1.0
        let n = 16usize;
        let program = Program::builder("ptr")
            .global(crate::ast::GlobalArray {
                name: "src".into(),
                ty: Ty::F64,
                len: n,
                init: crate::ast::Init::Iota,
            })
            .global_f64("dst", n)
            .function(
                Function::new("kernel")
                    .param("d", Ty::Ptr)
                    .param("s", Ty::Ptr)
                    .param("n", Ty::I64)
                    .local("i", Ty::I64)
                    .body(vec![Stmt::simple_for(
                        "i",
                        Expr::const_i(0),
                        Expr::var("n"),
                        vec![Stmt::assign(
                            LValue::store_ptr("d", Expr::var("i")),
                            Expr::add(Expr::load_ptr("s", Expr::var("i")), Expr::const_f(1.0)),
                        )],
                    )]),
            )
            .function(Function::new("main").body(vec![
                Stmt::Call {
                    name: "kernel".into(),
                    args: vec![
                        Expr::addr_of("dst"),
                        Expr::addr_of("src"),
                        Expr::const_i(n as i64),
                    ],
                    ret: None,
                },
                Stmt::print(Expr::load("dst", Expr::const_i(5))),
            ]))
            .build();
        let vm = run(&program, CompileOptions::gcc_o3());
        assert_eq!(vm.output_floats(), &[6.0]);
    }

    #[test]
    fn indirect_calls_through_a_function_table() {
        let program = Program::builder("ind")
            .global_i64("table", 2)
            .global_i64("out", 1)
            .function(Function::new("write_one").body(vec![Stmt::assign(
                LValue::store("out", Expr::const_i(0)),
                Expr::const_i(1),
            )]))
            .function(Function::new("write_two").body(vec![Stmt::assign(
                LValue::store("out", Expr::const_i(0)),
                Expr::const_i(2),
            )]))
            .function(Function::new("main").local("i", Ty::I64).body(vec![
                Stmt::assign(
                    LValue::store("table", Expr::const_i(0)),
                    Expr::AddrOfFn("write_one".into()),
                ),
                Stmt::assign(
                    LValue::store("table", Expr::const_i(1)),
                    Expr::AddrOfFn("write_two".into()),
                ),
                Stmt::CallIndirect {
                    table: "table".into(),
                    index: Expr::const_i(1),
                },
                Stmt::print(Expr::load("out", Expr::const_i(0))),
            ]))
            .build();
        let vm = run(&program, CompileOptions::gcc_o3());
        assert_eq!(vm.output_ints(), &[2]);
    }

    #[test]
    fn undefined_names_are_reported() {
        let program = Program::builder("bad")
            .function(Function::new("main").body(vec![Stmt::print(Expr::var("missing"))]))
            .build();
        let err = Compiler::new().compile(&program).unwrap_err();
        assert!(matches!(err, CompileError::UndefinedVariable { .. }));

        let program = Program::builder("bad2")
            .function(Function::new("main").body(vec![Stmt::assign(
                LValue::store("nowhere", Expr::const_i(0)),
                Expr::const_i(1),
            )]))
            .build();
        let err = Compiler::new().compile(&program).unwrap_err();
        assert!(matches!(err, CompileError::UndefinedArray { .. }));
    }

    #[test]
    fn producer_string_records_the_configuration() {
        let bin = Compiler::with_options(CompileOptions::gcc_o3_avx())
            .compile(&sum_program(4))
            .unwrap();
        assert!(bin.producer().contains("-O3"));
        assert!(bin.producer().contains("-mavx"));
        assert!(bin.producer().contains("sum"));
    }

    #[test]
    fn o0_binaries_keep_locals_on_the_stack() {
        let o0 = Compiler::with_options(CompileOptions::opt(OptLevel::O0))
            .compile(&sum_program(8))
            .unwrap();
        let o3 = Compiler::with_options(CompileOptions::gcc_o3())
            .compile(&sum_program(8))
            .unwrap();
        let count_stack = |bin: &janus_ir::JBinary| {
            let stack_relative = |m: janus_ir::MemRef| matches!(m.base, Some(Reg::SP | Reg::FP));
            janus_ir::disassemble_range(
                bin.text_base(),
                bin.text(),
                bin.text_base(),
                bin.text_end(),
            )
            .unwrap()
            .iter()
            .filter(|d| {
                d.inst.mem_read().is_some_and(stack_relative)
                    || d.inst.mem_write().is_some_and(stack_relative)
            })
            .count()
        };
        assert!(
            count_stack(&o0) > count_stack(&o3),
            "O0 should touch the stack more often than O3"
        );
    }
}
