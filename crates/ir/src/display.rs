//! Textual printing of modules and functions.
//!
//! The format is for people to read; nothing parses it back. Example:
//!
//! ```text
//! func @abs(params=1, regs=3) {
//! b0:
//!   r1 = const 0
//!   r2 = lt r0, r1
//!   br r2, b1, b2
//! b1:
//!   r2 = neg r0
//!   ret r2
//! b2:
//!   ret r0
//! }
//! ```

use crate::function::Function;
use crate::inst::{Inst, Terminator};
use crate::module::{Module, TableKind};
use std::fmt::{self, Write as _};

/// Renders a whole module, including table declarations.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    for (i, t) in m.tables.iter().enumerate() {
        let fname = &m.function(t.func).name;
        match t.kind {
            TableKind::Array { size } => {
                let _ = writeln!(
                    out,
                    "table t{i} func=@{fname} array[{size}] hot={}",
                    t.hot_paths
                );
            }
            TableKind::Hash { slots, max_probes } => {
                let _ = writeln!(
                    out,
                    "table t{i} func=@{fname} hash[{slots}x{max_probes}] hot={}",
                    t.hot_paths
                );
            }
        }
    }
    for (i, f) in m.functions.iter().enumerate() {
        if i > 0 || !m.tables.is_empty() {
            out.push('\n');
        }
        print_function_into(&mut out, f, Some(m));
    }
    out
}

/// Renders one function. Callee names resolve through `module` when given;
/// otherwise calls print as `@f{index}`.
pub fn print_function(f: &Function, module: Option<&Module>) -> String {
    let mut out = String::new();
    print_function_into(&mut out, f, module);
    out
}

fn callee_name(module: Option<&Module>, id: crate::ids::FuncId) -> String {
    match module {
        Some(m) if id.index() < m.functions.len() => format!("@{}", m.function(id).name),
        _ => format!("@f{}", id.0),
    }
}

fn print_function_into(out: &mut String, f: &Function, module: Option<&Module>) {
    let _ = writeln!(
        out,
        "func @{}(params={}, regs={}) {{",
        f.name, f.param_count, f.reg_count
    );
    for (id, b) in f.iter_blocks() {
        let entry_mark = if id == f.entry && id.index() != 0 {
            "  ; entry"
        } else {
            ""
        };
        let _ = writeln!(out, "{id}:{entry_mark}");
        for inst in &b.insts {
            let _ = writeln!(out, "  {}", InstDisplay { inst, module });
        }
        let _ = writeln!(out, "  {}", TermDisplay { term: &b.term });
    }
    out.push_str("}\n");
}

struct InstDisplay<'a> {
    inst: &'a Inst,
    module: Option<&'a Module>,
}

impl fmt::Display for InstDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inst {
            Inst::Const { dst, value } => write!(f, "{dst} = const {value}"),
            Inst::Copy { dst, src } => write!(f, "{dst} = copy {src}"),
            Inst::Unary { dst, op, src } => write!(f, "{dst} = {} {src}", op.mnemonic()),
            Inst::Binary { dst, op, lhs, rhs } => {
                write!(f, "{dst} = {} {lhs}, {rhs}", op.mnemonic())
            }
            Inst::Load { dst, addr } => write!(f, "{dst} = load {addr}"),
            Inst::Store { addr, src } => write!(f, "store {addr}, {src}"),
            Inst::Rand { dst, bound } => write!(f, "{dst} = rand {bound}"),
            Inst::Call { dst, callee, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = ")?;
                }
                write!(f, "call {}(", callee_name(self.module, *callee))?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::Emit { src } => write!(f, "emit {src}"),
            Inst::Prof(op) => write!(f, "{op}"),
        }
    }
}

struct TermDisplay<'a> {
    term: &'a Terminator,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.term {
            Terminator::Jump { target } => write!(f, "jmp {target}"),
            Terminator::Branch {
                cond,
                then_target,
                else_target,
            } => write!(f, "br {cond}, {then_target}, {else_target}"),
            Terminator::Switch {
                disc,
                targets,
                default,
            } => {
                write!(f, "switch {disc}, [")?;
                for (i, t) in targets.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "], {default}")
            }
            Terminator::Return { value } => match value {
                Some(v) => write!(f, "ret {v}"),
                None => write!(f, "ret"),
            },
        }
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&print_module(self))
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&print_function(self, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionBuilder;
    use crate::ids::{FuncId, Reg, TableId};
    use crate::inst::{BinOp, ProfOp, UnOp};
    use crate::module::{TableDecl, TableKind};

    fn sample_module() -> Module {
        let mut m = Module::new();
        let mut g = FunctionBuilder::new("g", 1);
        let p = g.param(0);
        g.ret(Some(p));
        let gid = m.add_function(g.finish());

        let mut b = FunctionBuilder::new("main", 0);
        let c = b.constant(5);
        let n = b.unary(UnOp::Neg, c);
        let s = b.binary(BinOp::Add, c, n);
        let r = b.rand(c);
        let v = b.call(gid, vec![s]);
        b.call_void(gid, vec![r]);
        b.store(c, v);
        let l = b.load(c);
        b.emit(l);
        let (t1, t2) = (b.new_block(), b.new_block());
        b.branch(l, t1, t2);
        b.switch_to(t1);
        b.switch(l, vec![t2], t2);
        b.switch_to(t2);
        b.ret(None);
        m.add_function(b.finish());

        m.add_table(TableDecl {
            func: gid,
            kind: TableKind::Array { size: 12 },
            hot_paths: 4,
        });
        m.add_table(TableDecl {
            func: gid,
            kind: TableKind::Hash {
                slots: 701,
                max_probes: 3,
            },
            hot_paths: 5000,
        });
        m
    }

    #[test]
    fn module_prints_tables_and_functions() {
        let text = print_module(&sample_module());
        assert!(text.contains("table t0 func=@g array[12] hot=4"));
        assert!(text.contains("table t1 func=@g hash[701x3] hot=5000"));
        assert!(text.contains("func @g(params=1, regs=1) {"));
        assert!(text.contains("r4 = call @g(r2)"));
        assert!(text.contains("call @g(r3)"));
        assert!(text.contains("switch r5, [b2], b2"));
        assert!(text.contains("br r5, b1, b2"));
    }

    #[test]
    fn prof_ops_print() {
        let mut m = sample_module();
        let t = TableId(0);
        m.function_mut(FuncId(0)).blocks[0]
            .insts
            .push(Inst::Prof(ProfOp::CountRPlus {
                table: t,
                addend: 3,
            }));
        let text = print_module(&m);
        assert!(text.contains("prof count t0[r + 3]"));
    }

    #[test]
    fn standalone_function_prints_index_callees() {
        let m = sample_module();
        let text = print_function(m.function(FuncId(1)), None);
        assert!(text.contains("call @f0(r2)"));
    }

    #[test]
    fn display_impls_delegate() {
        let m = sample_module();
        assert_eq!(m.to_string(), print_module(&m));
        let f = m.function(FuncId(0));
        assert_eq!(f.to_string(), print_function(f, None));
    }

    #[test]
    fn ret_with_and_without_value() {
        let m = sample_module();
        let text = print_module(&m);
        assert!(text.contains("  ret r0\n"));
        assert!(text.contains("  ret\n"));
    }

    #[test]
    fn reg_display_in_store() {
        let m = sample_module();
        let text = print_module(&m);
        assert!(text.contains("store r0, r4"));
        let _ = Reg(0); // silence unused import in some cfgs
    }
}
