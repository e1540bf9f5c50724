//! Instructions, terminators, and profiling operations.
//!
//! The IR is a low-level untyped register machine over `i64` values,
//! comparable in granularity to Scale's low-level internal representation
//! that the paper counts "instructions" in (Table 1). Every instruction
//! except [`Inst::Prof`] is ordinary program code; [`Inst::Prof`] carries a
//! [`ProfOp`] inserted by a path-profiling instrumenter and manipulates the
//! implicit per-activation *path register* `r` and the per-function path
//! frequency table.

use crate::ids::{BlockId, FuncId, Reg, TableId};
use std::fmt;

/// Binary arithmetic, logic, and comparison operators.
///
/// Comparison operators produce `1` for true and `0` for false.
/// `Div`/`Rem` by zero produce `0` (the VM is total and deterministic).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division; `x / 0 == 0`.
    Div,
    /// Remainder; `x % 0 == 0`.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift by `rhs & 63`.
    Shl,
    /// Arithmetic right shift by `rhs & 63`.
    Shr,
    /// `1` if `lhs < rhs` else `0`.
    Lt,
    /// `1` if `lhs <= rhs` else `0`.
    Le,
    /// `1` if `lhs == rhs` else `0`.
    Eq,
    /// `1` if `lhs != rhs` else `0`.
    Ne,
    /// Minimum of the operands.
    Min,
    /// Maximum of the operands.
    Max,
}

impl BinOp {
    /// Evaluates the operator on two values, matching the VM semantics.
    pub fn eval(self, lhs: i64, rhs: i64) -> i64 {
        match self {
            BinOp::Add => lhs.wrapping_add(rhs),
            BinOp::Sub => lhs.wrapping_sub(rhs),
            BinOp::Mul => lhs.wrapping_mul(rhs),
            BinOp::Div => {
                if rhs == 0 {
                    0
                } else {
                    lhs.wrapping_div(rhs)
                }
            }
            BinOp::Rem => {
                if rhs == 0 {
                    0
                } else {
                    lhs.wrapping_rem(rhs)
                }
            }
            BinOp::And => lhs & rhs,
            BinOp::Or => lhs | rhs,
            BinOp::Xor => lhs ^ rhs,
            BinOp::Shl => lhs.wrapping_shl((rhs & 63) as u32),
            BinOp::Shr => lhs.wrapping_shr((rhs & 63) as u32),
            BinOp::Lt => i64::from(lhs < rhs),
            BinOp::Le => i64::from(lhs <= rhs),
            BinOp::Eq => i64::from(lhs == rhs),
            BinOp::Ne => i64::from(lhs != rhs),
            BinOp::Min => lhs.min(rhs),
            BinOp::Max => lhs.max(rhs),
        }
    }

    /// Returns the lowercase mnemonic the printer uses.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }

    /// Parses a mnemonic produced by [`BinOp::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "div" => BinOp::Div,
            "rem" => BinOp::Rem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "shr" => BinOp::Shr,
            "lt" => BinOp::Lt,
            "le" => BinOp::Le,
            "eq" => BinOp::Eq,
            "ne" => BinOp::Ne,
            "min" => BinOp::Min,
            "max" => BinOp::Max,
            _ => return None,
        })
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Wrapping arithmetic negation.
    Neg,
    /// Bitwise complement.
    Not,
}

impl UnOp {
    /// Evaluates the operator, matching the VM semantics.
    pub fn eval(self, v: i64) -> i64 {
        match self {
            UnOp::Neg => v.wrapping_neg(),
            UnOp::Not => !v,
        }
    }

    /// Returns the lowercase mnemonic the printer uses.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
        }
    }

    /// Parses a mnemonic produced by [`UnOp::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "neg" => UnOp::Neg,
            "not" => UnOp::Not,
            _ => return None,
        })
    }
}

/// A path-profiling runtime operation, inserted by an instrumenter.
///
/// Each operation manipulates the implicit per-activation path register
/// `r` and/or a counter table. These are exactly the instrumentation forms
/// the paper describes: `r=0`/`r=c` initialization and poisoning (§3.1,
/// §4.6), `r+=c` increments, and the three counting forms produced by
/// pushing and combining instrumentation (§3.1): `count[r]++`,
/// `count[r+c]++`, and `count[c]++`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProfOp {
    /// `r = value` — path register initialization or poisoning.
    SetR {
        /// Value assigned to the path register.
        value: i64,
    },
    /// `r += value` — path register increment.
    AddR {
        /// Value added to the path register.
        value: i64,
    },
    /// `count[r]++` — bump the counter indexed by the path register.
    CountR {
        /// Counter table to update.
        table: TableId,
    },
    /// `count[r + addend]++` — combined increment-and-count.
    CountRPlus {
        /// Counter table to update.
        table: TableId,
        /// Constant added to the path register to form the index.
        addend: i64,
    },
    /// `count[index]++` — constant-index count (fully combined; the path
    /// register is not read). This is the cheapest form and is what an
    /// *obvious path* (§3.2) degenerates to after pushing.
    CountConst {
        /// Counter table to update.
        table: TableId,
        /// Constant counter index.
        index: i64,
    },
    /// `if r < 0 { cold++ } else { count[r]++ }` — TPP-style counting with
    /// an explicit poison check (§3.2). The check adds one cost unit; PPP's
    /// free poisoning (§4.6) exists to eliminate it.
    CountRChecked {
        /// Counter table to update.
        table: TableId,
    },
    /// `if r < 0 { cold++ } else { count[r + addend]++ }` — checked
    /// combined increment-and-count.
    CountRPlusChecked {
        /// Counter table to update.
        table: TableId,
        /// Constant added to the path register to form the index.
        addend: i64,
    },
}

impl ProfOp {
    /// Returns the counter table this op updates, if it is a counting op.
    pub fn table(self) -> Option<TableId> {
        match self {
            ProfOp::SetR { .. } | ProfOp::AddR { .. } => None,
            ProfOp::CountR { table }
            | ProfOp::CountRPlus { table, .. }
            | ProfOp::CountConst { table, .. }
            | ProfOp::CountRChecked { table }
            | ProfOp::CountRPlusChecked { table, .. } => Some(table),
        }
    }

    /// Returns `true` if this op updates a counter table.
    pub fn is_count(self) -> bool {
        self.table().is_some()
    }

    /// Returns `true` if this op only touches the path register.
    pub fn is_register_only(self) -> bool {
        !self.is_count()
    }

    /// Returns `true` for the checked (poison-testing) counting forms.
    pub fn is_checked(self) -> bool {
        matches!(
            self,
            ProfOp::CountRChecked { .. } | ProfOp::CountRPlusChecked { .. }
        )
    }
}

impl fmt::Display for ProfOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ProfOp::SetR { value } => write!(f, "prof r = {value}"),
            ProfOp::AddR { value } => write!(f, "prof r += {value}"),
            ProfOp::CountR { table } => write!(f, "prof count {table}[r]"),
            ProfOp::CountRPlus { table, addend } => {
                write!(f, "prof count {table}[r + {addend}]")
            }
            ProfOp::CountConst { table, index } => {
                write!(f, "prof count {table}[{index}]")
            }
            ProfOp::CountRChecked { table } => write!(f, "prof countck {table}[r]"),
            ProfOp::CountRPlusChecked { table, addend } => {
                write!(f, "prof countck {table}[r + {addend}]")
            }
        }
    }
}

/// A non-terminator instruction.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// `dst = value`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        value: i64,
    },
    /// `dst = src`.
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = op src`.
    Unary {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: UnOp,
        /// Operand register.
        src: Reg,
    },
    /// `dst = lhs op rhs`.
    Binary {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// `dst = memory[addr % MEM_SIZE]` — load from the VM's global memory.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address register (wrapped into the memory size).
        addr: Reg,
    },
    /// `memory[addr % MEM_SIZE] = src` — store to the VM's global memory.
    Store {
        /// Address register (wrapped into the memory size).
        addr: Reg,
        /// Value register.
        src: Reg,
    },
    /// `dst = uniform random in [0, max(bound, 1))`.
    ///
    /// This is the *synthetic input intrinsic*: it stands in for reading
    /// program input (SPEC ref inputs in the paper). The VM draws from a
    /// deterministic seeded stream, so runs are reproducible and the same
    /// seed yields bit-identical control flow across instrumented and
    /// uninstrumented executions.
    Rand {
        /// Destination register.
        dst: Reg,
        /// Exclusive upper bound register (values `< 1` behave as `1`).
        bound: Reg,
    },
    /// Call `callee(args...)`, optionally receiving the return value.
    ///
    /// Per Ball–Larus path semantics (§3.1), a call *defers* the caller's
    /// current path: the callee's blocks form their own paths and the
    /// caller's path register is per-activation, so it resumes unchanged
    /// after the call returns.
    Call {
        /// Register receiving the return value, if any.
        dst: Option<Reg>,
        /// Callee.
        callee: FuncId,
        /// Argument registers, copied into the callee's `r0..`.
        args: Vec<Reg>,
    },
    /// Fold `src` into the VM's output checksum.
    ///
    /// Used as an observable effect so that program results can be compared
    /// between uninstrumented, instrumented, and optimized versions.
    Emit {
        /// Value folded into the checksum.
        src: Reg,
    },
    /// A profiling runtime operation (see [`ProfOp`]).
    Prof(ProfOp),
}

impl Inst {
    /// Returns the register this instruction writes, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Unary { dst, .. }
            | Inst::Binary { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Rand { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } | Inst::Emit { .. } | Inst::Prof(_) => None,
        }
    }

    /// Appends the registers this instruction reads to `out`.
    pub fn uses(&self, out: &mut Vec<Reg>) {
        match self {
            Inst::Const { .. } | Inst::Prof(_) => {}
            Inst::Copy { src, .. } | Inst::Unary { src, .. } | Inst::Emit { src } => out.push(*src),
            Inst::Binary { lhs, rhs, .. } => {
                out.push(*lhs);
                out.push(*rhs);
            }
            Inst::Load { addr, .. } => out.push(*addr),
            Inst::Store { addr, src } => {
                out.push(*addr);
                out.push(*src);
            }
            Inst::Rand { bound, .. } => out.push(*bound),
            Inst::Call { args, .. } => out.extend_from_slice(args),
        }
    }

    /// Returns `true` if this is profiling instrumentation rather than
    /// original program code.
    pub fn is_prof(&self) -> bool {
        matches!(self, Inst::Prof(_))
    }
}

/// A block terminator.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Terminator {
    /// Unconditional jump.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Two-way conditional branch: `cond != 0` takes `then_target`.
    Branch {
        /// Condition register.
        cond: Reg,
        /// Successor 0, taken when the condition is non-zero.
        then_target: BlockId,
        /// Successor 1, taken when the condition is zero.
        else_target: BlockId,
    },
    /// Multi-way branch: value `v` in `0..targets.len()` selects
    /// `targets[v]`; anything else selects `default`.
    Switch {
        /// Discriminant register.
        disc: Reg,
        /// In-range targets.
        targets: Vec<BlockId>,
        /// Out-of-range target (successor index `targets.len()`).
        default: BlockId,
    },
    /// Return from the function.
    Return {
        /// Returned value, or `0` if absent.
        value: Option<Reg>,
    },
}

impl Terminator {
    /// Returns the successor blocks in successor-index order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump { target } => vec![*target],
            Terminator::Branch {
                then_target,
                else_target,
                ..
            } => vec![*then_target, *else_target],
            Terminator::Switch {
                targets, default, ..
            } => {
                let mut v = targets.clone();
                v.push(*default);
                v
            }
            Terminator::Return { .. } => Vec::new(),
        }
    }

    /// Returns the number of successors without allocating.
    pub fn successor_count(&self) -> usize {
        match self {
            Terminator::Jump { .. } => 1,
            Terminator::Branch { .. } => 2,
            Terminator::Switch { targets, .. } => targets.len() + 1,
            Terminator::Return { .. } => 0,
        }
    }

    /// Returns the `i`-th successor, if it exists.
    pub fn successor(&self, i: usize) -> Option<BlockId> {
        match self {
            Terminator::Jump { target } => (i == 0).then_some(*target),
            Terminator::Branch {
                then_target,
                else_target,
                ..
            } => match i {
                0 => Some(*then_target),
                1 => Some(*else_target),
                _ => None,
            },
            Terminator::Switch {
                targets, default, ..
            } => {
                if i < targets.len() {
                    Some(targets[i])
                } else if i == targets.len() {
                    Some(*default)
                } else {
                    None
                }
            }
            Terminator::Return { .. } => None,
        }
    }

    /// Replaces the `i`-th successor.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for this terminator.
    pub fn set_successor(&mut self, i: usize, new: BlockId) {
        match self {
            Terminator::Jump { target } => {
                assert_eq!(i, 0, "jump has a single successor");
                *target = new;
            }
            Terminator::Branch {
                then_target,
                else_target,
                ..
            } => match i {
                0 => *then_target = new,
                1 => *else_target = new,
                _ => panic!("branch successor index {i} out of range"),
            },
            Terminator::Switch {
                targets, default, ..
            } => {
                if i < targets.len() {
                    targets[i] = new;
                } else if i == targets.len() {
                    *default = new;
                } else {
                    panic!("switch successor index {i} out of range");
                }
            }
            Terminator::Return { .. } => panic!("return has no successors"),
        }
    }

    /// Returns `true` for [`Terminator::Return`].
    pub fn is_return(&self) -> bool {
        matches!(self, Terminator::Return { .. })
    }

    /// Returns the register this terminator reads, if any.
    pub fn use_reg(&self) -> Option<Reg> {
        match self {
            Terminator::Jump { .. } => None,
            Terminator::Branch { cond, .. } => Some(*cond),
            Terminator::Switch { disc, .. } => Some(*disc),
            Terminator::Return { value } => *value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_arithmetic() {
        assert_eq!(BinOp::Add.eval(2, 3), 5);
        assert_eq!(BinOp::Sub.eval(2, 3), -1);
        assert_eq!(BinOp::Mul.eval(4, -3), -12);
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
    }

    #[test]
    fn binop_div_rem_by_zero_is_zero() {
        assert_eq!(BinOp::Div.eval(5, 0), 0);
        assert_eq!(BinOp::Rem.eval(5, 0), 0);
        assert_eq!(BinOp::Div.eval(i64::MIN, -1), i64::MIN.wrapping_div(-1));
    }

    #[test]
    fn binop_comparisons_are_zero_one() {
        assert_eq!(BinOp::Lt.eval(1, 2), 1);
        assert_eq!(BinOp::Lt.eval(2, 1), 0);
        assert_eq!(BinOp::Eq.eval(7, 7), 1);
        assert_eq!(BinOp::Ne.eval(7, 7), 0);
        assert_eq!(BinOp::Le.eval(3, 3), 1);
    }

    #[test]
    fn binop_shifts_mask_amount() {
        assert_eq!(BinOp::Shl.eval(1, 64), 1);
        assert_eq!(BinOp::Shl.eval(1, 3), 8);
        assert_eq!(BinOp::Shr.eval(-8, 1), -4);
    }

    #[test]
    fn mnemonic_roundtrip() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Min,
            BinOp::Max,
        ] {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(BinOp::from_mnemonic("bogus"), None);
        for op in [UnOp::Neg, UnOp::Not] {
            assert_eq!(UnOp::from_mnemonic(op.mnemonic()), Some(op));
        }
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Neg.eval(5), -5);
        assert_eq!(UnOp::Not.eval(0), -1);
        assert_eq!(UnOp::Neg.eval(i64::MIN), i64::MIN);
    }

    #[test]
    fn prof_op_classification() {
        let t = TableId::new(0);
        assert!(ProfOp::SetR { value: 0 }.is_register_only());
        assert!(ProfOp::AddR { value: 3 }.is_register_only());
        assert!(ProfOp::CountR { table: t }.is_count());
        assert_eq!(
            ProfOp::CountRPlus {
                table: t,
                addend: 2
            }
            .table(),
            Some(t)
        );
        assert_eq!(ProfOp::SetR { value: 4 }.table(), None);
    }

    #[test]
    fn prof_op_display() {
        let t = TableId::new(1);
        assert_eq!(ProfOp::SetR { value: 0 }.to_string(), "prof r = 0");
        assert_eq!(ProfOp::AddR { value: -2 }.to_string(), "prof r += -2");
        assert_eq!(ProfOp::CountR { table: t }.to_string(), "prof count t1[r]");
        assert_eq!(
            ProfOp::CountRPlus {
                table: t,
                addend: 2
            }
            .to_string(),
            "prof count t1[r + 2]"
        );
        assert_eq!(
            ProfOp::CountConst { table: t, index: 5 }.to_string(),
            "prof count t1[5]"
        );
    }

    #[test]
    fn inst_def_use() {
        let mut uses = Vec::new();
        let i = Inst::Binary {
            dst: Reg(3),
            op: BinOp::Add,
            lhs: Reg(1),
            rhs: Reg(2),
        };
        assert_eq!(i.def(), Some(Reg(3)));
        i.uses(&mut uses);
        assert_eq!(uses, vec![Reg(1), Reg(2)]);

        uses.clear();
        let c = Inst::Call {
            dst: None,
            callee: FuncId(0),
            args: vec![Reg(5), Reg(6)],
        };
        assert_eq!(c.def(), None);
        c.uses(&mut uses);
        assert_eq!(uses, vec![Reg(5), Reg(6)]);

        assert!(Inst::Prof(ProfOp::SetR { value: 0 }).is_prof());
        assert!(!c.is_prof());
    }

    #[test]
    fn terminator_successors() {
        let b = Terminator::Branch {
            cond: Reg(0),
            then_target: BlockId(1),
            else_target: BlockId(2),
        };
        assert_eq!(b.successors(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(b.successor(0), Some(BlockId(1)));
        assert_eq!(b.successor(2), None);
        assert_eq!(b.successor_count(), 2);
        assert_eq!(b.use_reg(), Some(Reg(0)));

        let s = Terminator::Switch {
            disc: Reg(1),
            targets: vec![BlockId(3), BlockId(4)],
            default: BlockId(5),
        };
        assert_eq!(s.successor_count(), 3);
        assert_eq!(s.successor(2), Some(BlockId(5)));
        assert_eq!(s.successors(), vec![BlockId(3), BlockId(4), BlockId(5)]);

        let r = Terminator::Return { value: None };
        assert!(r.is_return());
        assert_eq!(r.successor_count(), 0);
        assert_eq!(r.use_reg(), None);
    }

    #[test]
    fn terminator_set_successor() {
        let mut t = Terminator::Branch {
            cond: Reg(0),
            then_target: BlockId(1),
            else_target: BlockId(2),
        };
        t.set_successor(1, BlockId(9));
        assert_eq!(t.successor(1), Some(BlockId(9)));

        let mut s = Terminator::Switch {
            disc: Reg(0),
            targets: vec![BlockId(1)],
            default: BlockId(2),
        };
        s.set_successor(1, BlockId(7));
        assert_eq!(s.successor(1), Some(BlockId(7)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_successor_out_of_range_panics() {
        let mut t = Terminator::Branch {
            cond: Reg(0),
            then_target: BlockId(1),
            else_target: BlockId(2),
        };
        t.set_successor(2, BlockId(0));
    }
}
