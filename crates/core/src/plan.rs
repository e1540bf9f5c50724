//! Symbolic instrumentation op lists and their combining algebra (§3.1).
//!
//! Instrumentation is planned per DAG edge as a list of [`PlanOp`]s and
//! normalized by symbolic execution over the path register: consecutive
//! `r = a; r += b` fold to `r = a+b`, `r += a; count[r]` folds to
//! `count[r + a]`, and `r = a; count[r]` folds to the constant-index
//! `count[a]` — exactly the paper's combining rules.
//!
//! Normalization also performs a small liveness argument the paper's
//! pushing relies on: every counted path executes **exactly one** counting
//! op, so the path register is dead immediately after a count unless a
//! later op in the same list re-initializes it (which happens on back
//! edges, where the old path's count and the new path's initialization
//! share one physical edge).

use ppp_ir::{ProfOp, TableId};

/// One symbolic instrumentation operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanOp {
    /// `r = c` (initialization or poisoning).
    Set(i64),
    /// `r += c`.
    Add(i64),
    /// `count[r]++`.
    Count,
    /// `count[r + c]++`.
    CountPlus(i64),
    /// `count[c]++` (does not read the path register).
    CountConst(i64),
}

impl PlanOp {
    /// Returns `true` for the counting forms.
    pub fn is_count(self) -> bool {
        matches!(
            self,
            PlanOp::Count | PlanOp::CountPlus(_) | PlanOp::CountConst(_)
        )
    }
}

/// Symbolic path-register state relative to the list's entry value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum R {
    /// `r = r_in + delta`.
    Offset(i64),
    /// `r = k`, independent of the entry value.
    Known(i64),
}

/// Normalizes an op list with the paper's combining rules.
///
/// `merge_set_count` controls whether `r = c; count[r]` may fold into
/// `count[c]` — true for free poisoning (§4.6), where any index is a plain
/// slot, and false in checked-poisoning mode when the folded constant
/// would be negative (the runtime check must observe the poisoned
/// register).
pub fn combine(ops: &[PlanOp], merge_set_count: bool) -> Vec<PlanOp> {
    let mut out = Vec::new();
    let mut r = R::Offset(0);
    // Does the machine register currently hold the symbolic value (because
    // we materialized a Set for a checked count)?
    let mut machine_synced = true; // trivially: r == r_in + 0
                                   // Any register op since the last count (or since the start)?
    let mut dirty = false;
    let mut saw_count = false;

    for &op in ops {
        match op {
            PlanOp::Set(c) => {
                r = R::Known(c);
                machine_synced = false;
                dirty = true;
            }
            PlanOp::Add(c) => {
                r = match r {
                    R::Offset(d) => R::Offset(d.wrapping_add(c)),
                    R::Known(k) => R::Known(k.wrapping_add(c)),
                };
                machine_synced = false;
                dirty = true;
            }
            PlanOp::Count | PlanOp::CountPlus(_) => {
                let extra = match op {
                    PlanOp::CountPlus(a) => a,
                    _ => 0,
                };
                match r {
                    R::Known(k) => {
                        let idx = k.wrapping_add(extra);
                        if merge_set_count || idx >= 0 {
                            out.push(PlanOp::CountConst(idx));
                        } else {
                            // Checked mode with a poisoned constant: the
                            // runtime check must see the register.
                            out.push(PlanOp::Set(k));
                            machine_synced = true;
                            out.push(PlanOp::CountPlus(extra));
                        }
                    }
                    R::Offset(d) => {
                        // The count reads r_in + d + extra without the Add
                        // ever being materialized.
                        out.push(PlanOp::CountPlus(d.wrapping_add(extra)));
                    }
                }
                saw_count = true;
                dirty = false;
            }
            PlanOp::CountConst(c) => {
                out.push(PlanOp::CountConst(c));
                saw_count = true;
                // Does not read or consume the register state; a pending
                // Set/Add remains pending (dirty stays as-is).
            }
        }
    }

    // r is live out of the edge iff some downstream count will read it:
    // either this list has no count at all (the path's count is further
    // on), or register ops after the last count started a new path.
    let live_out = !saw_count || dirty;
    if live_out && !machine_synced {
        match r {
            R::Offset(0) => {}
            R::Offset(d) => out.push(PlanOp::Add(d)),
            R::Known(k) => out.push(PlanOp::Set(k)),
        }
    }
    // Cosmetic: `count[r + 0]` is just `count[r]`.
    for op in &mut out {
        if *op == PlanOp::CountPlus(0) {
            *op = PlanOp::Count;
        }
    }
    out
}

/// Lowers a normalized op list to IR profiling ops.
///
/// `checked` converts `count[r]`/`count[r+c]` into the poison-checking
/// variants (§3.2); constant-index counts never need a check.
pub fn lower(ops: &[PlanOp], table: TableId, checked: bool) -> Vec<ProfOp> {
    ops.iter()
        .map(|&op| match op {
            PlanOp::Set(c) => ProfOp::SetR { value: c },
            PlanOp::Add(c) => ProfOp::AddR { value: c },
            PlanOp::Count => {
                if checked {
                    ProfOp::CountRChecked { table }
                } else {
                    ProfOp::CountR { table }
                }
            }
            PlanOp::CountPlus(a) => {
                if checked {
                    ProfOp::CountRPlusChecked { table, addend: a }
                } else {
                    ProfOp::CountRPlus { table, addend: a }
                }
            }
            PlanOp::CountConst(c) => ProfOp::CountConst { table, index: c },
        })
        .collect()
}

/// Dynamic op count of a normalized list (each op executes once when the
/// edge is traversed) — used by tests asserting that pushing never makes
/// instrumentation more expensive.
pub fn dynamic_ops(ops: &[PlanOp]) -> usize {
    ops.len()
}

/// Concretely executes a sequence of op lists (the lists along one path)
/// and returns every counted index, in order.
///
/// `r` starts at `r_in`; this mirrors the VM's semantics exactly and lets
/// tests assert the end-to-end invariant: *every counted path executes
/// exactly one count, at its own path number*.
pub fn simulate(lists: &[&[PlanOp]], r_in: i64) -> Vec<i64> {
    let mut r = r_in;
    let mut counted = Vec::new();
    for list in lists {
        for &op in *list {
            match op {
                PlanOp::Set(c) => r = c,
                PlanOp::Add(c) => r = r.wrapping_add(c),
                PlanOp::Count => counted.push(r),
                PlanOp::CountPlus(a) => counted.push(r.wrapping_add(a)),
                PlanOp::CountConst(c) => counted.push(c),
            }
        }
    }
    counted
}

#[cfg(test)]
mod tests {
    use super::*;
    use PlanOp::*;

    #[test]
    fn set_then_add_folds() {
        assert_eq!(combine(&[Set(0), Add(3)], true), vec![Set(3)]);
        assert_eq!(combine(&[Set(2), Add(3), Add(-1)], true), vec![Set(4)]);
        assert_eq!(combine(&[Add(2), Add(3)], true), vec![Add(5)]);
        assert_eq!(combine(&[Add(2), Add(-2)], true), vec![]);
    }

    #[test]
    fn add_then_count_folds_and_drops_dead_add() {
        // r += 2; count[r]  =>  count[r + 2]; the Add disappears because r
        // is dead after its path's single count (§3.1 combining).
        assert_eq!(combine(&[Add(2), Count], true), vec![CountPlus(2)]);
    }

    #[test]
    fn set_then_count_folds_to_const_and_drops_dead_set() {
        assert_eq!(combine(&[Set(0), Add(1), Count], true), vec![CountConst(1)]);
        assert_eq!(combine(&[Set(5), Count], true), vec![CountConst(5)]);
    }

    #[test]
    fn plain_reg_ops_stay_live() {
        assert_eq!(combine(&[Set(3)], true), vec![Set(3)]);
        assert_eq!(combine(&[Add(-7)], true), vec![Add(-7)]);
    }

    #[test]
    fn back_edge_count_then_reinit() {
        // Exit-side count combined with entry-side init of the next path:
        // count[r + 1], then r = 5 stays live for the new path.
        let got = combine(&[Add(1), Count, Set(0), Add(5)], true);
        assert_eq!(got, vec![CountPlus(1), Set(5)]);
    }

    #[test]
    fn checked_mode_keeps_negative_set_visible() {
        let got = combine(&[Set(-100), Count], false);
        assert_eq!(got, vec![Set(-100), Count]);
    }

    #[test]
    fn checked_mode_merges_nonnegative() {
        assert_eq!(combine(&[Set(3), Count], false), vec![CountConst(3)]);
    }

    #[test]
    fn double_set_last_wins() {
        assert_eq!(combine(&[Set(1), Set(7)], true), vec![Set(7)]);
        assert_eq!(combine(&[Set(1), Add(2), Set(0)], true), vec![Set(0)]);
    }

    #[test]
    fn count_const_does_not_consume_pending_reg_ops() {
        // A pending Set is not consumed by a constant-index count.
        assert_eq!(
            combine(&[Set(4), CountConst(9)], true),
            vec![CountConst(9), Set(4)]
        );
    }

    #[test]
    fn count_without_reg_ops() {
        assert_eq!(combine(&[Count], true), vec![Count]);
        assert_eq!(combine(&[CountConst(2)], true), vec![CountConst(2)]);
    }

    #[test]
    fn lower_maps_ops() {
        use ppp_ir::ProfOp;
        let t = TableId(0);
        let ir = lower(
            &[Set(1), Add(2), Count, CountPlus(3), CountConst(4)],
            t,
            false,
        );
        assert_eq!(
            ir,
            vec![
                ProfOp::SetR { value: 1 },
                ProfOp::AddR { value: 2 },
                ProfOp::CountR { table: t },
                ProfOp::CountRPlus {
                    table: t,
                    addend: 3
                },
                ProfOp::CountConst { table: t, index: 4 },
            ]
        );
        let checked = lower(&[Count, CountPlus(1)], t, true);
        assert_eq!(
            checked,
            vec![
                ProfOp::CountRChecked { table: t },
                ProfOp::CountRPlusChecked {
                    table: t,
                    addend: 1
                },
            ]
        );
    }

    #[test]
    fn dynamic_ops_counts_list_length() {
        assert_eq!(dynamic_ops(&[Set(0), Count]), 2);
        assert_eq!(dynamic_ops(&[]), 0);
    }

    #[test]
    fn combining_never_increases_dynamic_ops() {
        use PlanOp::*;
        let cases: &[&[PlanOp]] = &[
            &[Set(0), Add(1), Add(2), Count],
            &[Add(5), Count, Set(0)],
            &[Set(1), Set(2), Add(3)],
            &[Count],
            &[Add(1), Add(2), Add(3)],
        ];
        for ops in cases {
            assert!(
                dynamic_ops(&combine(ops, true)) <= dynamic_ops(ops),
                "combine made {ops:?} more expensive"
            );
        }
    }
}
