//! The **propagate phase**: push source deltas up a plan tree as signed
//! multisets, one rule per operator (§6.2; relational rules after [11, 18],
//! GPIVOT/GUNPIVOT rules after Fig. 22).
//!
//! Conventions:
//!
//! * The catalog holds the **pre-update** state; source deltas are the
//!   pending changes. `propagate(plan)` returns `Δ(plan) = plan(post) −
//!   plan(pre)` as a signed multiset.
//! * Join propagation uses the exact bag identity
//!   `Δ(A ⋈ B) = ΔA ⋈ B_pre ⊎ A_post ⋈ ΔB`; a term is only evaluated when
//!   its delta is non-empty. The whole side of a term (`B_pre`, `A_post`)
//!   is read by key lookups when it is a base scan whose join columns cover
//!   a key prefix (the index-probe access path, [`crate::maintain::probe`]),
//!   so the term costs O(|Δ| + matches); any other side is evaluated in
//!   full and hash-joined against the delta.
//! * `GROUPBY` inside the tree uses the insert/delete rules of \[18\]:
//!   identify affected groups, recompute them from pre and post states, and
//!   emit delete+insert pairs — exactly the "costly identification and then
//!   recomputation of affected groups" the paper measures (§7.3).
//! * An intermediate `GPIVOT` uses the Fig. 22 insert/delete rules: the
//!   affected keys' old output rows are re-derived from the pre state
//!   (delete side) and new rows from the post state (insert side). This is
//!   the expensive path the GPIVOT pullup exists to avoid.
//! * `GUNPIVOT` is linear (Fig. 22's union-distribution): the delta is
//!   unpivoted row-wise.

use crate::error::{CoreError, Result};
use crate::maintain::probe::JoinSide;
use crate::maintain::SourceDeltas;
use gpivot_algebra::plan::{JoinKind, Plan};
use gpivot_algebra::AggFunc;
use gpivot_exec::pivot::{PivotLayout, UnpivotLayout};
use gpivot_exec::{Executor, Overlay};
use gpivot_storage::{Catalog, Delta, Row, Table};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

/// Propagation context: pre-state catalog plus pending source deltas,
/// and the [`Executor`] every pre/post subplan evaluation runs on (so the
/// propagate phase inherits the caller's thread/partition configuration).
pub struct PropagationCtx<'a> {
    pub catalog: &'a Catalog,
    pub deltas: &'a SourceDeltas,
    exec: Executor,
    /// Rows flowing through plan operators across every pre/post subplan
    /// evaluation in this propagation (observability; see
    /// [`PropagationCtx::rows_evaluated`]).
    rows_evaluated: Cell<usize>,
}

impl<'a> PropagationCtx<'a> {
    pub fn new(catalog: &'a Catalog, deltas: &'a SourceDeltas) -> Self {
        PropagationCtx::with_exec(catalog, deltas, Executor::new())
    }

    /// A context whose subplan evaluations run on `exec`.
    pub fn with_exec(catalog: &'a Catalog, deltas: &'a SourceDeltas, exec: Executor) -> Self {
        PropagationCtx {
            catalog,
            deltas,
            exec,
            rows_evaluated: Cell::new(0),
        }
    }

    /// The executor pre/post evaluations run on.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Total rows evaluated so far: the sum of `ExecTrace::total_rows`
    /// over every [`PropagationCtx::eval_pre`] / [`PropagationCtx::eval_post`]
    /// call plus every base row an index probe returned — the propagate
    /// phase's work proxy surfaced in `MaintenanceOutcome::rows_propagated`.
    pub fn rows_evaluated(&self) -> usize {
        self.rows_evaluated.get()
    }

    /// Charge `rows` of evaluation work to this propagation.
    pub(crate) fn count_rows(&self, rows: usize) {
        self.rows_evaluated.set(self.rows_evaluated.get() + rows);
    }

    /// Does any base table under `plan` have a pending delta?
    pub fn touches(&self, plan: &Plan) -> bool {
        plan.base_tables()
            .iter()
            .any(|t| self.deltas.delta(t).is_some_and(|d| !d.is_empty()))
    }

    /// Evaluate a subplan against the pre-update state.
    pub fn eval_pre(&self, plan: &Plan) -> Result<Table> {
        let (table, trace) = self.exec.run_traced(plan, self.catalog)?;
        self.count_rows(trace.total_rows());
        Ok(table)
    }

    /// Evaluate a subplan against the post-update state (pre ⊕ deltas).
    pub fn eval_post(&self, plan: &Plan) -> Result<Table> {
        let mut overlay = Overlay::new(self.catalog);
        for table in plan.base_tables() {
            if let Some(delta) = self.deltas.delta(&table) {
                if !delta.is_empty() {
                    let pre = self.catalog.table(&table)?;
                    overlay.put(table.clone(), post_state_table(pre, delta));
                }
            }
        }
        let (table, trace) = self.exec.run_traced(plan, &overlay)?;
        self.count_rows(trace.total_rows());
        Ok(table)
    }
}

/// Build the post-update state of one table as a bag (pre ⊕ delta).
pub fn post_state_table(pre: &Table, delta: &Delta) -> Table {
    let mut deleted: HashMap<&Row, i64> = HashMap::new();
    for (row, &w) in delta.iter() {
        if w < 0 {
            deleted.insert(row, -w);
        }
    }
    let mut rows = Vec::with_capacity(pre.len());
    for row in pre.iter() {
        match deleted.get_mut(row) {
            Some(c) if *c > 0 => *c -= 1,
            _ => rows.push(row.clone()),
        }
    }
    for (row, &w) in delta.iter() {
        for _ in 0..w.max(0) {
            rows.push(row.clone());
        }
    }
    Table::bag(pre.schema().clone(), rows)
}

/// Propagate source deltas through `plan`, returning the output delta.
pub fn propagate(plan: &Plan, ctx: &PropagationCtx<'_>) -> Result<Delta> {
    // Untouched subtrees contribute no delta.
    if !ctx.touches(plan) {
        return Ok(Delta::new());
    }
    match plan {
        Plan::Scan { table } => Ok(ctx.deltas.delta(table).cloned().unwrap_or_default()),

        Plan::Select { input, predicate } => {
            let din = propagate(input, ctx)?;
            if din.is_empty() {
                return Ok(din);
            }
            let schema = input.schema(ctx.catalog)?;
            let bound = predicate.bind(&schema)?;
            Ok(din.filter_rows(|r| bound.holds(r)))
        }

        Plan::Project { input, items } => {
            let din = propagate(input, ctx)?;
            if din.is_empty() {
                return Ok(din);
            }
            let schema = input.schema(ctx.catalog)?;
            let bound: Vec<_> = items
                .iter()
                .map(|(e, _)| e.bind(&schema))
                .collect::<gpivot_algebra::Result<_>>()?;
            Ok(din.map_rows(|r| Row::new(bound.iter().map(|b| b.eval(r)).collect())))
        }

        Plan::Join {
            left,
            right,
            kind,
            on,
            residual,
        } => {
            if *kind != JoinKind::Inner {
                return Err(CoreError::NotMaintainable(format!(
                    "delta propagation through {kind} joins is not supported; \
                     use full recomputation"
                )));
            }
            let dl = propagate(left, ctx)?;
            let dr = propagate(right, ctx)?;
            let ls = left.schema(ctx.catalog)?;
            let rs = right.schema(ctx.catalog)?;
            let left_on: Vec<usize> = on
                .iter()
                .map(|(l, _)| ls.index_of(l))
                .collect::<gpivot_storage::Result<_>>()?;
            let right_on: Vec<usize> = on
                .iter()
                .map(|(_, r)| rs.index_of(r))
                .collect::<gpivot_storage::Result<_>>()?;
            let out_schema = plan.schema(ctx.catalog)?;
            let bound_res = residual.as_ref().map(|e| e.bind(&out_schema)).transpose()?;

            let mut out = Delta::new();
            let mut emit = |joined: Row, w: i64| {
                if bound_res.as_ref().is_none_or(|p| p.holds(&joined)) {
                    out.add(joined, w);
                }
            };
            // ΔA ⋈ B_pre
            if !dl.is_empty() {
                let b_pre = JoinSide::open(right, &right_on, false, ctx)?;
                b_pre.join(&signed(&dl), &left_on, &right_on, ctx, |d, b, w| {
                    emit(d.concat(b), w)
                });
            }
            // A_post ⋈ ΔB
            if !dr.is_empty() {
                let a_post = JoinSide::open(left, &left_on, true, ctx)?;
                a_post.join(&signed(&dr), &right_on, &left_on, ctx, |d, a, w| {
                    emit(a.concat(d), w)
                });
            }
            Ok(out)
        }

        Plan::GroupBy {
            input,
            group_by,
            aggs,
        } => {
            let din = propagate(input, ctx)?;
            if din.is_empty() {
                return Ok(din);
            }
            // Insert/delete rules of [18]: recompute affected groups.
            let in_schema = input.schema(ctx.catalog)?;
            let group_idx: Vec<usize> = group_by
                .iter()
                .map(|g| in_schema.index_of(g))
                .collect::<gpivot_storage::Result<_>>()?;
            let affected: HashSet<Row> = din.distinct_values_at(&group_idx).into_iter().collect();

            let pre_in = ctx.eval_pre(input)?;
            let post_in = apply_delta_to_bag(&pre_in, &din);
            let restrict = |t: &Table| -> Table {
                Table::bag(
                    t.schema().clone(),
                    t.iter()
                        .filter(|r| affected.contains(&r.project(&group_idx)))
                        .cloned()
                        .collect(),
                )
            };
            let out_schema = plan.schema(ctx.catalog)?;
            let agg_inputs: Vec<usize> = aggs
                .iter()
                .map(|a| {
                    if a.func == AggFunc::CountStar {
                        Ok(usize::MAX)
                    } else {
                        in_schema.index_of(&a.input)
                    }
                })
                .collect::<gpivot_storage::Result<_>>()?;
            let old_groups = gpivot_exec::group::hash_group_by(
                &restrict(&pre_in),
                &group_idx,
                aggs,
                &agg_inputs,
                out_schema.clone(),
            )?;
            let new_groups = gpivot_exec::group::hash_group_by(
                &restrict(&post_in),
                &group_idx,
                aggs,
                &agg_inputs,
                out_schema,
            )?;
            let mut out = Delta::from_deletes(old_groups.rows().iter().cloned());
            out.merge(&Delta::from_inserts(new_groups.rows().iter().cloned()));
            Ok(out)
        }

        Plan::Union { left, right } => {
            let mut d = propagate(left, ctx)?;
            d.merge(&propagate(right, ctx)?);
            Ok(d)
        }

        Plan::Diff { .. } => {
            // Bag difference is not delta-linear; recompute both states.
            let pre = ctx.eval_pre(plan)?;
            let post = ctx.eval_post(plan)?;
            let mut d = Delta::from_deletes(pre.rows().iter().cloned());
            d.merge(&Delta::from_inserts(post.rows().iter().cloned()));
            Ok(d)
        }

        Plan::GPivot { input, spec } => {
            // Fig. 22 insert/delete rules: re-derive the affected keys'
            // pivot rows from the pre state (deletes) and the post state
            // (inserts). Accessing "the original pivoted result" is exactly
            // the cost the paper attributes to intermediate pivots (§2.3).
            let din = propagate(input, ctx)?;
            if din.is_empty() {
                return Ok(din);
            }
            let in_schema = input.schema(ctx.catalog)?;
            let layout = PivotLayout::resolve(spec, &in_schema)?;
            // Only delta rows whose dimension tuple is an output parameter
            // (and with a non-⊥ measure) affect the output.
            let relevant = din.filter_rows(|r| {
                layout.group_lookup.contains_key(&r.project(&layout.by_idx))
                    && !layout.on_idx.iter().all(|&oi| r[oi].is_null())
            });
            if relevant.is_empty() {
                return Ok(Delta::new());
            }
            let affected: HashSet<Row> = relevant
                .distinct_values_at(&layout.k_idx)
                .into_iter()
                .collect();

            let pre_in = ctx.eval_pre(input)?;
            let post_in = apply_delta_to_bag(&pre_in, &din);
            let restrict = |t: &Table| -> Table {
                Table::bag(
                    t.schema().clone(),
                    t.iter()
                        .filter(|r| affected.contains(&r.project(&layout.k_idx)))
                        .cloned()
                        .collect(),
                )
            };
            let out_schema = plan.schema(ctx.catalog)?;
            let old_rows =
                gpivot_exec::pivot::gpivot(&restrict(&pre_in), spec, out_schema.clone())?;
            let new_rows = gpivot_exec::pivot::gpivot(&restrict(&post_in), spec, out_schema)?;
            let mut out = Delta::from_deletes(old_rows.rows().iter().cloned());
            out.merge(&Delta::from_inserts(new_rows.rows().iter().cloned()));
            Ok(out)
        }

        Plan::GUnpivot { input, spec } => {
            // Fig. 22: GUNPIVOT distributes over bag union/difference.
            let din = propagate(input, ctx)?;
            if din.is_empty() {
                return Ok(din);
            }
            let in_schema = input.schema(ctx.catalog)?;
            let layout = UnpivotLayout::resolve(spec, &in_schema)?;
            let mut out = Delta::new();
            for (row, &w) in din.iter() {
                for (g, cols) in spec.groups.iter().zip(&layout.group_cols) {
                    if cols.iter().all(|&c| row[c].is_null()) {
                        continue;
                    }
                    let mut v = Vec::with_capacity(layout.k_idx.len() + g.tags.len() + cols.len());
                    v.extend(layout.k_idx.iter().map(|&i| row[i].clone()));
                    v.extend(g.tags.iter().cloned());
                    v.extend(cols.iter().map(|&c| row[c].clone()));
                    out.add(Row::new(v), w);
                }
            }
            Ok(out)
        }
    }
}

/// Apply a signed delta to an evaluated bag.
pub fn apply_delta_to_bag(pre: &Table, delta: &Delta) -> Table {
    post_state_table(pre, delta)
}

/// A delta's rows with their signed multiplicities.
fn signed(delta: &Delta) -> Vec<(&Row, i64)> {
    delta.iter().map(|(row, &w)| (row, w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::{AggSpec, Expr, PivotSpec, PlanBuilder};
    use gpivot_storage::{row, DataType, Schema, Value};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let items = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("id", DataType::Int),
                    ("attr", DataType::Str),
                    ("val", DataType::Int),
                ],
                &["id", "attr"],
            )
            .unwrap(),
        );
        c.register(
            "items",
            Table::from_rows(
                items,
                vec![
                    row![1, "a", 10],
                    row![1, "b", 20],
                    row![2, "a", 30],
                    row![3, "b", 40],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let names = Arc::new(
            Schema::from_pairs_keyed(&[("nid", DataType::Int), ("name", DataType::Str)], &["nid"])
                .unwrap(),
        );
        c.register(
            "names",
            Table::from_rows(
                names,
                vec![row![1, "one"], row![2, "two"], row![3, "three"]],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    /// Incremental-vs-recompute oracle: Δ(plan) must equal
    /// plan(post) − plan(pre).
    fn assert_delta_correct(plan: &Plan, catalog: &Catalog, deltas: &SourceDeltas) {
        let ctx = PropagationCtx::new(catalog, deltas);
        let got = propagate(plan, &ctx).unwrap();
        let pre = ctx.eval_pre(plan).unwrap();
        let post = ctx.eval_post(plan).unwrap();
        let mut expected = Delta::from_deletes(pre.rows().iter().cloned());
        expected.merge(&Delta::from_inserts(post.rows().iter().cloned()));
        assert_eq!(got, expected, "delta mismatch for plan:\n{plan}");
    }

    fn mixed_deltas() -> SourceDeltas {
        let mut d = SourceDeltas::new();
        d.delete_rows("items", vec![row![1, "b", 20]]);
        d.insert_rows("items", vec![row![1, "b", 99], row![4, "a", 7]]);
        d
    }

    #[test]
    fn select_propagation() {
        let plan = PlanBuilder::scan("items")
            .select(Expr::col("val").gt(Expr::lit(15)))
            .build();
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn project_propagation() {
        let plan = PlanBuilder::scan("items")
            .project_cols(&["id", "val"])
            .build();
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn join_propagation_left_delta() {
        let plan = PlanBuilder::scan("items")
            .join(PlanBuilder::scan("names"), vec![("id", "nid")])
            .build();
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn join_propagation_both_sides() {
        let plan = PlanBuilder::scan("items")
            .join(PlanBuilder::scan("names"), vec![("id", "nid")])
            .build();
        let mut d = mixed_deltas();
        d.delete_rows("names", vec![row![2, "two"]]);
        d.insert_rows("names", vec![row![4, "four"]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    #[test]
    fn group_by_propagation() {
        let plan = PlanBuilder::scan("items")
            .group_by(
                &["attr"],
                vec![AggSpec::sum("val", "total"), AggSpec::count_star("cnt")],
            )
            .build();
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn group_by_group_death_and_birth() {
        let plan = PlanBuilder::scan("items")
            .group_by(&["attr"], vec![AggSpec::count_star("cnt")])
            .build();
        let mut d = SourceDeltas::new();
        // Kill group "b" entirely, create group "z".
        d.delete_rows("items", vec![row![1, "b", 20], row![3, "b", 40]]);
        d.insert_rows("items", vec![row![5, "z", 1]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    #[test]
    fn intermediate_pivot_propagation() {
        let plan = PlanBuilder::scan("items")
            .gpivot(PivotSpec::simple(
                "attr",
                "val",
                vec![Value::str("a"), Value::str("b")],
            ))
            .join(PlanBuilder::scan("names"), vec![("id", "nid")])
            .build();
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn pivot_key_disappearance() {
        let plan = PlanBuilder::scan("items")
            .gpivot(PivotSpec::simple(
                "attr",
                "val",
                vec![Value::str("a"), Value::str("b")],
            ))
            .build();
        let mut d = SourceDeltas::new();
        // Remove every row of id=1: the pivot row must disappear.
        d.delete_rows("items", vec![row![1, "a", 10], row![1, "b", 20]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    #[test]
    fn unpivot_propagation_is_linear() {
        let pivot = PivotSpec::simple("attr", "val", vec![Value::str("a"), Value::str("b")]);
        let unspec = gpivot_algebra::plan::UnpivotSpec::reversing(&pivot);
        let plan = PlanBuilder::scan("items")
            .gpivot(pivot)
            .gunpivot(unspec)
            .build();
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn union_propagation() {
        let plan = PlanBuilder::scan("items")
            .union(PlanBuilder::scan("items"))
            .build();
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn untouched_tree_yields_empty_delta() {
        let plan = PlanBuilder::scan("names").build();
        let deltas = mixed_deltas(); // only touches `items`
        let cat = catalog();
        let ctx = PropagationCtx::new(&cat, &deltas);
        assert!(propagate(&plan, &ctx).unwrap().is_empty());
    }

    #[test]
    fn post_state_table_applies_signed_delta() {
        let c = catalog();
        let pre = c.table("items").unwrap();
        let mut d = Delta::new();
        d.add(row![1, "a", 10], -1);
        d.add(row![9, "z", 9], 1);
        let post = post_state_table(pre, &d);
        assert_eq!(post.len(), 4);
        assert!(post.rows().contains(&row![9, "z", 9]));
        assert!(!post.rows().contains(&row![1, "a", 10]));
    }
}
