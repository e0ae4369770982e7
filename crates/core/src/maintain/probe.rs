//! The **index-probe access path** of the propagate phase.
//!
//! Every join term the propagate phase evaluates pairs a small signed side
//! (a delta, or the few rows a Fig. 29 recompute is restricted to) with one
//! whole side of the join read in the pre or post state. When that whole
//! side is a base `Scan` — possibly under pass-through `Project`/`Select`
//! operators — and its join columns cover a prefix of the table's key, it is
//! read by key lookups ([`gpivot_storage::Table::rows_with_key_prefix`],
//! [`PostStateProbe`]) instead of being evaluated in full, so the term costs
//! O(|small side| + matches) rather than O(|table|). Every other side is
//! evaluated and hash-joined (the scan path). The choice depends only on
//! the plan and the schema's declared key.

use crate::error::Result;
use crate::maintain::delta_prop::PropagationCtx;
use gpivot_algebra::plan::Plan;
use gpivot_algebra::{BoundExpr, Expr};
use gpivot_exec::TableProvider;
use gpivot_storage::{PostStateProbe, Row, Table, Value};
use std::collections::HashMap;

/// One operator between the probed base row and the join side's row.
enum Step {
    /// A `Select`: the predicate is re-tested on each probed row.
    Filter(BoundExpr),
    /// A `Project`: the items are evaluated on each probed row.
    Map(Vec<BoundExpr>),
}

/// A join side answerable by key lookups: a base `Scan` under zero or more
/// `Project`/`Select` operators whose join columns cover a prefix of the
/// table's key (each through pass-through `Project` items).
pub struct IndexProbe {
    table: String,
    /// For each key-prefix column in key order: its position in the join's
    /// column list.
    prefix_on: Vec<usize>,
    /// Operators from the base row up to the side's row, bottom-up.
    steps: Vec<Step>,
}

impl IndexProbe {
    /// Resolve `side` for a join on the given positions of its output, or
    /// `None` when no key index covers them.
    pub fn resolve(
        side: &Plan,
        side_on: &[usize],
        ctx: &PropagationCtx<'_>,
    ) -> Result<Option<Self>> {
        let mut cols = side_on.to_vec();
        let mut steps = Vec::new();
        let mut node = side;
        let table = loop {
            match node {
                Plan::Scan { table } => break table,
                Plan::Select { input, predicate } => {
                    let schema = input.schema(ctx.catalog)?;
                    steps.push(Step::Filter(predicate.bind(&schema)?));
                    node = input;
                }
                Plan::Project { input, items } => {
                    let schema = input.schema(ctx.catalog)?;
                    for c in &mut cols {
                        let Expr::Col(name) = &items[*c].0 else {
                            return Ok(None);
                        };
                        *c = schema.index_of(name)?;
                    }
                    let bound = items
                        .iter()
                        .map(|(e, _)| e.bind(&schema))
                        .collect::<gpivot_algebra::Result<_>>()?;
                    steps.push(Step::Map(bound));
                    node = input;
                }
                _ => return Ok(None),
            }
        };
        let Some(key) = ctx.catalog.table(table)?.schema().key() else {
            return Ok(None);
        };
        let prefix_on: Vec<usize> = key
            .iter()
            .map_while(|k| cols.iter().position(|c| c == k))
            .collect();
        if prefix_on.is_empty() {
            return Ok(None);
        }
        steps.reverse();
        Ok(Some(IndexProbe {
            table: table.clone(),
            prefix_on,
            steps,
        }))
    }

    /// A probed base row carried up to the side's row (`None` if a `Select`
    /// drops it).
    fn lift(&self, base: &Row) -> Option<Row> {
        let mut row = base.clone();
        for step in &self.steps {
            match step {
                Step::Filter(p) => {
                    if !p.holds(&row) {
                        return None;
                    }
                }
                Step::Map(items) => row = Row::new(items.iter().map(|e| e.eval(&row)).collect()),
            }
        }
        Some(row)
    }
}

/// The whole side of a join term, read by key lookups or evaluated.
pub enum JoinSide<'a> {
    Probe(IndexProbe, PostStateProbe<'a>),
    Scan(Table),
}

impl<'a> JoinSide<'a> {
    /// Open `side` (joined on `side_on`) in the pre state, or in the post
    /// state when `post` is set: by index probe if one covers the join
    /// columns, else by evaluating it in full.
    pub fn open(
        side: &Plan,
        side_on: &[usize],
        post: bool,
        ctx: &PropagationCtx<'a>,
    ) -> Result<Self> {
        if let Some(probe) = IndexProbe::resolve(side, side_on, ctx)? {
            return JoinSide::probe(probe, post, ctx);
        }
        Ok(JoinSide::Scan(if post {
            ctx.eval_post(side)?
        } else {
            ctx.eval_pre(side)?
        }))
    }

    /// Lookups through `probe` into its base table's pre state, or its
    /// post state `pre ⊕ Δ` when `post` is set.
    pub fn probe(probe: IndexProbe, post: bool, ctx: &PropagationCtx<'a>) -> Result<Self> {
        // A probe reads the base table, so it resolves it like a scan does:
        // through the provider, where the `Scan` fault site fires.
        let pre = ctx.catalog.get_table(&probe.table)?;
        let delta = if post {
            ctx.deltas.delta(&probe.table)
        } else {
            None
        };
        let state = PostStateProbe::new(pre, delta, probe.prefix_on.len());
        Ok(JoinSide::Probe(probe, state))
    }

    /// Equi-join the signed `outer` rows with this side (`outer_on[i] =
    /// side_on[i]`, NULL never matches), calling `emit(outer, side, w)` per
    /// matching pair. Probed base rows count toward
    /// [`PropagationCtx::rows_evaluated`].
    pub fn join(
        &self,
        outer: &[(&Row, i64)],
        outer_on: &[usize],
        side_on: &[usize],
        ctx: &PropagationCtx<'_>,
        mut emit: impl FnMut(&Row, &Row, i64),
    ) {
        let joinable = outer
            .iter()
            .filter(|(row, _)| !outer_on.iter().any(|&i| row[i].is_null()));
        match self {
            JoinSide::Scan(table) => {
                // Build on the outer rows (the small side), scan the table.
                let mut build: HashMap<Row, Vec<(&Row, i64)>> = HashMap::new();
                for &(row, w) in joinable {
                    build
                        .entry(row.project(outer_on))
                        .or_default()
                        .push((row, w));
                }
                for srow in table.iter() {
                    let key = srow.project(side_on);
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    for &(orow, w) in build.get(&key).into_iter().flatten() {
                        emit(orow, srow, w);
                    }
                }
            }
            JoinSide::Probe(probe, state) => {
                // One lookup per distinct prefix, in first-seen outer order
                // (so the emitted order is deterministic).
                let mut groups: Vec<(Row, Vec<(&Row, i64)>)> = Vec::new();
                let mut slot: HashMap<Row, usize> = HashMap::new();
                for &(row, w) in joinable {
                    let prefix: Row = probe
                        .prefix_on
                        .iter()
                        .map(|&j| row[outer_on[j]].clone())
                        .collect::<Vec<_>>()
                        .into();
                    let i = *slot.entry(prefix.clone()).or_insert_with(|| {
                        groups.push((prefix, Vec::new()));
                        groups.len() - 1
                    });
                    groups[i].1.push((row, w));
                }
                let mut probed = 0;
                for (prefix, orows) in &groups {
                    for base in state.rows_with_key_prefix(prefix) {
                        probed += 1;
                        let Some(srow) = probe.lift(base) else {
                            continue;
                        };
                        for &(orow, w) in orows {
                            // The prefix matched; the remaining join columns
                            // must match too.
                            if outer_on
                                .iter()
                                .zip(side_on)
                                .all(|(&o, &s)| orow[o] == srow[s])
                            {
                                emit(orow, &srow, w);
                            }
                        }
                    }
                }
                ctx.count_rows(probed);
            }
        }
    }
}
