//! Tables: row bags with an optional enforced key and an ordered index over it.
//!
//! Two kinds of tables appear in the system:
//!
//! * **Base tables** (e.g. TPC-H `lineitem`) — declared with a key; the key
//!   index answers point lookups and key-prefix lookups
//!   ([`Table::rows_with_key_prefix`]), which is what lets the propagate
//!   phase join a delta to a base table by probing instead of scanning, and
//!   makes point deletions cheap. [`PostStateProbe`] answers the same
//!   lookups against the post-update state `pre ⊕ Δ` without building it.
//! * **Materialized views** — also keyed (the paper assumes a key in the
//!   view, §6.1); the apply phase of maintenance uses the keyed update
//!   primitives here ([`Table::upsert`], [`Table::update_by_key`],
//!   [`Table::delete_by_key`]) to realize the SQL `MERGE` the paper relies
//!   on in its experiments (§7.1).
//!
//! Un-keyed tables degrade gracefully to plain bags.

use crate::chunk::Chunk;
use crate::delta::Delta;
use crate::error::{Result, StorageError};
use crate::row::Row;
use crate::schema::SchemaRef;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A bag of rows conforming to a schema, optionally indexed by the schema key.
///
/// Rows and the key index are held behind [`Arc`]s with copy-on-write
/// semantics: cloning a table (or re-wrapping a base table's rows via
/// [`Table::bag_shared`] / [`Table::shared_rows`], as `Plan::Scan` does)
/// shares the row storage and the index, and the mutators only materialize
/// a private copy on first write ([`Arc::make_mut`]). Read-heavy paths —
/// recompute, delta propagation, view reads, snapshots — therefore stop
/// paying O(|table|) per clone.
#[derive(Debug, Clone)]
pub struct Table {
    schema: SchemaRef,
    rows: Arc<Vec<Row>>,
    /// key-projection → position in `rows`, ordered by key so that a key
    /// prefix selects a contiguous range; present iff the schema has a key.
    key_index: Option<Arc<BTreeMap<Row, usize>>>,
    /// Lazily built columnar image of `rows`, shared across clones (and
    /// across [`Table::as_bag`] views). Every mutator swaps in a fresh
    /// cell, so a cached chunk always describes the current rows.
    chunk: Arc<OnceLock<Arc<Chunk>>>,
}

/// A fresh, empty chunk-cache cell.
fn empty_chunk_cell() -> Arc<OnceLock<Arc<Chunk>>> {
    Arc::new(OnceLock::new())
}

impl Table {
    /// Create an empty table. A key index is built iff the schema has a key.
    pub fn new(schema: SchemaRef) -> Self {
        let key_index = schema.key().map(|_| Arc::new(BTreeMap::new()));
        Table {
            schema,
            rows: Arc::new(Vec::new()),
            key_index,
            chunk: empty_chunk_cell(),
        }
    }

    /// Create a table and bulk-load rows, enforcing arity and key
    /// uniqueness (the key index is bulk-built, see [`Table::into_keyed`]).
    pub fn from_rows(schema: SchemaRef, rows: Vec<Row>) -> Result<Self> {
        Table::bag(schema.clone(), rows).into_keyed(schema)
    }

    /// Create an un-keyed, un-checked bag (intermediate results).
    pub fn bag(schema: SchemaRef, rows: Vec<Row>) -> Self {
        Table {
            schema,
            rows: Arc::new(rows),
            key_index: None,
            chunk: empty_chunk_cell(),
        }
    }

    /// Create an un-keyed bag that shares already-shared row storage
    /// without copying. `Plan::Scan` uses this to hand a base table's rows
    /// to the executor by reference count rather than by O(|base|) clone.
    pub fn bag_shared(schema: SchemaRef, rows: Arc<Vec<Row>>) -> Self {
        Table {
            schema,
            rows,
            key_index: None,
            chunk: empty_chunk_cell(),
        }
    }

    /// The shared row storage. Cheap (one refcount bump); the returned
    /// `Arc` points at the same allocation until this table next mutates.
    pub fn shared_rows(&self) -> Arc<Vec<Row>> {
        Arc::clone(&self.rows)
    }

    /// Rebind this table to `schema` and build its key index in place,
    /// without copying rows: arity is checked per row and key uniqueness
    /// enforced exactly as [`Table::from_rows`] would, but the row storage
    /// (and its `Arc` sharing) is reused. This is how a materialized bag
    /// from the executor becomes a keyed view table.
    pub fn into_keyed(self, schema: SchemaRef) -> Result<Self> {
        let arity = schema.arity();
        for row in self.rows.iter() {
            if row.arity() != arity {
                return Err(StorageError::ArityMismatch {
                    expected: arity,
                    actual: row.arity(),
                });
            }
        }
        let key_index = match schema.key() {
            None => None,
            Some(key_cols) => {
                let mut keys: Vec<(Row, usize)> = self
                    .rows
                    .iter()
                    .enumerate()
                    .map(|(pos, row)| (row.project(key_cols), pos))
                    .collect();
                keys.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                if let Some(dup) = keys.windows(2).find(|w| w[0].0 == w[1].0) {
                    return Err(StorageError::KeyViolation {
                        table: "<table>".to_string(),
                        key: format!("{:?}", dup[0].0),
                    });
                }
                // Sorted and unique: `collect` bulk-builds the tree.
                Some(Arc::new(keys.into_iter().collect()))
            }
        };
        Ok(Table {
            schema,
            rows: self.rows,
            key_index,
            // Rows are unchanged, so a chunk already built for them stays valid.
            chunk: self.chunk,
        })
    }

    /// The table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, in storage order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Iterate over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }

    /// The columnar image of this table's rows, built on first use and
    /// cached until the next mutation. Clones (and [`Table::as_bag`]
    /// views) share both the rows and the cache, so a base table scanned
    /// by many plan executions converts to columns exactly once.
    pub fn chunk(&self) -> Arc<Chunk> {
        Arc::clone(
            self.chunk
                .get_or_init(|| Arc::new(Chunk::from_rows(&self.rows, self.schema.arity()))),
        )
    }

    /// An un-keyed view of this table sharing the row storage *and* the
    /// chunk cache. This is what `Plan::Scan` hands to the executor: the
    /// key index is dropped (execution never uses it) but a columnar
    /// image built by any earlier scan is reused.
    pub fn as_bag(&self) -> Table {
        Table {
            schema: self.schema.clone(),
            rows: Arc::clone(&self.rows),
            key_index: None,
            chunk: Arc::clone(&self.chunk),
        }
    }

    /// Invalidate the cached columnar image. Called by every mutator; the
    /// cell is *replaced* (not cleared) so outstanding clones that still
    /// see the old rows keep their still-valid cached chunk.
    fn touch(&mut self) {
        self.chunk = empty_chunk_cell();
    }

    fn key_projection(&self, row: &Row) -> Option<Row> {
        self.schema.key().map(|k| row.project(k))
    }

    /// Insert a row, enforcing arity and (if declared) key uniqueness.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        if row.arity() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                actual: row.arity(),
            });
        }
        let key = self.key_projection(&row);
        if let (Some(key), Some(idx)) = (key, self.key_index.as_mut()) {
            if idx.contains_key(&key) {
                return Err(StorageError::KeyViolation {
                    table: "<table>".to_string(),
                    key: format!("{key:?}"),
                });
            }
            Arc::make_mut(idx).insert(key, self.rows.len());
        }
        self.touch();
        Arc::make_mut(&mut self.rows).push(row);
        Ok(())
    }

    /// Insert many rows.
    pub fn insert_many<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<()> {
        for r in rows {
            self.insert(r)?;
        }
        Ok(())
    }

    /// Look up the full row for a key value (key-projected row).
    pub fn get_by_key(&self, key: &Row) -> Option<&Row> {
        let idx = self.key_index.as_ref()?;
        idx.get(key).map(|&pos| &self.rows[pos])
    }

    /// The rows whose key starts with `prefix` (the projection of the first
    /// `prefix.arity()` key columns), in key order. A full key is a point
    /// lookup. Costs O(log n + matches); a keyless table returns nothing.
    pub fn rows_with_key_prefix<'t>(&'t self, prefix: &Row) -> impl Iterator<Item = &'t Row> + 't {
        let prefix = prefix.clone();
        let range = self.key_index.as_ref().map(|idx| idx.range(&prefix..));
        range
            .into_iter()
            .flatten()
            .take_while(move |(key, _)| key.values().starts_with(prefix.values()))
            .map(|(_, &pos)| &self.rows[pos])
    }

    /// True iff a row with this key exists.
    pub fn contains_key(&self, key: &Row) -> bool {
        self.get_by_key(key).is_some()
    }

    /// Remove the row with this key; returns it if present.
    pub fn delete_by_key(&mut self, key: &Row) -> Option<Row> {
        if !self.key_index.as_ref()?.contains_key(key) {
            return None;
        }
        self.touch();
        let idx = Arc::make_mut(self.key_index.as_mut()?);
        let pos = idx.remove(key)?;
        let rows = Arc::make_mut(&mut self.rows);
        let removed = rows.swap_remove(pos);
        // Fix the moved row's index entry (if any row was moved into `pos`).
        if let (Some(moved), Some(k)) = (rows.get(pos), self.schema.key()) {
            idx.insert(moved.project(k), pos);
        }
        Some(removed)
    }

    /// Replace the row stored under `key` with `new_row` (whose key
    /// projection must equal `key`). Returns the old row, or `None` if the
    /// key was absent (nothing is inserted in that case).
    pub fn update_by_key(&mut self, key: &Row, new_row: Row) -> Option<Row> {
        debug_assert_eq!(
            self.key_projection(&new_row).as_ref(),
            Some(key),
            "update_by_key: new row's key must match"
        );
        let idx = self.key_index.as_ref()?;
        let pos = *idx.get(key)?;
        self.touch();
        Some(std::mem::replace(
            &mut Arc::make_mut(&mut self.rows)[pos],
            new_row,
        ))
    }

    /// Insert-or-replace by key. Returns the displaced row, if any.
    pub fn upsert(&mut self, row: Row) -> Result<Option<Row>> {
        match self.key_projection(&row) {
            Some(key) if self.contains_key(&key) => Ok(self.update_by_key(&key, row)),
            _ => {
                self.insert(row)?;
                Ok(None)
            }
        }
    }

    /// Delete the first row equal to `row` (bag deletion for un-keyed
    /// tables). Returns true if a row was removed.
    pub fn delete_row(&mut self, row: &Row) -> bool {
        if let Some(key) = self.key_projection(row) {
            // Keyed fast path: only delete when the stored row matches fully.
            if self.get_by_key(&key) == Some(row) {
                self.delete_by_key(&key);
                return true;
            }
            return false;
        }
        if let Some(pos) = self.rows.iter().position(|r| r == row) {
            self.touch();
            Arc::make_mut(&mut self.rows).swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Apply a signed delta to this table: positive multiplicities insert,
    /// negative multiplicities delete (bag semantics). For keyed tables the
    /// paper's convention holds: a batch never inserts a duplicate key.
    pub fn apply_delta(&mut self, delta: &Delta) -> Result<()> {
        // Deletes first so that delete+insert of the same key in one batch
        // (the insert/delete propagation rules do exactly this) succeeds.
        for (row, &w) in delta.iter() {
            if w < 0 {
                for _ in 0..(-w) {
                    self.delete_row(row);
                }
            }
        }
        for (row, &w) in delta.iter() {
            if w > 0 {
                for _ in 0..w {
                    self.insert(row.clone())?;
                }
            }
        }
        Ok(())
    }

    /// Rows sorted (for order-insensitive comparison in tests).
    pub fn sorted_rows(&self) -> Vec<Row> {
        let mut v = (*self.rows).clone();
        v.sort();
        v
    }

    /// Bag equality with another table (ignores row order and index state).
    pub fn bag_eq(&self, other: &Table) -> bool {
        self.schema.fields() == other.schema.fields() && self.sorted_rows() == other.sorted_rows()
    }

    /// Render the table as an aligned text grid (examples / debugging).
    pub fn to_pretty_string(&self) -> String {
        let names = self.schema.column_names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.chars().count()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        let mut sorted = rendered;
        sorted.sort();
        for row in sorted {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

/// Key-prefix lookups into the post-update state `pre ⊕ Δ` of a keyed table
/// without materializing it. Each probe returns the pre-state rows under
/// the prefix minus Δ's deletions plus Δ's insertions, in
/// O(log n + matches + Δ rows under that prefix).
#[derive(Debug)]
pub struct PostStateProbe<'a> {
    pre: &'a Table,
    /// Δ's signed rows, grouped by their key prefix.
    changes: HashMap<Row, Vec<(&'a Row, i64)>>,
}

impl<'a> PostStateProbe<'a> {
    /// Index `delta` (if any) by the first `prefix_len` key columns of
    /// `pre`. O(|Δ|); a keyless `pre` yields a probe that finds nothing.
    pub fn new(pre: &'a Table, delta: Option<&'a Delta>, prefix_len: usize) -> Self {
        let mut changes: HashMap<Row, Vec<(&'a Row, i64)>> = HashMap::new();
        if let (Some(key), Some(delta)) = (pre.schema.key(), delta) {
            let prefix_cols = &key[..prefix_len.min(key.len())];
            for (row, &w) in delta.iter() {
                changes
                    .entry(row.project(prefix_cols))
                    .or_default()
                    .push((row, w));
            }
        }
        PostStateProbe { pre, changes }
    }

    /// The post-state rows whose key starts with `prefix` (bag semantics:
    /// a row deleted `k` times drops `k` pre-state copies).
    pub fn rows_with_key_prefix(&self, prefix: &Row) -> Vec<&'a Row> {
        let changes = self.changes.get(prefix).map_or(&[][..], Vec::as_slice);
        let mut deletes: Vec<(&Row, i64)> = changes
            .iter()
            .filter(|(_, w)| *w < 0)
            .map(|&(row, w)| (row, -w))
            .collect();
        let mut out = Vec::new();
        for row in self.pre.rows_with_key_prefix(prefix) {
            match deletes.iter_mut().find(|(d, left)| *left > 0 && *d == row) {
                Some((_, left)) => *left -= 1,
                None => out.push(row),
            }
        }
        for &(row, w) in changes {
            for _ in 0..w.max(0) {
                out.push(row);
            }
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_pretty_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{DataType, Schema};
    use std::sync::Arc;

    fn keyed_schema() -> SchemaRef {
        Arc::new(
            Schema::from_pairs_keyed(&[("id", DataType::Int), ("name", DataType::Str)], &["id"])
                .unwrap(),
        )
    }

    #[test]
    fn insert_and_lookup_by_key() {
        let mut t = Table::new(keyed_schema());
        t.insert(row![1, "a"]).unwrap();
        t.insert(row![2, "b"]).unwrap();
        assert_eq!(t.get_by_key(&row![1]), Some(&row![1, "a"]));
        assert_eq!(t.get_by_key(&row![3]), None);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = Table::new(keyed_schema());
        t.insert(row![1, "a"]).unwrap();
        assert!(matches!(
            t.insert(row![1, "b"]),
            Err(StorageError::KeyViolation { .. })
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::new(keyed_schema());
        assert!(matches!(
            t.insert(row![1]),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn delete_by_key_fixes_index_of_moved_row() {
        let mut t = Table::new(keyed_schema());
        for i in 0..5 {
            t.insert(row![i, "x"]).unwrap();
        }
        assert_eq!(t.delete_by_key(&row![0]), Some(row![0, "x"]));
        // Row 4 was swap-moved into slot 0; lookup must still find it.
        assert_eq!(t.get_by_key(&row![4]), Some(&row![4, "x"]));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn update_by_key_replaces_in_place() {
        let mut t = Table::new(keyed_schema());
        t.insert(row![1, "a"]).unwrap();
        let old = t.update_by_key(&row![1], row![1, "z"]);
        assert_eq!(old, Some(row![1, "a"]));
        assert_eq!(t.get_by_key(&row![1]), Some(&row![1, "z"]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn upsert_inserts_then_replaces() {
        let mut t = Table::new(keyed_schema());
        assert_eq!(t.upsert(row![1, "a"]).unwrap(), None);
        assert_eq!(t.upsert(row![1, "b"]).unwrap(), Some(row![1, "a"]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn apply_delta_deletes_then_inserts() {
        let mut t = Table::new(keyed_schema());
        t.insert(row![1, "a"]).unwrap();
        let mut d = Delta::new();
        d.add(row![1, "a"], -1);
        d.add(row![1, "b"], 1); // same key re-inserted: must not violate
        t.apply_delta(&d).unwrap();
        assert_eq!(t.get_by_key(&row![1]), Some(&row![1, "b"]));
    }

    #[test]
    fn bag_table_allows_duplicates() {
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]).unwrap());
        let mut t = Table::new(schema);
        t.insert(row![1]).unwrap();
        t.insert(row![1]).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.delete_row(&row![1]));
        assert_eq!(t.len(), 1);
        assert!(!t.delete_row(&row![9]));
    }

    #[test]
    fn bag_eq_ignores_order() {
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]).unwrap());
        let a = Table::bag(schema.clone(), vec![row![1], row![2]]);
        let b = Table::bag(schema, vec![row![2], row![1]]);
        assert!(a.bag_eq(&b));
    }

    #[test]
    fn pretty_print_contains_headers() {
        let mut t = Table::new(keyed_schema());
        t.insert(row![1, "alpha"]).unwrap();
        let s = t.to_pretty_string();
        assert!(s.contains("id"));
        assert!(s.contains("alpha"));
    }

    #[test]
    fn bag_shared_and_clone_share_storage_until_write() {
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]).unwrap());
        let base = Table::bag(schema.clone(), vec![row![1], row![2]]);
        let shared = Table::bag_shared(schema, base.shared_rows());
        assert!(Arc::ptr_eq(&base.shared_rows(), &shared.shared_rows()));
        // Clone shares too; mutation detaches only the writer.
        let mut copy = base.clone();
        assert!(Arc::ptr_eq(&base.shared_rows(), &copy.shared_rows()));
        copy.insert(row![3]).unwrap();
        assert!(!Arc::ptr_eq(&base.shared_rows(), &copy.shared_rows()));
        assert_eq!(base.len(), 2);
        assert_eq!(copy.len(), 3);
        // The un-mutated reader still points at the original allocation.
        assert!(Arc::ptr_eq(&base.shared_rows(), &shared.shared_rows()));
    }

    #[test]
    fn into_keyed_builds_index_without_copying_rows() {
        let bag = Table::bag(
            Arc::new(
                Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]).unwrap(),
            ),
            vec![row![1, "a"], row![2, "b"]],
        );
        let before = bag.shared_rows();
        let keyed = bag.into_keyed(keyed_schema()).unwrap();
        assert!(Arc::ptr_eq(&before, &keyed.shared_rows()));
        assert_eq!(keyed.get_by_key(&row![2]), Some(&row![2, "b"]));
    }

    #[test]
    fn into_keyed_rejects_duplicate_keys_and_bad_arity() {
        let schema = Arc::new(
            Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]).unwrap(),
        );
        let dup = Table::bag(schema.clone(), vec![row![1, "a"], row![1, "b"]]);
        assert!(matches!(
            dup.into_keyed(keyed_schema()),
            Err(StorageError::KeyViolation { .. })
        ));
        let narrow = Table::bag(schema, vec![row![1]]);
        assert!(matches!(
            narrow.into_keyed(keyed_schema()),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn chunk_cache_is_shared_and_invalidated_on_mutation() {
        let mut t = Table::new(keyed_schema());
        t.insert(row![1, "a"]).unwrap();
        let c1 = t.chunk();
        assert!(Arc::ptr_eq(&c1, &t.chunk()), "second call is a cache hit");
        let view = t.as_bag();
        assert!(Arc::ptr_eq(&c1, &view.chunk()), "as_bag shares the cache");

        t.insert(row![2, "b"]).unwrap();
        let c2 = t.chunk();
        assert!(!Arc::ptr_eq(&c1, &c2), "mutation invalidates the cache");
        assert_eq!(c2.to_rows(), t.rows());
        // The pre-mutation view still sees its own rows and its own chunk.
        assert_eq!(view.len(), 1);
        assert_eq!(view.chunk().to_rows(), view.rows());

        t.update_by_key(&row![1], row![1, "z"]).unwrap();
        assert_eq!(t.chunk().to_rows(), t.rows());
        t.delete_by_key(&row![2]).unwrap();
        assert_eq!(t.chunk().to_rows(), t.rows());
        assert!(t.delete_row(&row![1, "z"]));
        assert!(t.chunk().is_empty());
    }

    #[test]
    fn into_keyed_preserves_chunk_cache() {
        let bag = Table::bag(
            Arc::new(
                Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]).unwrap(),
            ),
            vec![row![1, "a"], row![2, "b"]],
        );
        let chunk = bag.chunk();
        let keyed = bag.into_keyed(keyed_schema()).unwrap();
        assert!(
            Arc::ptr_eq(&chunk, &keyed.chunk()),
            "rows unchanged, cache kept"
        );
    }

    /// `(a, b, v)` keyed by `(a, b)`: a two-column key with a usable prefix.
    fn composite_schema() -> SchemaRef {
        Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("a", DataType::Int),
                    ("b", DataType::Int),
                    ("v", DataType::Str),
                ],
                &["a", "b"],
            )
            .unwrap(),
        )
    }

    fn prefix(t: &Table, key: Row) -> Vec<Row> {
        t.rows_with_key_prefix(&key).cloned().collect()
    }

    fn composite() -> Table {
        let mut t = Table::new(composite_schema());
        for (a, b) in [(2, 1), (1, 2), (3, 1), (1, 1), (2, 2), (1, 3)] {
            t.insert(row![a, b, format!("{a}.{b}")]).unwrap();
        }
        t
    }

    #[test]
    fn prefix_and_point_lookups_after_insert() {
        let t = composite();
        assert_eq!(
            prefix(&t, row![1]),
            vec![row![1, 1, "1.1"], row![1, 2, "1.2"], row![1, 3, "1.3"]],
            "prefix rows come back in key order"
        );
        assert_eq!(prefix(&t, row![3]), vec![row![3, 1, "3.1"]]);
        assert!(prefix(&t, row![4]).is_empty());
        assert!(prefix(&t, row![0]).is_empty());
        assert_eq!(prefix(&t, row![2, 2]), vec![row![2, 2, "2.2"]]);
        assert!(prefix(&t, row![2, 3]).is_empty());
        assert_eq!(t.get_by_key(&row![1, 2]), Some(&row![1, 2, "1.2"]));
    }

    #[test]
    fn prefix_lookups_after_swap_remove() {
        let mut t = composite();
        // Slot 0 holds (2, 1); the last row (1, 3) is swapped into it.
        assert_eq!(t.delete_by_key(&row![2, 1]), Some(row![2, 1, "2.1"]));
        assert_eq!(prefix(&t, row![2]), vec![row![2, 2, "2.2"]]);
        assert_eq!(
            prefix(&t, row![1]),
            vec![row![1, 1, "1.1"], row![1, 2, "1.2"], row![1, 3, "1.3"]]
        );
        assert_eq!(t.get_by_key(&row![1, 3]), Some(&row![1, 3, "1.3"]));
        // Deleting the last slot moves nothing.
        assert!(t.delete_by_key(&row![2, 2]).is_some());
        assert!(prefix(&t, row![2]).is_empty());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn prefix_lookups_after_update_and_upsert() {
        let mut t = composite();
        t.update_by_key(&row![1, 2], row![1, 2, "new"]).unwrap();
        assert_eq!(prefix(&t, row![1])[1], row![1, 2, "new"]);
        // Upsert replacing an existing key, then inserting a fresh one.
        assert!(t.upsert(row![3, 1, "up"]).unwrap().is_some());
        assert!(t.upsert(row![3, 0, "ins"]).unwrap().is_none());
        assert_eq!(
            prefix(&t, row![3]),
            vec![row![3, 0, "ins"], row![3, 1, "up"]]
        );
        assert_eq!(t.get_by_key(&row![3, 0]), Some(&row![3, 0, "ins"]));
    }

    #[test]
    fn clones_share_the_index_until_one_writes() {
        let t = composite();
        let mut c = t.clone();
        assert!(
            c.delete_by_key(&row![9, 9]).is_none(),
            "a miss writes nothing"
        );
        c.delete_by_key(&row![1, 1]).unwrap();
        c.insert(row![1, 0, "c"]).unwrap();
        assert_eq!(prefix(&c, row![1])[0], row![1, 0, "c"]);
        assert_eq!(c.get_by_key(&row![1, 1]), None);
        // The original keeps its own rows and index.
        assert_eq!(prefix(&t, row![1])[0], row![1, 1, "1.1"]);
        assert_eq!(t.get_by_key(&row![1, 0]), None);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn into_keyed_builds_the_ordered_index() {
        let bag = Table::bag(
            composite_schema(),
            vec![row![5, 2, "x"], row![4, 1, "y"], row![5, 1, "z"]],
        );
        let keyed = bag.into_keyed(composite_schema()).unwrap();
        assert_eq!(
            prefix(&keyed, row![5]),
            vec![row![5, 1, "z"], row![5, 2, "x"]]
        );
        assert_eq!(keyed.get_by_key(&row![4, 1]), Some(&row![4, 1, "y"]));
        let loaded = Table::from_rows(composite_schema(), vec![row![7, 1, "w"]]).unwrap();
        assert_eq!(prefix(&loaded, row![7]), vec![row![7, 1, "w"]]);
    }

    #[test]
    fn keyless_table_prefix_probe_finds_nothing() {
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]).unwrap());
        let t = Table::bag(schema, vec![row![1], row![1]]);
        assert_eq!(prefix(&t, row![1]).len(), 0);
        assert!(PostStateProbe::new(&t, None, 1)
            .rows_with_key_prefix(&row![1])
            .is_empty());
    }

    #[test]
    fn post_state_probe_applies_delta_under_the_prefix() {
        let pre = composite();
        let mut d = Delta::new();
        d.add(row![1, 2, "1.2"], -1); // delete
        d.add(row![1, 1, "1.1"], -1); // delete + re-insert the same key
        d.add(row![1, 1, "again"], 1);
        d.add(row![1, 9, "new"], 1); // fresh key under the prefix
        d.add(row![9, 9, "gone"], -1); // deleting an absent row is a no-op
        d.add(row![3, 5, "other"], 1); // another prefix
        let probe = PostStateProbe::new(&pre, Some(&d), 1);
        let mut got: Vec<Row> = probe
            .rows_with_key_prefix(&row![1])
            .into_iter()
            .cloned()
            .collect();
        got.sort();
        assert_eq!(
            got,
            vec![row![1, 1, "again"], row![1, 3, "1.3"], row![1, 9, "new"]]
        );
        assert_eq!(probe.rows_with_key_prefix(&row![2]).len(), 2, "untouched");
        assert_eq!(probe.rows_with_key_prefix(&row![3]).len(), 2);
        assert!(probe.rows_with_key_prefix(&row![9]).is_empty());
        // The probe agrees with applying the delta for every prefix.
        let mut post = pre.clone();
        post.apply_delta(&d).unwrap();
        for a in 0..10 {
            let mut want = prefix(&post, row![a]);
            let mut got: Vec<Row> = probe
                .rows_with_key_prefix(&row![a])
                .into_iter()
                .cloned()
                .collect();
            want.sort();
            got.sort();
            assert_eq!(got, want, "prefix {a}");
        }
    }

    #[test]
    fn delete_row_on_keyed_requires_full_match() {
        let mut t = Table::new(keyed_schema());
        t.insert(row![1, "a"]).unwrap();
        assert!(!t.delete_row(&row![1, "zzz"]));
        assert!(t.delete_row(&row![1, "a"]));
        assert!(t.is_empty());
    }
}
