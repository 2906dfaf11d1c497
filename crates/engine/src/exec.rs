//! Physical execution of logical plans.
//!
//! The executor really runs the query over in-memory tables (so rewritings
//! can be validated for correctness) while accounting all *simulated* I/O —
//! bytes read/written, map tasks, shuffle volume — which the cluster
//! simulator turns into elapsed seconds.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use deepsea_relation::row::row_width;
use deepsea_relation::{DataType, Field, Row, Schema, Table, Value};
use deepsea_storage::{FileId, IoError, SimFs};

use crate::catalog::Catalog;
use crate::fxhash::FxBuildHasher;
use crate::plan::{AggFunc, LogicalPlan};

/// Simulated resource usage of one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecMetrics {
    /// Simulated bytes read from base tables and view fragments.
    pub bytes_read: u64,
    /// Simulated bytes written (filled in by instrumentation, not the
    /// read-only executor).
    pub bytes_written: u64,
    /// Rows flowing through operators (CPU proxy).
    pub rows_processed: u64,
    /// Simulated bytes shuffled between map and reduce stages.
    pub shuffle_bytes: u64,
    /// Map tasks launched (one per block of every scanned file).
    pub map_tasks: u64,
    /// Number of MapReduce stages (scan stages + shuffle stages).
    pub stages: u64,
    /// Transient-failure retries absorbed while producing this result.
    pub retries: u64,
    /// Extra simulated seconds from injected latency spikes and retry
    /// backoff — charged on top of the cluster model's elapsed time.
    pub penalty_secs: f64,
}

impl ExecMetrics {
    /// Merge metrics from a sub-execution.
    pub fn absorb(&mut self, other: &ExecMetrics) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.rows_processed += other.rows_processed;
        self.shuffle_bytes += other.shuffle_bytes;
        self.map_tasks += other.map_tasks;
        self.stages += other.stages;
        self.retries += other.retries;
        self.penalty_secs += other.penalty_secs;
    }
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// Plan references a table missing from the catalog.
    UnknownTable(String),
    /// Plan references a column missing from its input schema.
    UnknownColumn(String),
    /// A view fragment file has been evicted.
    MissingFile(FileId),
    /// A retryable I/O fault (flaky read/write); re-running the plan may
    /// succeed.
    TransientIo(IoError),
    /// A fragment file is permanently gone (lost or evicted); retries cannot
    /// help and the caller must fall back to base tables.
    PermanentIo(IoError),
    /// A fragment file failed checksum verification. The data was never
    /// served; the caller must quarantine the owning view and fall back to
    /// base tables.
    CorruptIo(IoError),
}

impl ExecError {
    /// Whether re-running the failed operation could succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, ExecError::TransientIo(_))
    }

    /// The fragment file involved, when the failure names one.
    pub fn file(&self) -> Option<FileId> {
        match self {
            ExecError::MissingFile(id) => Some(*id),
            ExecError::TransientIo(e) | ExecError::PermanentIo(e) | ExecError::CorruptIo(e) => {
                e.file()
            }
            _ => None,
        }
    }
}

impl From<IoError> for ExecError {
    fn from(e: IoError) -> Self {
        match e {
            IoError::Corrupt(_) => ExecError::CorruptIo(e),
            _ if e.is_transient() => ExecError::TransientIo(e),
            _ => ExecError::PermanentIo(e),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            ExecError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            ExecError::MissingFile(id) => write!(f, "missing fragment file {id}"),
            ExecError::TransientIo(e) => write!(f, "transient I/O failure: {e}"),
            ExecError::PermanentIo(e) => write!(f, "permanent I/O failure: {e}"),
            ExecError::CorruptIo(e) => write!(f, "corrupt fragment: {e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::TransientIo(e) | ExecError::PermanentIo(e) | ExecError::CorruptIo(e) => {
                Some(e)
            }
            _ => None,
        }
    }
}

/// A row of one slot of an intermediate result: the index of the part
/// (table) it lives in, in the high 32 bits, and its row in that part.
type RowId = u64;

fn row_id(part: usize, row: usize) -> RowId {
    ((part as u64) << 32) | row as u64
}

/// Intermediate result, late-materialized: references to rows of shared
/// tables, not rows. Rows are built only where a result leaves the engine —
/// the root, a tap, an aggregate's output.
///
/// Every input relation a result draws on is a *slot*: the tables its rows
/// come from (one table, or one per fragment of a view scan). A result row
/// is a tuple of one [`RowId`] per slot, and each output column reads one
/// column of one slot.
struct Out {
    schema: Schema,
    /// Simulated width of one row.
    bytes_per_row: u64,
    /// Per slot, the shared tables its rows live in.
    slots: Vec<Vec<Arc<Table>>>,
    /// Per output column: (slot, column of that slot's tables).
    cols: Vec<(usize, usize)>,
    /// The selection: one `slots.len()`-tuple of row ids per row, in
    /// output order, flattened.
    ids: Vec<RowId>,
}

/// One column of an [`Out`], resolved once for reads row after row.
#[derive(Clone, Copy)]
struct Col<'a> {
    parts: &'a [Arc<Table>],
    slot: usize,
    col: usize,
}

impl<'a> Col<'a> {
    fn get(&self, tuple: &[RowId]) -> &'a Value {
        let id = tuple[self.slot];
        &self.parts[(id >> 32) as usize].rows[id as u32 as usize][self.col]
    }
}

impl Out {
    /// All rows of `table`, under its own schema and width.
    fn table(table: Arc<Table>) -> Out {
        Out {
            schema: table.schema.clone(),
            bytes_per_row: table.bytes_per_row,
            cols: (0..table.schema.len()).map(|c| (0, c)).collect(),
            ids: (0..table.len()).map(|r| row_id(0, r)).collect(),
            slots: vec![vec![table]],
        }
    }

    fn width(&self) -> usize {
        self.slots.len()
    }

    fn len(&self) -> usize {
        self.ids.len() / self.width()
    }

    fn sim_bytes(&self) -> u64 {
        self.len() as u64 * self.bytes_per_row
    }

    fn tuples(&self) -> std::slice::ChunksExact<'_, RowId> {
        self.ids.chunks_exact(self.width())
    }

    fn tuple(&self, r: usize) -> &[RowId] {
        let w = self.width();
        &self.ids[r * w..(r + 1) * w]
    }

    fn col(&self, c: usize) -> Col<'_> {
        let (slot, col) = self.cols[c];
        Col {
            parts: &self.slots[slot],
            slot,
            col,
        }
    }

    fn all_cols(&self) -> Vec<Col<'_>> {
        (0..self.cols.len()).map(|c| self.col(c)).collect()
    }

    /// The table this result is, unchanged — every row in order under the
    /// table's own schema and width — if it is one.
    fn whole_table(&self) -> Option<&Arc<Table>> {
        let [parts] = self.slots.as_slice() else {
            return None;
        };
        let [t] = parts.as_slice() else {
            return None;
        };
        let same_cols = self.cols.len() == t.schema.len()
            && self.cols.iter().enumerate().all(|(i, &c)| c == (0, i));
        let same_rows = self.ids.len() == t.len()
            && self
                .ids
                .iter()
                .enumerate()
                .all(|(r, &id)| id == row_id(0, r));
        (same_cols && same_rows && self.schema == t.schema && self.bytes_per_row == t.bytes_per_row)
            .then_some(t)
    }

    /// Build the rows.
    fn rows(&self) -> Vec<Row> {
        let cols = self.all_cols();
        self.tuples()
            .map(|t| cols.iter().map(|c| c.get(t).clone()).collect())
            .collect()
    }

    fn into_table(self) -> Table {
        let rows = self.rows();
        Table::new(self.schema, rows, self.bytes_per_row)
    }

    /// Build the rows into a shareable table, and read from it from here
    /// on. A result that already is a whole table is shared, not copied.
    fn freeze(&mut self) -> Arc<Table> {
        if let Some(t) = self.whole_table() {
            return Arc::clone(t);
        }
        let table = Arc::new(Table::new(
            self.schema.clone(),
            self.rows(),
            self.bytes_per_row,
        ));
        *self = Out::table(Arc::clone(&table));
        table
    }
}

/// The intermediate results an execution was asked to hand back: one slot
/// per requested subplan, filled by the first node structurally equal to it.
struct Taps<'p> {
    wanted: &'p [&'p LogicalPlan],
    got: Vec<Option<Arc<Table>>>,
}

impl Taps<'_> {
    fn capture(&mut self, plan: &LogicalPlan, out: &mut Out) {
        for (want, slot) in self.wanted.iter().zip(&mut self.got) {
            if slot.is_none() && *want == plan {
                *slot = Some(out.freeze());
            }
        }
    }
}

/// Average actual (in-memory serialized) width of the first `n` rows,
/// sampled: at most 128 rows, by `width(r)` of row `r`.
fn avg_actual_width(n: usize, width: impl Fn(usize) -> u64) -> f64 {
    if n == 0 {
        return 8.0;
    }
    let n = n.min(128);
    let total: u64 = (0..n).map(width).sum();
    (total as f64 / n as f64).max(1.0)
}

fn out_width(out: &Out) -> f64 {
    let cols = out.all_cols();
    avg_actual_width(out.len(), |r| {
        let t = out.tuple(r);
        cols.iter().map(|c| c.get(t).width()).sum()
    })
}

/// Execute `plan` against `catalog`, reading view fragments from `fs`.
/// Returns the result table and the simulated resource usage.
pub fn execute(
    plan: &LogicalPlan,
    catalog: &Catalog,
    fs: &SimFs<Table>,
) -> Result<(Table, ExecMetrics), ExecError> {
    let (table, m, _) = execute_tapped(plan, &[], catalog, fs)?;
    Ok((table, m))
}

/// A result table, its metrics, and one slot per requested tap.
pub type Tapped = (Table, ExecMetrics, Vec<Option<Arc<Table>>>);

/// [`execute`], also handing back the intermediate result of every subplan
/// in `taps` that occurs in `plan` (compared structurally; `None` for one
/// that does not occur). A tapped result is exactly what executing that
/// subplan on its own returns, and tapping changes neither the main result
/// nor the metrics: the operators above a tap read the rows it built.
pub fn execute_tapped(
    plan: &LogicalPlan,
    taps: &[&LogicalPlan],
    catalog: &Catalog,
    fs: &SimFs<Table>,
) -> Result<Tapped, ExecError> {
    let mut m = ExecMetrics::default();
    let mut t = Taps {
        wanted: taps,
        got: vec![None; taps.len()],
    };
    let out = run(plan, catalog, fs, &mut m, &mut t)?;
    Ok((out.into_table(), m, t.got))
}

fn run(
    plan: &LogicalPlan,
    catalog: &Catalog,
    fs: &SimFs<Table>,
    m: &mut ExecMetrics,
    taps: &mut Taps<'_>,
) -> Result<Out, ExecError> {
    let mut out = run_node(plan, catalog, fs, m, taps)?;
    taps.capture(plan, &mut out);
    Ok(out)
}

fn run_node(
    plan: &LogicalPlan,
    catalog: &Catalog,
    fs: &SimFs<Table>,
    m: &mut ExecMetrics,
    taps: &mut Taps<'_>,
) -> Result<Out, ExecError> {
    match plan {
        LogicalPlan::Scan { table } => {
            let t = catalog
                .get(table)
                .ok_or_else(|| ExecError::UnknownTable(table.clone()))?;
            m.bytes_read += t.sim_bytes();
            m.map_tasks += fs.block_config().blocks_for(t.sim_bytes());
            m.stages += 1;
            m.rows_processed += t.len() as u64;
            Ok(Out::table(Arc::clone(t)))
        }
        LogicalPlan::ViewScan(v) => {
            let mut parts = Vec::with_capacity(v.files.len());
            let mut ids = Vec::new();
            let mut bpr = 8u64;
            for &fid in &v.files {
                let out = fs.try_read(fid).map_err(ExecError::from)?;
                m.penalty_secs += out.spike_secs;
                let (payload, bytes) = (out.value, out.sim_bytes);
                m.bytes_read += bytes;
                m.map_tasks += fs.block_config().blocks_for(bytes);
                m.rows_processed += payload.len() as u64;
                bpr = bpr.max(payload.bytes_per_row);
                let p = parts.len();
                ids.extend((0..payload.len()).map(|r| row_id(p, r)));
                parts.push(payload);
            }
            m.stages += 1;
            Ok(Out {
                schema: v.schema.clone(),
                bytes_per_row: bpr,
                cols: (0..v.schema.len()).map(|c| (0, c)).collect(),
                ids,
                slots: vec![parts],
            })
        }
        LogicalPlan::Select { pred, input } => {
            let child = run(input, catalog, fs, m, taps)?;
            m.rows_processed += child.len() as u64;
            let pred = pred.bind(&child.schema);
            let cols = child.all_cols();
            let mut ids = Vec::new();
            for t in child.tuples() {
                if pred.eval_with(|c| cols[c].get(t)) {
                    ids.extend_from_slice(t);
                }
            }
            Ok(Out { ids, ..child })
        }
        LogicalPlan::Project { cols, input } => {
            let child = run(input, catalog, fs, m, taps)?;
            m.rows_processed += child.len() as u64;
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            let (schema, idxs) = child.schema.project(&names).ok_or_else(|| {
                let unknown = names.iter().find(|n| child.schema.index_of(n).is_none());
                ExecError::UnknownColumn(unknown.copied().unwrap_or_default().to_string())
            })?;
            let in_width = out_width(&child);
            let out = Out {
                schema,
                cols: idxs.iter().map(|&i| child.cols[i]).collect(),
                ..child
            };
            // Keep the simulated-bytes scale of the input: a projection keeps
            // the same fraction of simulated width as of actual width.
            let bpr = ((out.bytes_per_row as f64) * (out_width(&out) / in_width))
                .round()
                .max(1.0) as u64;
            Ok(Out {
                bytes_per_row: bpr,
                ..out
            })
        }
        LogicalPlan::Join { left, right, on } => {
            let l = run(left, catalog, fs, m, taps)?;
            let r = run(right, catalog, fs, m, taps)?;
            // A repartition join shuffles both inputs.
            m.shuffle_bytes += l.sim_bytes() + r.sim_bytes();
            m.stages += 1;
            m.rows_processed += (l.len() + r.len()) as u64;

            // Resolve join columns against the two input schemas; accept the
            // pairs in either order.
            let mut lk = Vec::with_capacity(on.len());
            let mut rk = Vec::with_capacity(on.len());
            for (a, b) in on {
                match (l.schema.index_of(a), r.schema.index_of(b)) {
                    (Some(ai), Some(bi)) => {
                        lk.push(ai);
                        rk.push(bi);
                    }
                    _ => match (l.schema.index_of(b), r.schema.index_of(a)) {
                        (Some(bi), Some(ai)) => {
                            lk.push(bi);
                            rk.push(ai);
                        }
                        _ => {
                            return Err(ExecError::UnknownColumn(format!("{a} = {b}")));
                        }
                    },
                }
            }

            // Build on the smaller input.
            let ids = if l.len() <= r.len() {
                hash_join(&l, &lk, &r, &rk, true)
            } else {
                hash_join(&r, &rk, &l, &lk, false)
            };
            let n = ids.len() / (l.width() + r.width());
            m.rows_processed += n as u64;
            let shift = l.width();
            let schema = l.schema.concat(&r.schema);
            let mut slots = l.slots;
            slots.extend(r.slots);
            let mut cols = l.cols;
            cols.extend(r.cols.iter().map(|&(s, c)| (s + shift, c)));
            Ok(Out {
                schema,
                bytes_per_row: l.bytes_per_row + r.bytes_per_row,
                slots,
                cols,
                ids,
            })
        }
        LogicalPlan::Aggregate {
            group_by,
            aggs,
            input,
        } => {
            let child = run(input, catalog, fs, m, taps)?;
            m.shuffle_bytes += child.sim_bytes();
            m.stages += 1;
            m.rows_processed += child.len() as u64;

            let gidx: Vec<usize> = group_by
                .iter()
                .map(|g| {
                    child
                        .schema
                        .index_of(g)
                        .ok_or_else(|| ExecError::UnknownColumn(g.clone()))
                })
                .collect::<Result<_, _>>()?;
            let aidx: Vec<Option<usize>> = aggs
                .iter()
                .map(|a| match &a.col {
                    Some(c) => child
                        .schema
                        .index_of(c)
                        .map(Some)
                        .ok_or_else(|| ExecError::UnknownColumn(c.clone())),
                    None => Ok(None),
                })
                .collect::<Result<_, _>>()?;

            let keys: Vec<Col<'_>> = gidx.iter().map(|&i| child.col(i)).collect();
            let args: Vec<Option<Col<'_>>> = aidx.iter().map(|i| i.map(|i| child.col(i))).collect();
            let new_states = || aggs.iter().map(|a| AggState::new(a.func)).collect();
            // Groups in first-seen order: the key, cloned once, and the
            // states.
            let mut groups: Vec<(Row, Vec<AggState>)> = Vec::new();
            let mut index = KeyIds::default();
            for t in child.tuples() {
                let g = *index.entry(Key::new(&keys, t)).or_insert_with(|| {
                    let key = keys.iter().map(|c| c.get(t).clone()).collect();
                    groups.push((key, new_states()));
                    groups.len() as u32 - 1
                });
                let states = &mut groups[g as usize].1;
                for (s, arg) in states.iter_mut().zip(&args) {
                    s.update(arg.map(|c| c.get(t)));
                }
            }
            // Global aggregation over empty input still yields one row.
            if gidx.is_empty() && groups.is_empty() {
                groups.push((Vec::new(), new_states()));
            }

            let mut fields: Vec<Field> = gidx
                .iter()
                .map(|&i| child.schema.field(i).clone())
                .collect();
            for (a, idx) in aggs.iter().zip(&aidx) {
                let dtype = match a.func {
                    AggFunc::Count => DataType::Int,
                    AggFunc::Sum | AggFunc::Avg => DataType::Float,
                    AggFunc::Min | AggFunc::Max => idx
                        .map(|i| child.schema.field(i).dtype)
                        .unwrap_or(DataType::Int),
                };
                fields.push(Field::new(a.alias.clone(), dtype));
            }
            let schema = Schema::new(fields);
            let mut rows: Vec<Row> = groups
                .into_iter()
                .map(|(mut row, states)| {
                    row.extend(states.into_iter().map(AggState::finish));
                    row
                })
                .collect();
            // Deterministic output order for reproducibility.
            rows.sort_unstable();
            m.rows_processed += rows.len() as u64;
            let agg_width = avg_actual_width(rows.len(), |r| row_width(&rows[r]));
            // Aggregates produce compact rows; keep the input's scale factor.
            let in_width = out_width(&child);
            let bpr = ((child.bytes_per_row as f64) * (agg_width / in_width))
                .round()
                .max(1.0) as u64;
            Ok(Out::table(Arc::new(Table::new(schema, rows, bpr))))
        }
    }
}

/// The key of one row of an [`Out`]: its values in `cols`, read in place.
/// Keys compare value by value, so a build row's key and a probe row's key,
/// read through different columns, compare directly.
#[derive(Clone, Copy)]
struct Key<'a> {
    cols: &'a [Col<'a>],
    tuple: &'a [RowId],
}

impl<'a> Key<'a> {
    fn new(cols: &'a [Col<'a>], tuple: &'a [RowId]) -> Self {
        Key { cols, tuple }
    }

    fn values(self) -> impl Iterator<Item = &'a Value> {
        self.cols.iter().map(move |c| c.get(self.tuple))
    }

    fn has_null(self) -> bool {
        self.values().any(|v| *v == Value::Null)
    }
}

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.values().eq(other.values())
    }
}

impl Eq for Key<'_> {}

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().for_each(|v| v.hash(state));
    }
}

// deepsea-lint: allow(hash_iter) -- key -> dense id, point lookups only (never
// iterated); ids follow first-seen order, so hash order never reaches output.
type KeyIds<K> = HashMap<K, u32, FxBuildHasher>;

/// Key id of a row whose key has a NULL, or (probe side) matches no build
/// row.
const NO_KEY: u32 = u32::MAX;

/// Inner equi-join of `build` and `probe` on the key columns `bk` = `pk`:
/// the output tuples (left input's ids first) in probe order, and in build
/// order within one probe row. A key with a NULL never joins.
fn hash_join(
    build: &Out,
    bk: &[usize],
    probe: &Out,
    pk: &[usize],
    build_is_left: bool,
) -> Vec<RowId> {
    let bcols: Vec<Col<'_>> = bk.iter().map(|&c| build.col(c)).collect();
    let pcols: Vec<Col<'_>> = pk.iter().map(|&c| probe.col(c)).collect();
    // An `i64` key when it is one column of `Int`s (and NULLs) on both
    // sides; otherwise a key of values, compared as `Value`s.
    let int_keys = match (bcols.as_slice(), pcols.as_slice()) {
        ([b], [p]) => int_key_ids(build, *b, probe, *p),
        _ => None,
    };
    let (keys, build_keys, probe_keys) =
        int_keys.unwrap_or_else(|| value_key_ids(build, &bcols, probe, &pcols));
    // Counting sort of the build rows by key id (stable): the rows of key
    // `k` are `rows[starts[k]..starts[k + 1]]`, in build order.
    let mut starts = vec![0u32; keys + 1];
    for &k in build_keys.iter().filter(|&&k| k != NO_KEY) {
        starts[k as usize + 1] += 1;
    }
    for k in 1..starts.len() {
        starts[k] += starts[k - 1];
    }
    let mut next = starts.clone();
    let mut rows = vec![0u32; starts[keys] as usize];
    for (i, &k) in build_keys.iter().enumerate().filter(|(_, &k)| k != NO_KEY) {
        rows[next[k as usize] as usize] = i as u32;
        next[k as usize] += 1;
    }

    let mut ids = Vec::new();
    for (pt, &k) in probe.tuples().zip(&probe_keys) {
        if k == NO_KEY {
            continue;
        }
        for &b in &rows[starts[k as usize] as usize..starts[k as usize + 1] as usize] {
            let bt = build.tuple(b as usize);
            let (lt, rt) = if build_is_left { (bt, pt) } else { (pt, bt) };
            ids.extend_from_slice(lt);
            ids.extend_from_slice(rt);
        }
    }
    ids
}

/// Key ids of the `i64` keys in columns `b` and `p`: the number of distinct
/// build keys, and the id of every build and probe row's key (ids dense in
/// first-seen build order). `None` as soon as a value is neither an `Int`
/// nor NULL.
fn int_key_ids(
    build: &Out,
    b: Col<'_>,
    probe: &Out,
    p: Col<'_>,
) -> Option<(usize, Vec<u32>, Vec<u32>)> {
    let mut index = KeyIds::with_capacity_and_hasher(build.len(), FxBuildHasher::default());
    let mut build_ids = Vec::with_capacity(build.len());
    for t in build.tuples() {
        build_ids.push(match *b.get(t) {
            Value::Int(k) => {
                let next = index.len() as u32;
                *index.entry(k).or_insert(next)
            }
            Value::Null => NO_KEY,
            _ => return None,
        });
    }
    let mut probe_ids = Vec::with_capacity(probe.len());
    for t in probe.tuples() {
        probe_ids.push(match p.get(t) {
            Value::Int(k) => index.get(k).copied().unwrap_or(NO_KEY),
            Value::Null => NO_KEY,
            _ => return None,
        });
    }
    Some((index.len(), build_ids, probe_ids))
}

/// [`int_key_ids`] for keys of any values, read in place.
fn value_key_ids(
    build: &Out,
    bcols: &[Col<'_>],
    probe: &Out,
    pcols: &[Col<'_>],
) -> (usize, Vec<u32>, Vec<u32>) {
    let mut index = KeyIds::with_capacity_and_hasher(build.len(), FxBuildHasher::default());
    let build_ids = build
        .tuples()
        .map(|t| {
            let key = Key::new(bcols, t);
            if key.has_null() {
                return NO_KEY;
            }
            let next = index.len() as u32;
            *index.entry(key).or_insert(next)
        })
        .collect();
    let probe_ids = probe
        .tuples()
        .map(|t| {
            let key = Key::new(pcols, t);
            if key.has_null() {
                return NO_KEY;
            }
            index.get(&key).copied().unwrap_or(NO_KEY)
        })
        .collect();
    (index.len(), build_ids, probe_ids)
}

/// Streaming aggregate state.
enum AggState {
    Count(i64),
    Sum(f64, bool),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg(f64, i64),
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(0.0, false),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg(0.0, 0),
        }
    }

    fn update(&mut self, v: Option<&Value>) {
        match self {
            AggState::Count(c) => *c += 1,
            AggState::Sum(s, seen) => {
                if let Some(x) = v.and_then(Value::as_float) {
                    *s += x;
                    *seen = true;
                }
            }
            AggState::Min(cur) => {
                if let Some(x) = v {
                    if *x != Value::Null && cur.as_ref().is_none_or(|c| x < c) {
                        *cur = Some(x.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(x) = v {
                    if *x != Value::Null && cur.as_ref().is_none_or(|c| x > c) {
                        *cur = Some(x.clone());
                    }
                }
            }
            AggState::Avg(s, n) => {
                if let Some(x) = v.and_then(Value::as_float) {
                    *s += x;
                    *n += 1;
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(c),
            AggState::Sum(s, seen) => {
                if seen {
                    Value::Float(s)
                } else {
                    Value::Null
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::Avg(s, n) => {
                if n > 0 {
                    Value::Float(s / n as f64)
                } else {
                    Value::Null
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggExpr;
    use deepsea_relation::Predicate;
    use deepsea_storage::{BlockConfig, CostWeights};

    fn fixture() -> (Catalog, SimFs<Table>) {
        let mut c = Catalog::new();
        let sales = Table::new(
            Schema::new(vec![
                Field::new("s.item", DataType::Int),
                Field::new("s.amount", DataType::Float),
            ]),
            vec![
                vec![Value::Int(1), Value::Float(10.0)],
                vec![Value::Int(1), Value::Float(20.0)],
                vec![Value::Int(2), Value::Float(5.0)],
                vec![Value::Int(3), Value::Float(7.0)],
                vec![Value::Null, Value::Float(99.0)],
            ],
            1000,
        );
        let item = Table::new(
            Schema::new(vec![
                Field::new("i.item", DataType::Int),
                Field::new("i.cat", DataType::Str),
            ]),
            vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(2), Value::str("b")],
                vec![Value::Int(4), Value::str("c")],
            ],
            100,
        );
        c.register("sales", sales);
        c.register("item", item);
        let fs = SimFs::new(BlockConfig::new(1024), CostWeights::default());
        (c, fs)
    }

    #[test]
    fn scan_reports_bytes_and_tasks() {
        let (c, fs) = fixture();
        let (t, m) = execute(&LogicalPlan::scan("sales"), &c, &fs).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(m.bytes_read, 5000);
        assert_eq!(m.map_tasks, 5); // 5000 / 1024 -> 5 blocks
        assert_eq!(m.stages, 1);
    }

    #[test]
    fn unknown_table_errors() {
        let (c, fs) = fixture();
        let err = execute(&LogicalPlan::scan("zzz"), &c, &fs).unwrap_err();
        assert_eq!(err, ExecError::UnknownTable("zzz".into()));
    }

    #[test]
    fn select_filters_rows() {
        let (c, fs) = fixture();
        let plan = LogicalPlan::scan("sales").select(Predicate::range("s.item", 1, 2));
        let (t, _) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t.len(), 3, "NULL item excluded");
    }

    #[test]
    fn project_keeps_order_and_scales_width() {
        let (c, fs) = fixture();
        let plan = LogicalPlan::scan("sales").project(vec!["s.amount", "s.item"]);
        let (t, _) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t.schema.field(0).name, "s.amount");
        assert_eq!(t.bytes_per_row, 1000, "keeping all columns keeps the width");
        let narrow = LogicalPlan::scan("sales").project(vec!["s.item"]);
        let (t2, _) = execute(&narrow, &c, &fs).unwrap();
        assert!(
            t2.bytes_per_row < 1000,
            "projection shrinks simulated width"
        );
        assert!(t2.bytes_per_row > 0);
    }

    #[test]
    fn project_unknown_column_errors() {
        let (c, fs) = fixture();
        let plan = LogicalPlan::scan("sales").project(vec!["nope"]);
        assert!(matches!(
            execute(&plan, &c, &fs),
            Err(ExecError::UnknownColumn(_))
        ));
    }

    #[test]
    fn hash_join_inner_semantics() {
        let (c, fs) = fixture();
        let plan =
            LogicalPlan::scan("sales").join(LogicalPlan::scan("item"), vec![("s.item", "i.item")]);
        let (t, m) = execute(&plan, &c, &fs).unwrap();
        // items 1 (x2 sales), 2 (x1) match; 3 and NULL don't; item 4 unmatched.
        assert_eq!(t.len(), 3);
        assert_eq!(t.schema.len(), 4);
        assert!(m.shuffle_bytes > 0);
        assert_eq!(t.bytes_per_row, 1100);
        // Columns from the left input come first regardless of build side.
        assert_eq!(t.schema.field(0).name, "s.item");
    }

    #[test]
    fn join_accepts_swapped_on_pairs() {
        let (c, fs) = fixture();
        let plan =
            LogicalPlan::scan("sales").join(LogicalPlan::scan("item"), vec![("i.item", "s.item")]);
        let (t, _) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn join_and_group_keys_follow_value_eq_across_types() {
        // `Int(1) == Float(1.0)`: such keys join and group together, in
        // probe order and then build order, whichever key path runs.
        let (mut c, fs) = fixture();
        let mixed = Table::new(
            Schema::new(vec![Field::new("m.k", DataType::Float)]),
            vec![
                vec![Value::Float(1.0)],
                vec![Value::Float(2.5)],
                vec![Value::Null],
                vec![Value::Int(1)],
            ],
            10,
        );
        c.register("mixed", mixed);
        let plan =
            LogicalPlan::scan("mixed").join(LogicalPlan::scan("item"), vec![("m.k", "i.item")]);
        let (t, _) = execute(&plan, &c, &fs).unwrap();
        // Compared by `Debug`: `Eq` alone cannot tell `Int(1)` from
        // `Float(1.0)`.
        let exact = |rows: &[Row]| format!("{rows:?}");
        assert_eq!(
            exact(&t.rows),
            exact(&[
                vec![Value::Float(1.0), Value::Int(1), Value::str("a")],
                vec![Value::Int(1), Value::Int(1), Value::str("a")],
            ])
        );
        let plan = LogicalPlan::scan("mixed").aggregate(vec!["m.k"], vec![AggExpr::count("n")]);
        let (t, _) = execute(&plan, &c, &fs).unwrap();
        // Groups keep their first key: Float(1.0) absorbs Int(1).
        assert_eq!(
            exact(&t.rows),
            exact(&[
                vec![Value::Null, Value::Int(1)],
                vec![Value::Float(1.0), Value::Int(2)],
                vec![Value::Float(2.5), Value::Int(1)],
            ])
        );
    }

    #[test]
    fn aggregate_group_by() {
        let (c, fs) = fixture();
        let plan = LogicalPlan::scan("sales").aggregate(
            vec!["s.item"],
            vec![
                AggExpr::count("cnt"),
                AggExpr::of(AggFunc::Sum, "s.amount", "total"),
                AggExpr::of(AggFunc::Avg, "s.amount", "avg"),
                AggExpr::of(AggFunc::Min, "s.amount", "lo"),
                AggExpr::of(AggFunc::Max, "s.amount", "hi"),
            ],
        );
        let (t, _) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t.len(), 4); // groups: NULL, 1, 2, 3 (sorted, NULL first)
        let g1 = t
            .rows
            .iter()
            .find(|r| r[0] == Value::Int(1))
            .expect("group 1");
        assert_eq!(g1[1], Value::Int(2));
        assert_eq!(g1[2], Value::Float(30.0));
        assert_eq!(g1[3], Value::Float(15.0));
        assert_eq!(g1[4], Value::Float(10.0));
        assert_eq!(g1[5], Value::Float(20.0));
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_row() {
        let (c, fs) = fixture();
        let plan = LogicalPlan::scan("sales")
            .select(Predicate::range("s.item", 100, 200))
            .aggregate(
                Vec::<String>::new(),
                vec![
                    AggExpr::count("cnt"),
                    AggExpr::of(AggFunc::Sum, "s.amount", "t"),
                ],
            );
        let (t, _) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows[0][0], Value::Int(0));
        assert_eq!(t.rows[0][1], Value::Null);
    }

    #[test]
    fn view_scan_reads_fragments_and_charges_fs() {
        let (c, fs) = fixture();
        let frag_schema = Schema::new(vec![Field::new("v.a", DataType::Int)]);
        let f1 = Table::new(frag_schema.clone(), vec![vec![Value::Int(1)]], 500);
        let f2 = Table::new(frag_schema.clone(), vec![vec![Value::Int(2)]], 500);
        let (id1, _) = fs.create("f1", f1.sim_bytes(), f1);
        let (id2, _) = fs.create("f2", f2.sim_bytes(), f2);
        let plan = LogicalPlan::ViewScan(crate::plan::ViewScanInfo {
            view_name: "v".into(),
            files: vec![id1, id2],
            schema: frag_schema,
        });
        let (t, m) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(m.bytes_read, 1000);
        assert_eq!(fs.ledger().files_read, 2);
        // Evict one fragment: execution must now fail permanently.
        fs.delete(id2);
        let err = execute(&plan, &c, &fs).unwrap_err();
        assert_eq!(err, ExecError::PermanentIo(IoError::PermanentLoss(id2)));
        assert!(!err.is_transient());
        assert_eq!(err.file(), Some(id2));
        use std::error::Error;
        assert!(err.source().is_some(), "I/O variants carry a source chain");
    }

    #[test]
    fn view_scan_surfaces_transient_faults() {
        use deepsea_storage::{BlockConfig, CostWeights, FaultConfig, FaultInjector};
        let (c, _) = fixture();
        let fs = SimFs::with_faults(
            BlockConfig::new(1024),
            CostWeights::default(),
            FaultInjector::new(FaultConfig::seeded(5).with_transient_reads(1.0)),
        );
        let frag_schema = Schema::new(vec![Field::new("v.a", DataType::Int)]);
        let f1 = Table::new(frag_schema.clone(), vec![vec![Value::Int(1)]], 500);
        let (id1, _) = fs.create("f1", f1.sim_bytes(), f1);
        let plan = LogicalPlan::ViewScan(crate::plan::ViewScanInfo {
            view_name: "v".into(),
            files: vec![id1],
            schema: frag_schema,
        });
        let err = execute(&plan, &c, &fs).unwrap_err();
        assert_eq!(err, ExecError::TransientIo(IoError::TransientRead(id1)));
        assert!(err.is_transient());
    }

    #[test]
    fn view_scan_surfaces_corruption_without_serving_data() {
        let (c, fs) = fixture();
        let frag_schema = Schema::new(vec![Field::new("v.a", DataType::Int)]);
        let f1 = Table::new(frag_schema.clone(), vec![vec![Value::Int(1)]], 500);
        let (id1, _) = fs.create("f1", f1.sim_bytes(), f1);
        fs.corrupt_file(id1);
        let plan = LogicalPlan::ViewScan(crate::plan::ViewScanInfo {
            view_name: "v".into(),
            files: vec![id1],
            schema: frag_schema,
        });
        let err = execute(&plan, &c, &fs).unwrap_err();
        assert_eq!(err, ExecError::CorruptIo(IoError::Corrupt(id1)));
        assert!(!err.is_transient(), "corruption is never retryable");
        assert_eq!(err.file(), Some(id1));
        assert_eq!(fs.ledger().files_read, 0, "corrupt data is never served");
    }

    /// `fact ⋈ item` filtered and grouped: every operator kind, with a
    /// join subtree worth tapping.
    fn tapped_fixture_plan() -> (LogicalPlan, LogicalPlan, LogicalPlan) {
        let scan = LogicalPlan::scan("sales");
        let join = scan
            .clone()
            .join(LogicalPlan::scan("item"), vec![("s.item", "i.item")]);
        let plan = join
            .clone()
            .select(Predicate::range("s.item", 1, 3))
            .project(vec!["i.cat", "s.amount"])
            .aggregate(
                vec!["i.cat"],
                vec![AggExpr::of(AggFunc::Sum, "s.amount", "total")],
            );
        (plan, join, scan)
    }

    fn assert_same_table(tapped: &Table, direct: &Table) {
        assert_eq!(tapped.fingerprint(), direct.fingerprint());
        assert_eq!(tapped.rows, direct.rows, "same rows in the same order");
        assert_eq!(tapped.schema, direct.schema);
        assert_eq!(tapped.bytes_per_row, direct.bytes_per_row);
        assert_eq!(tapped.sim_bytes(), direct.sim_bytes());
    }

    #[test]
    fn tapped_execution_matches_untapped_and_each_subplan() {
        let (c, fs) = fixture();
        let (plan, join, scan) = tapped_fixture_plan();
        let absent = LogicalPlan::scan("item").select(Predicate::range("i.item", 0, 9));
        let taps = [&join, &scan, &absent, &join, &plan];
        let (t, m, got) = execute_tapped(&plan, &taps, &c, &fs).unwrap();
        let (t0, m0) = execute(&plan, &c, &fs).unwrap();
        // Main result and metrics are untouched by tapping, bit for bit.
        assert_same_table(&t, &t0);
        assert_eq!(m, m0);
        assert_eq!(m.penalty_secs.to_bits(), m0.penalty_secs.to_bits());
        assert_eq!(got.len(), taps.len());
        // Every present subplan equals its own execution; the root tap
        // equals the main result.
        for (want, tap) in taps.iter().zip(&got) {
            if *want == &absent {
                assert!(tap.is_none(), "a subplan not in the plan yields None");
                continue;
            }
            let tap = tap.as_ref().expect("subplan occurs in the plan");
            let (direct, _) = execute(want, &c, &fs).unwrap();
            assert_same_table(tap, &direct);
        }
        // The same subplan requested twice shares one frozen table.
        let (a, b) = (got[0].as_ref().unwrap(), got[3].as_ref().unwrap());
        assert!(Arc::ptr_eq(a, b), "one intermediate result, shared");
        // A base-table tap is the catalog's own table, not a copy.
        let sales = c.get("sales").unwrap();
        assert!(Arc::ptr_eq(got[1].as_ref().unwrap(), sales));
    }

    #[test]
    fn tapped_execution_without_taps_is_execute() {
        let (c, fs) = fixture();
        let (plan, ..) = tapped_fixture_plan();
        let (t, m, got) = execute_tapped(&plan, &[], &c, &fs).unwrap();
        let (t0, m0) = execute(&plan, &c, &fs).unwrap();
        assert_same_table(&t, &t0);
        assert_eq!(m, m0);
        assert!(got.is_empty());
    }

    #[test]
    fn aggregate_rows_sorted_deterministically() {
        let (c, fs) = fixture();
        let plan =
            LogicalPlan::scan("sales").aggregate(vec!["s.item"], vec![AggExpr::count("cnt")]);
        let (t1, _) = execute(&plan, &c, &fs).unwrap();
        let (t2, _) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t1.rows, t2.rows);
    }
}
