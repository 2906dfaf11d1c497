//! Property test: the executor agrees, bit for bit, with a naive reference
//! evaluator — nested-loop joins and row-at-a-time select, project and
//! aggregate over fully built rows — on random plans of up to three joins
//! over inputs with NULL, duplicate, `Str` and mixed `Int`/`Float` keys and
//! empty tables. Rows (in order), schema, simulated width, metrics and every
//! requested tap must be identical.

use std::sync::Arc;

use deepsea::engine::plan::{AggExpr, AggFunc, ViewScanInfo};
use deepsea::engine::{execute, execute_tapped, Catalog, ExecError, ExecMetrics, LogicalPlan};
use deepsea::relation::row::row_width;
use deepsea::relation::{DataType, Field, Predicate, Row, Schema, Table, Value};
use deepsea::storage::{BlockConfig, CostWeights, SimFs};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

// ---------------------------------------------------------------------------
// The reference evaluator.

struct RefOut {
    schema: Schema,
    rows: Vec<Row>,
    bytes_per_row: u64,
}

impl RefOut {
    fn sim_bytes(&self) -> u64 {
        self.rows.len() as u64 * self.bytes_per_row
    }
}

/// The executor's width rule: mean actual width of the first 128 rows.
fn avg_actual_width(rows: &[Row]) -> f64 {
    if rows.is_empty() {
        return 8.0;
    }
    let n = rows.len().min(128);
    let total: u64 = rows[..n].iter().map(row_width).sum();
    (total as f64 / n as f64).max(1.0)
}

fn scaled_width(bpr: u64, out: &[Row], input: &[Row]) -> u64 {
    ((bpr as f64) * (avg_actual_width(out) / avg_actual_width(input)))
        .round()
        .max(1.0) as u64
}

/// Whether `row` satisfies `pred`, each column looked up by name on the
/// spot: an unknown or ambiguous column, or a NULL cell, fails its
/// conjunct. Independent of `Predicate::bind`, which the executor runs.
fn holds(pred: &Predicate, schema: &Schema, row: &Row) -> bool {
    match pred {
        Predicate::True => true,
        Predicate::Range { col, low, high } => schema
            .index_of(col)
            .and_then(|i| row[i].as_int())
            .is_some_and(|v| *low <= v && v <= *high),
        Predicate::Eq { col, value } => schema
            .index_of(col)
            .is_some_and(|i| row[i] != Value::Null && row[i] == *value),
        Predicate::And(ps) => ps.iter().all(|p| holds(p, schema, row)),
    }
}

fn unknown(c: &str) -> ExecError {
    ExecError::UnknownColumn(c.to_string())
}

fn reference(
    plan: &LogicalPlan,
    catalog: &Catalog,
    fs: &SimFs<Table>,
    m: &mut ExecMetrics,
) -> Result<RefOut, ExecError> {
    match plan {
        LogicalPlan::Scan { table } => {
            let t = catalog
                .get(table)
                .ok_or_else(|| ExecError::UnknownTable(table.clone()))?;
            m.bytes_read += t.sim_bytes();
            m.map_tasks += fs.block_config().blocks_for(t.sim_bytes());
            m.stages += 1;
            m.rows_processed += t.len() as u64;
            Ok(RefOut {
                schema: t.schema.clone(),
                rows: t.rows.clone(),
                bytes_per_row: t.bytes_per_row,
            })
        }
        LogicalPlan::ViewScan(v) => {
            let mut rows = Vec::new();
            let mut bpr = 8u64;
            for &fid in &v.files {
                let out = fs.try_read(fid)?;
                m.penalty_secs += out.spike_secs;
                m.bytes_read += out.sim_bytes;
                m.map_tasks += fs.block_config().blocks_for(out.sim_bytes);
                m.rows_processed += out.value.len() as u64;
                bpr = bpr.max(out.value.bytes_per_row);
                rows.extend(out.value.rows.iter().cloned());
            }
            m.stages += 1;
            Ok(RefOut {
                schema: v.schema.clone(),
                rows,
                bytes_per_row: bpr,
            })
        }
        LogicalPlan::Select { pred, input } => {
            let child = reference(input, catalog, fs, m)?;
            m.rows_processed += child.rows.len() as u64;
            let rows = child
                .rows
                .iter()
                .filter(|r| holds(pred, &child.schema, r))
                .cloned()
                .collect();
            Ok(RefOut { rows, ..child })
        }
        LogicalPlan::Project { cols, input } => {
            let child = reference(input, catalog, fs, m)?;
            m.rows_processed += child.rows.len() as u64;
            let mut idxs = Vec::new();
            for c in cols {
                idxs.push(child.schema.index_of(c).ok_or_else(|| unknown(c))?);
            }
            let schema = Schema::new(
                idxs.iter()
                    .map(|&i| child.schema.field(i).clone())
                    .collect(),
            );
            let rows: Vec<Row> = child
                .rows
                .iter()
                .map(|r| idxs.iter().map(|&i| r[i].clone()).collect())
                .collect();
            let bytes_per_row = scaled_width(child.bytes_per_row, &rows, &child.rows);
            Ok(RefOut {
                schema,
                rows,
                bytes_per_row,
            })
        }
        LogicalPlan::Join { left, right, on } => {
            let l = reference(left, catalog, fs, m)?;
            let r = reference(right, catalog, fs, m)?;
            m.shuffle_bytes += l.sim_bytes() + r.sim_bytes();
            m.stages += 1;
            m.rows_processed += (l.rows.len() + r.rows.len()) as u64;
            let mut keys = Vec::new();
            for (a, b) in on {
                let pair = match (l.schema.index_of(a), r.schema.index_of(b)) {
                    (Some(ai), Some(bi)) => (ai, bi),
                    _ => match (l.schema.index_of(b), r.schema.index_of(a)) {
                        (Some(bi), Some(ai)) => (bi, ai),
                        _ => return Err(ExecError::UnknownColumn(format!("{a} = {b}"))),
                    },
                };
                keys.push(pair);
            }
            let joins = |lr: &Row, rr: &Row| {
                keys.iter()
                    .all(|&(li, ri)| lr[li] != Value::Null && lr[li] == rr[ri])
            };
            let concat = |lr: &Row, rr: &Row| -> Row { lr.iter().chain(rr).cloned().collect() };
            // Nested loops: the outer loop runs over the larger input (the
            // executor's probe side), the inner over the smaller.
            let mut rows = Vec::new();
            if l.rows.len() <= r.rows.len() {
                for rr in &r.rows {
                    for lr in l.rows.iter().filter(|lr| joins(lr, rr)) {
                        rows.push(concat(lr, rr));
                    }
                }
            } else {
                for lr in &l.rows {
                    for rr in r.rows.iter().filter(|rr| joins(lr, rr)) {
                        rows.push(concat(lr, rr));
                    }
                }
            }
            m.rows_processed += rows.len() as u64;
            Ok(RefOut {
                schema: l.schema.concat(&r.schema),
                rows,
                bytes_per_row: l.bytes_per_row + r.bytes_per_row,
            })
        }
        LogicalPlan::Aggregate {
            group_by,
            aggs,
            input,
        } => {
            let child = reference(input, catalog, fs, m)?;
            m.shuffle_bytes += child.sim_bytes();
            m.stages += 1;
            m.rows_processed += child.rows.len() as u64;
            let mut gidx = Vec::new();
            for g in group_by {
                gidx.push(child.schema.index_of(g).ok_or_else(|| unknown(g))?);
            }
            let mut aidx = Vec::new();
            for a in aggs {
                aidx.push(match &a.col {
                    Some(c) => Some(child.schema.index_of(c).ok_or_else(|| unknown(c))?),
                    None => None,
                });
            }
            // Groups by linear search, each holding its input rows in order.
            let mut groups: Vec<(Row, Vec<&Row>)> = Vec::new();
            for row in &child.rows {
                let key: Row = gidx.iter().map(|&i| row[i].clone()).collect();
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, members)) => members.push(row),
                    None => groups.push((key, vec![row])),
                }
            }
            if gidx.is_empty() && groups.is_empty() {
                groups.push((Vec::new(), Vec::new()));
            }
            let mut rows: Vec<Row> = groups
                .into_iter()
                .map(|(mut key, members)| {
                    for (a, idx) in aggs.iter().zip(&aidx) {
                        let vals: Vec<&Value> = match idx {
                            Some(i) => members.iter().map(|r| &r[*i]).collect(),
                            None => Vec::new(),
                        };
                        key.push(fold(a.func, members.len(), &vals));
                    }
                    key
                })
                .collect();
            rows.sort_unstable();
            m.rows_processed += rows.len() as u64;
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
            let bytes_per_row = scaled_width(child.bytes_per_row, &rows, &child.rows);
            Ok(RefOut {
                schema: Schema::new(fields),
                rows,
                bytes_per_row,
            })
        }
    }
}

/// One aggregate over a group of `n` rows whose argument values are `vals`.
fn fold(func: AggFunc, n: usize, vals: &[&Value]) -> Value {
    let nums: Vec<f64> = vals.iter().filter_map(|v| v.as_float()).collect();
    match func {
        AggFunc::Count => Value::Int(n as i64),
        AggFunc::Sum if nums.is_empty() => Value::Null,
        AggFunc::Sum => Value::Float(nums.iter().fold(0.0, |s, x| s + x)),
        AggFunc::Avg if nums.is_empty() => Value::Null,
        AggFunc::Avg => Value::Float(nums.iter().fold(0.0, |s, x| s + x) / nums.len() as f64),
        // The first of equal extremes wins.
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<&Value> = None;
            for &v in vals.iter().filter(|v| ***v != Value::Null) {
                let better = match best {
                    None => true,
                    Some(b) if func == AggFunc::Min => v < b,
                    Some(b) => v > b,
                };
                if better {
                    best = Some(v);
                }
            }
            best.cloned().unwrap_or(Value::Null)
        }
    }
}

// ---------------------------------------------------------------------------
// Random instances and plans.

/// Draw a key value of the given kind from a small domain, so keys repeat.
fn key_value(rng: &mut StdRng, kind: u8) -> Value {
    if rng.random_bool(0.15) {
        return Value::Null;
    }
    let i = rng.random_range(0i64..4);
    match kind {
        // Int only: the executor's i64 key path.
        0 => Value::Int(i),
        // Mixed Int/Float, with equal pairs such as Int(2) / Float(2.0).
        1 => {
            if rng.random_bool(0.5) {
                Value::Int(i)
            } else if rng.random_bool(0.8) {
                Value::Float(i as f64)
            } else {
                Value::Float(i as f64 + 0.5)
            }
        }
        // Strings.
        _ => Value::str(["x", "y", "zz", ""][i as usize]),
    }
}

const TABLES: [&str; 4] = ["a", "b", "c", "d"];

/// Columns of table `t`: a join key `k`, a second small Int `j` (a range
/// and composite-key column), a measure `v` and a label `s`.
fn table_schema(t: &str) -> Schema {
    Schema::new(vec![
        Field::new(format!("{t}.k"), DataType::Int),
        Field::new(format!("{t}.j"), DataType::Int),
        Field::new(format!("{t}.v"), DataType::Float),
        Field::new(format!("{t}.s"), DataType::Str),
    ])
}

struct Instance {
    catalog: Catalog,
    fs: SimFs<Table>,
    /// A view scan over fragments of each table's rows.
    views: Vec<LogicalPlan>,
}

fn instance(rng: &mut StdRng) -> Instance {
    let mut catalog = Catalog::new();
    let fs = SimFs::new(BlockConfig::new(1024), CostWeights::default());
    let mut views = Vec::new();
    for t in TABLES {
        let kind = rng.random_range(0u8..3);
        let n = if rng.random_bool(0.1) {
            0
        } else {
            rng.random_range(1usize..14)
        };
        let rows: Vec<Row> = (0..n)
            .map(|_| {
                vec![
                    key_value(rng, kind),
                    if rng.random_bool(0.1) {
                        Value::Null
                    } else {
                        Value::Int(rng.random_range(0i64..3))
                    },
                    Value::Float(rng.random_range(0i64..5) as f64 * 1.25),
                    Value::str(["p", "qq", "rrr"][rng.random_range(0usize..3)]),
                ]
            })
            .collect();
        let schema = table_schema(t);
        // Fragments: a split of the rows into up to three payloads, each
        // with its own simulated width.
        let cuts = rng.random_range(0usize..4);
        let mut files = Vec::new();
        let mut start = 0;
        for f in 0..cuts {
            let end = if f + 1 == cuts {
                n
            } else {
                rng.random_range(start..=n)
            };
            let bpr = rng.random_range(90u64..130);
            let frag = Table::new(schema.clone(), rows[start..end].to_vec(), bpr);
            let (id, _) = fs.create(format!("{t}.{f}"), frag.sim_bytes(), frag);
            files.push(id);
            start = end;
        }
        views.push(LogicalPlan::ViewScan(ViewScanInfo {
            view_name: format!("v_{t}"),
            files,
            schema: schema.clone(),
        }));
        catalog.register(t, Table::new(schema, rows, rng.random_range(50u64..200)));
    }
    Instance { catalog, fs, views }
}

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    &xs[rng.random_range(0..xs.len())]
}

fn predicate(rng: &mut StdRng, tables: &[&str]) -> Predicate {
    let t = pick(rng, tables);
    let lo = rng.random_range(-1i64..3);
    let conj = |rng: &mut StdRng| match rng.random_range(0u8..5) {
        0 => Predicate::range(format!("{t}.j"), lo, lo + rng.random_range(0i64..2)),
        1 => Predicate::range(format!("{t}.k"), lo, lo + 1),
        2 => Predicate::eq(format!("{t}.s"), *pick(rng, &["p", "qq"])),
        // A bare name: ambiguous (hence false) once two tables are joined.
        3 => Predicate::range("j", 0, 1),
        _ => Predicate::range("nope", 0, 9),
    };
    let first = conj(rng);
    if rng.random_bool(0.3) {
        Predicate::and(vec![first, conj(rng)])
    } else {
        first
    }
}

/// A random plan over distinct tables: a leaf, up to three joins (each
/// input a scan or a view scan, selections between them), then an optional
/// select, project and aggregate.
fn plan(rng: &mut StdRng, views: &[LogicalPlan]) -> LogicalPlan {
    let leaf = |rng: &mut StdRng, i: usize| {
        if rng.random_bool(0.3) {
            views[i].clone()
        } else {
            LogicalPlan::scan(TABLES[i])
        }
    };
    let mut order = [0usize, 1, 2, 3];
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let joins = rng.random_range(0usize..4);
    let mut tables = vec![TABLES[order[0]]];
    let mut p = leaf(rng, order[0]);
    for &next in &order[1..=joins] {
        if rng.random_bool(0.25) {
            p = p.select(predicate(rng, &tables));
        }
        let t = TABLES[next];
        let other = pick(rng, &tables).to_string();
        let mut on = vec![(format!("{other}.k"), format!("{t}.k"))];
        if rng.random_bool(0.25) {
            on.push((format!("{other}.j"), format!("{t}.j")));
        }
        if rng.random_bool(0.3) {
            on.reverse();
            for pair in &mut on {
                *pair = (pair.1.clone(), pair.0.clone());
            }
        }
        let right = leaf(rng, next);
        p = if rng.random_bool(0.5) {
            p.join(right, on)
        } else {
            right.join(p, on)
        };
        tables.push(t);
    }
    if rng.random_bool(0.6) {
        p = p.select(predicate(rng, &tables));
    }
    let mut cols: Vec<String> = tables
        .iter()
        .flat_map(|t| ["k", "j", "v", "s"].map(|c| format!("{t}.{c}")))
        .collect();
    if rng.random_bool(0.4) {
        for i in (1..cols.len()).rev() {
            cols.swap(i, rng.random_range(0..=i));
        }
        cols.truncate(rng.random_range(1..=cols.len()));
        p = p.project(cols.clone());
    }
    if rng.random_bool(0.5) {
        let groups: Vec<String> = (0..rng.random_range(0usize..3))
            .map(|_| pick(rng, &cols).clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ];
        let aggs = (0..rng.random_range(1usize..4))
            .map(|i| match *pick(rng, &funcs) {
                AggFunc::Count => AggExpr::count(format!("agg{i}")),
                f => AggExpr::of(f, pick(rng, &cols).clone(), format!("agg{i}")),
            })
            .collect();
        p = p.aggregate(groups, aggs);
    }
    p
}

fn subplans(p: &LogicalPlan) -> Vec<&LogicalPlan> {
    let mut out = vec![p];
    for c in p.children() {
        out.extend(subplans(c));
    }
    out
}

/// Rows compared exactly: `Int(2)` and `Float(2.0)` are equal values but
/// different results, and floats compare by bits.
fn exact(rows: &[Row]) -> String {
    format!("{rows:?}")
}

fn assert_same(got: &Table, want: &RefOut, what: &str) {
    assert_eq!(got.schema, want.schema, "{what}: schema");
    assert_eq!(exact(&got.rows), exact(&want.rows), "{what}: rows");
    assert_eq!(
        got.bytes_per_row, want.bytes_per_row,
        "{what}: bytes_per_row"
    );
}

fn assert_same_metrics(got: &ExecMetrics, want: &ExecMetrics) {
    assert_eq!(got, want);
    assert_eq!(got.penalty_secs.to_bits(), want.penalty_secs.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    #[test]
    fn executor_matches_reference_evaluator(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = instance(&mut rng);
        let p = plan(&mut rng, &inst.views);

        let mut want_m = ExecMetrics::default();
        let want = reference(&p, &inst.catalog, &inst.fs, &mut want_m)
            .unwrap_or_else(|e| panic!("reference failed on {}: {e}", p.display_compact()));
        let (got, got_m) = execute(&p, &inst.catalog, &inst.fs)
            .unwrap_or_else(|e| panic!("executor failed on {}: {e}", p.display_compact()));
        assert_same(&got, &want, &p.display_compact());
        assert_same_metrics(&got_m, &want_m);

        // Taps: a random multiset of the plan's subplans plus one absent
        // plan; each is what executing that subplan alone returns.
        let subs = subplans(&p);
        let absent = LogicalPlan::scan("a").select(Predicate::range("a.j", 7, 9));
        let mut taps: Vec<&LogicalPlan> = (0..rng.random_range(0usize..5))
            .map(|_| *pick(&mut rng, &subs))
            .collect();
        taps.push(&absent);
        let (tapped, tapped_m, got_taps) =
            execute_tapped(&p, &taps, &inst.catalog, &inst.fs).expect("tapped run");
        assert_same(&tapped, &want, "tapped root");
        assert_same_metrics(&tapped_m, &want_m);
        for (want_plan, tap) in taps.iter().zip(&got_taps) {
            if std::ptr::eq(*want_plan, &absent) {
                assert!(tap.is_none(), "absent subplan yields no tap");
                continue;
            }
            let tap = tap.as_ref().expect("a subplan of the plan is tapped");
            let mut m = ExecMetrics::default();
            let direct = reference(want_plan, &inst.catalog, &inst.fs, &mut m)
                .expect("reference subplan");
            assert_same(tap, &direct, &format!("tap {}", want_plan.display_compact()));
            if let LogicalPlan::Scan { table } = want_plan {
                let base = inst.catalog.get(table).expect("catalog table");
                assert!(Arc::ptr_eq(tap, base), "a bare-scan tap shares the table");
            }
        }
    }
}
