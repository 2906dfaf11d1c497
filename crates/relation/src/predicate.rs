//! Selection predicates.
//!
//! DeepSea's partitioning logic reasons about conjunctions of *range*
//! conditions `l <= A <= u` over ordered attributes (§6.2 of the paper), with
//! arbitrary extra equality conditions treated as residual predicates. This
//! module is that predicate language.

use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;

/// A selection predicate over named columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Always true (the empty conjunction).
    True,
    /// Inclusive range condition `low <= col <= high` on an integer column.
    Range {
        /// Column name (qualified or unambiguous bare name).
        col: String,
        /// Inclusive lower bound.
        low: i64,
        /// Inclusive upper bound.
        high: i64,
    },
    /// Equality condition `col = value`.
    Eq {
        /// Column name.
        col: String,
        /// Value compared against.
        value: Value,
    },
    /// Conjunction of predicates.
    And(Vec<Predicate>),
}

impl Predicate {
    /// `low <= col <= high`.
    pub fn range(col: impl Into<String>, low: i64, high: i64) -> Self {
        Predicate::Range {
            col: col.into(),
            low,
            high,
        }
    }

    /// `col = value`.
    pub fn eq(col: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Eq {
            col: col.into(),
            value: value.into(),
        }
    }

    /// Conjunction; flattens nested `And`s and drops `True`s.
    pub fn and(preds: Vec<Predicate>) -> Self {
        let mut flat = Vec::new();
        fn push(p: Predicate, out: &mut Vec<Predicate>) {
            match p {
                Predicate::True => {}
                Predicate::And(ps) => {
                    for q in ps {
                        push(q, out);
                    }
                }
                other => out.push(other),
            }
        }
        for p in preds {
            push(p, &mut flat);
        }
        if flat.len() > 1 {
            Predicate::And(flat)
        } else {
            flat.pop().unwrap_or(Predicate::True)
        }
    }

    /// Evaluate against a row. Unknown columns and NULLs make the conjunct
    /// false (SQL three-valued logic collapsed to false at the top level).
    ///
    /// Resolves every column on each call; to evaluate many rows of one
    /// schema, [`Predicate::bind`] once and evaluate the bound form.
    pub fn eval(&self, schema: &Schema, row: &Row) -> bool {
        self.bind(schema).eval(row)
    }

    /// Resolve every column against `schema` once. A conjunct over an
    /// unknown or ambiguous column binds to one that is always false.
    pub fn bind(&self, schema: &Schema) -> BoundPredicate {
        let mut conjuncts = Vec::new();
        self.bind_into(schema, &mut conjuncts);
        BoundPredicate { conjuncts }
    }

    fn bind_into(&self, schema: &Schema, out: &mut Vec<Bound>) {
        match self {
            Predicate::True => {}
            Predicate::And(ps) => ps.iter().for_each(|p| p.bind_into(schema, out)),
            Predicate::Range { col, low, high } => out.push(match schema.index_of(col) {
                Some(col) => Bound::Range {
                    col,
                    low: *low,
                    high: *high,
                },
                None => Bound::Never,
            }),
            Predicate::Eq { col, value } => out.push(match schema.index_of(col) {
                Some(col) if *value != Value::Null => Bound::Eq {
                    col,
                    value: value.clone(),
                },
                _ => Bound::Never,
            }),
        }
    }

    /// The conjuncts of this predicate (itself if not an `And`).
    pub fn conjuncts(&self) -> Vec<&Predicate> {
        match self {
            Predicate::True => vec![],
            Predicate::And(ps) => ps.iter().flat_map(|p| p.conjuncts()).collect(),
            other => vec![other],
        }
    }

    /// The (intersected) range restriction this predicate places on `col`,
    /// if any conjunct is a range over it.
    pub fn range_on(&self, col: &str) -> Option<(i64, i64)> {
        let mut acc: Option<(i64, i64)> = None;
        for c in self.conjuncts() {
            if let Predicate::Range { col: c2, low, high } = c {
                if col_matches(c2, col) {
                    acc = Some(match acc {
                        None => (*low, *high),
                        Some((l, h)) => (l.max(*low), h.min(*high)),
                    });
                }
            }
        }
        acc
    }

    /// All columns this predicate mentions.
    pub fn columns(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = self
            .conjuncts()
            .into_iter()
            .filter_map(|c| match c {
                Predicate::Range { col, .. } | Predicate::Eq { col, .. } => Some(col.as_str()),
                _ => None,
            })
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

/// A [`Predicate`] whose columns are resolved to positions in one schema
/// (see [`Predicate::bind`]): a conjunction evaluated without name lookups.
#[derive(Debug, Clone)]
pub struct BoundPredicate {
    conjuncts: Vec<Bound>,
}

#[derive(Debug, Clone)]
enum Bound {
    Never,
    Range { col: usize, low: i64, high: i64 },
    Eq { col: usize, value: Value },
}

impl BoundPredicate {
    /// Evaluate against a row of the bound schema.
    pub fn eval(&self, row: &Row) -> bool {
        self.eval_with(|i| &row[i])
    }

    /// Evaluate against a row given by `value`, which returns the value of
    /// the bound schema's column `i`; a row need not exist as a [`Row`].
    pub fn eval_with<'v>(&self, value: impl Fn(usize) -> &'v Value) -> bool {
        self.conjuncts.iter().all(|c| match c {
            Bound::Never => false,
            Bound::Range { col, low, high } => value(*col)
                .as_int()
                .is_some_and(|v| *low <= v && v <= *high),
            // `value` is never NULL here, so a NULL cell never matches.
            Bound::Eq { col, value: want } => value(*col) == want,
        })
    }
}

/// Does predicate column name `pred_col` refer to attribute `attr`?
/// Either may be qualified (`t.c`) or bare (`c`).
fn col_matches(pred_col: &str, attr: &str) -> bool {
    if pred_col == attr {
        return true;
    }
    let pc = pred_col.rsplit('.').next().unwrap_or(pred_col);
    let ac = attr.rsplit('.').next().unwrap_or(attr);
    pc == ac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("t.a", DataType::Int),
            Field::new("t.b", DataType::Str),
        ])
    }

    #[test]
    fn range_eval_inclusive() {
        let p = Predicate::range("t.a", 1, 3);
        let s = schema();
        assert!(p.eval(&s, &vec![Value::Int(1), Value::Null]));
        assert!(p.eval(&s, &vec![Value::Int(3), Value::Null]));
        assert!(!p.eval(&s, &vec![Value::Int(4), Value::Null]));
        assert!(!p.eval(&s, &vec![Value::Int(0), Value::Null]));
        assert!(!p.eval(&s, &vec![Value::Null, Value::Null]), "NULL fails");
    }

    #[test]
    fn eq_eval() {
        let p = Predicate::eq("t.b", "x");
        let s = schema();
        assert!(p.eval(&s, &vec![Value::Int(0), Value::str("x")]));
        assert!(!p.eval(&s, &vec![Value::Int(0), Value::str("y")]));
    }

    #[test]
    fn and_flattens_and_drops_true() {
        let p = Predicate::and(vec![
            Predicate::True,
            Predicate::and(vec![Predicate::range("a", 0, 1), Predicate::True]),
        ]);
        assert_eq!(p, Predicate::range("a", 0, 1));
        assert_eq!(Predicate::and(vec![]), Predicate::True);
        let q = Predicate::and(vec![Predicate::range("a", 0, 1), Predicate::eq("b", "x")]);
        assert_eq!(q.conjuncts().len(), 2);
    }

    #[test]
    fn range_on_intersects_multiple() {
        let p = Predicate::and(vec![
            Predicate::range("t.a", 0, 10),
            Predicate::range("a", 5, 20),
        ]);
        assert_eq!(p.range_on("t.a"), Some((5, 10)));
        assert_eq!(p.range_on("a"), Some((5, 10)), "bare name matches");
        assert_eq!(p.range_on("zz"), None);
    }

    #[test]
    fn unknown_column_fails_closed() {
        let p = Predicate::range("nope", 0, 10);
        assert!(!p.eval(&schema(), &vec![Value::Int(5), Value::Null]));
    }

    #[test]
    fn bound_eval_is_the_conjunction() {
        let s = schema();
        let p = Predicate::and(vec![Predicate::range("a", 1, 3), Predicate::eq("t.b", "x")]);
        let b = p.bind(&s);
        for (row, want) in [
            (vec![Value::Int(2), Value::str("x")], true),
            (vec![Value::Int(2), Value::str("y")], false),
            (vec![Value::Int(9), Value::str("x")], false),
            (vec![Value::Null, Value::str("x")], false),
            (vec![Value::Int(2), Value::Null], false),
        ] {
            assert_eq!(b.eval(&row), want, "{row:?}");
        }
        assert!(Predicate::True
            .bind(&s)
            .eval(&vec![Value::Null, Value::Null]));
    }

    #[test]
    fn bound_unknown_or_ambiguous_column_is_false() {
        let ambiguous = Schema::new(vec![
            Field::new("t.a", DataType::Int),
            Field::new("u.a", DataType::Int),
        ]);
        let row = vec![Value::Int(1), Value::Int(1)];
        assert!(!Predicate::range("a", 0, 9).bind(&ambiguous).eval(&row));
        assert!(!Predicate::eq("zz", 1).bind(&ambiguous).eval(&row));
        assert!(Predicate::range("t.a", 0, 9).bind(&ambiguous).eval(&row));
    }

    #[test]
    fn eq_null_never_matches() {
        let s = schema();
        let p = Predicate::Eq {
            col: "t.b".into(),
            value: Value::Null,
        };
        assert!(!p.eval(&s, &vec![Value::Int(0), Value::Null]));
    }

    #[test]
    fn columns_sorted_deduped() {
        let p = Predicate::and(vec![
            Predicate::range("b", 0, 1),
            Predicate::eq("a", 1),
            Predicate::range("a", 0, 1),
        ]);
        assert_eq!(p.columns(), vec!["a", "b"]);
    }
}
