//! Per-query pipeline state ([`QueryContext`]) and the public per-stage
//! instrumentation ([`QueryTrace`]) every [`super::QueryOutcome`] carries.

use std::collections::BTreeMap;
use std::sync::Arc;

use deepsea_engine::plan::LogicalPlan;
use deepsea_relation::Table;
use serde::{ObjectBuilder, Serialize, Value};

use crate::filter_tree::ViewId;
use crate::selection::SelectionResult;
use crate::stats::LogicalTime;

use super::read_path::MatchHit;

/// Counters from the matching stage (Algorithm 1 lines 1–2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MatchingTrace {
    /// Definition-6-shaped subplans the query exposed for matching.
    pub roots: u32,
    /// (subquery, view) signature matches found.
    pub hits: u32,
    /// Matches backed by materialized data (whole file or fragment cover).
    pub materialized_hits: u32,
    /// Distinct views whose statistics recorded a benefit event.
    pub views_updated: u32,
}

/// Counters from the rewriting stage (Algorithm 1 line 3).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RewritingTrace {
    /// Rewritten plans that were actually costed against the base plan.
    pub rewrites_costed: u32,
    /// Estimated cost of the original plan (simulated seconds).
    pub base_cost_secs: f64,
    /// Estimated cost of the chosen plan (equals `base_cost_secs` when no
    /// rewriting won).
    pub best_cost_secs: f64,
}

/// Counters from candidate derivation (Definitions 6 and 7, line 4).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CandidatesTrace {
    /// View candidates registered from the chosen plan's subqueries.
    pub view_candidates: u32,
    /// How many of those were first seen by this query.
    pub new_views: u32,
    /// Range selections that produced partition-candidate work.
    pub partition_selections: u32,
    /// Candidate fragments newly tracked by this query.
    pub new_fragments: u32,
}

/// Counters from Φ-ranked greedy selection (line 5).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelectionTrace {
    /// `|ALLCAND|` — items the knapsack considered.
    pub considered: u32,
    /// Unmaterialized items chosen for creation.
    pub planned_creations: u32,
    /// Materialized items chosen for eviction.
    pub planned_evictions: u32,
}

/// The execution stage (line 6) — the only stage with a real simulated cost
/// on the query path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutionTrace {
    /// Simulated seconds of the chosen plan's execution.
    pub query_secs: f64,
}

/// Counters from materialization (line 6, by-product writes; §7.2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaterializationTrace {
    /// Bytes read back for repartitioning (fragment covers, splits).
    pub bytes_read: u64,
    /// Bytes written for new views/fragments.
    pub bytes_written: u64,
    /// Output files committed.
    pub files_written: u64,
    /// Materialized source fragments covered while building new fragments.
    pub fragments_covered: u64,
    /// Simulated seconds charged for the combined instrumented job.
    pub creation_secs: f64,
}

/// Counters from eviction (line 5's plan applied, plus `Smax` enforcement).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvictionTrace {
    /// Evictions planned by selection and actually performed.
    pub selected: u32,
    /// Additional evictions forced by `enforce_limit` (actual sizes exceeded
    /// the estimates selection planned with).
    pub limit_forced: u32,
    /// Simulated seconds charged for deleting the evicted files (zero under
    /// the default cost weights, where deletes are metadata-only).
    pub delete_secs: f64,
}

/// Counters from fault recovery: retries absorbed, views quarantined after
/// permanent losses, and base-table fallbacks. All zero on a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryTrace {
    /// Transient-failure retries absorbed (execution and materialization).
    pub retries: u32,
    /// Simulated seconds of retry backoff and latency spikes charged to this
    /// query's elapsed time.
    pub penalty_secs: f64,
    /// Views quarantined after a permanent I/O failure.
    pub quarantined_views: u32,
    /// Pool bytes released by those quarantines.
    pub quarantined_bytes: u64,
    /// Rewritten plans that failed and were re-answered from base tables.
    pub base_table_fallbacks: u32,
    /// Fragment reads blocked by a node outage and patched at fragment
    /// granularity (re-planned around the offline fragment rather than
    /// abandoning the whole view).
    pub fragment_fallbacks: u32,
    /// Fragment reads that failed checksum verification (corruption detected
    /// on read, never served). Each routes through the quarantine path.
    pub corrupt_fragments: u32,
    /// Rewritings skipped because an open circuit breaker guarded the chosen
    /// view; the query went straight to base tables without burning retries.
    pub breaker_short_circuits: u32,
}

/// Counters from catalog journaling. All zero when no journal is attached —
/// a journal-less run is bit-transparent.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DurabilityTrace {
    /// Journal records appended while processing this query.
    pub journal_appends: u32,
    /// Transient journal-write failures retried.
    pub journal_retries: u32,
    /// Simulated seconds of journal-retry backoff charged to this query.
    pub journal_penalty_secs: f64,
    /// Full-state snapshots installed (truncating the record log).
    pub snapshots: u32,
}

/// Wall-clock-free per-stage instrumentation of one `process_query` call.
///
/// Counters are cheap to fill (no timers — the simulator's notion of cost is
/// already deterministic seconds) and let the bench harness attribute a
/// run's behaviour to pipeline stages: how much matching happened, whether
/// rewritings won, how much candidate churn selection saw, and where the
/// simulated seconds went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryTrace {
    /// Stage 1–2: signature matching and statistics updates.
    pub matching: MatchingTrace,
    /// Stage 3: rewriting selection.
    pub rewriting: RewritingTrace,
    /// Stage 4: candidate derivation.
    pub candidates: CandidatesTrace,
    /// Stage 5: Φ-ranked selection.
    pub selection: SelectionTrace,
    /// Stage 6: execution.
    pub execution: ExecutionTrace,
    /// Stage 6: by-product materialization.
    pub materialization: MaterializationTrace,
    /// Stages 5/7: evictions applied.
    pub eviction: EvictionTrace,
    /// Fault recovery: retries, quarantines, base-table fallbacks.
    pub recovery: RecoveryTrace,
    /// Catalog journaling: appends, retries, snapshots.
    pub durability: DurabilityTrace,
}

impl QueryTrace {
    /// Every trace field, flattened to `("stage.field", value)` pairs.
    ///
    /// This destructures every sub-trace exhaustively (no `..` patterns), so
    /// adding a field to any trace struct **fails to compile** until it is
    /// represented here — and the completeness tests in the bench harness
    /// then force it into `StageTotals` and `stage_breakdown` too.
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        let QueryTrace {
            matching:
                MatchingTrace {
                    roots,
                    hits,
                    materialized_hits,
                    views_updated,
                },
            rewriting:
                RewritingTrace {
                    rewrites_costed,
                    base_cost_secs,
                    best_cost_secs,
                },
            candidates:
                CandidatesTrace {
                    view_candidates,
                    new_views,
                    partition_selections,
                    new_fragments,
                },
            selection:
                SelectionTrace {
                    considered,
                    planned_creations,
                    planned_evictions,
                },
            execution: ExecutionTrace { query_secs },
            materialization:
                MaterializationTrace {
                    bytes_read,
                    bytes_written,
                    files_written,
                    fragments_covered,
                    creation_secs,
                },
            eviction:
                EvictionTrace {
                    selected,
                    limit_forced,
                    delete_secs,
                },
            recovery:
                RecoveryTrace {
                    retries,
                    penalty_secs,
                    quarantined_views,
                    quarantined_bytes,
                    base_table_fallbacks,
                    fragment_fallbacks,
                    corrupt_fragments,
                    breaker_short_circuits,
                },
            durability:
                DurabilityTrace {
                    journal_appends,
                    journal_retries,
                    journal_penalty_secs,
                    snapshots,
                },
        } = *self;
        vec![
            ("matching.roots", roots as f64),
            ("matching.hits", hits as f64),
            ("matching.materialized_hits", materialized_hits as f64),
            ("matching.views_updated", views_updated as f64),
            ("rewriting.rewrites_costed", rewrites_costed as f64),
            ("rewriting.base_cost_secs", base_cost_secs),
            ("rewriting.best_cost_secs", best_cost_secs),
            ("candidates.view_candidates", view_candidates as f64),
            ("candidates.new_views", new_views as f64),
            (
                "candidates.partition_selections",
                partition_selections as f64,
            ),
            ("candidates.new_fragments", new_fragments as f64),
            ("selection.considered", considered as f64),
            ("selection.planned_creations", planned_creations as f64),
            ("selection.planned_evictions", planned_evictions as f64),
            ("execution.query_secs", query_secs),
            ("materialization.bytes_read", bytes_read as f64),
            ("materialization.bytes_written", bytes_written as f64),
            ("materialization.files_written", files_written as f64),
            (
                "materialization.fragments_covered",
                fragments_covered as f64,
            ),
            ("materialization.creation_secs", creation_secs),
            ("eviction.selected", selected as f64),
            ("eviction.limit_forced", limit_forced as f64),
            ("eviction.delete_secs", delete_secs),
            ("recovery.retries", retries as f64),
            ("recovery.penalty_secs", penalty_secs),
            ("recovery.quarantined_views", quarantined_views as f64),
            ("recovery.quarantined_bytes", quarantined_bytes as f64),
            ("recovery.base_table_fallbacks", base_table_fallbacks as f64),
            ("recovery.fragment_fallbacks", fragment_fallbacks as f64),
            ("recovery.corrupt_fragments", corrupt_fragments as f64),
            (
                "recovery.breaker_short_circuits",
                breaker_short_circuits as f64,
            ),
            ("durability.journal_appends", journal_appends as f64),
            ("durability.journal_retries", journal_retries as f64),
            ("durability.journal_penalty_secs", journal_penalty_secs),
            ("durability.snapshots", snapshots as f64),
        ]
    }
}

impl Serialize for MatchingTrace {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("roots", self.roots)
            .field("hits", self.hits)
            .field("materialized_hits", self.materialized_hits)
            .field("views_updated", self.views_updated)
            .build()
    }
}

impl Serialize for RewritingTrace {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("rewrites_costed", self.rewrites_costed)
            .field("base_cost_secs", self.base_cost_secs)
            .field("best_cost_secs", self.best_cost_secs)
            .build()
    }
}

impl Serialize for CandidatesTrace {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("view_candidates", self.view_candidates)
            .field("new_views", self.new_views)
            .field("partition_selections", self.partition_selections)
            .field("new_fragments", self.new_fragments)
            .build()
    }
}

impl Serialize for SelectionTrace {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("considered", self.considered)
            .field("planned_creations", self.planned_creations)
            .field("planned_evictions", self.planned_evictions)
            .build()
    }
}

impl Serialize for ExecutionTrace {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("query_secs", self.query_secs)
            .build()
    }
}

impl Serialize for MaterializationTrace {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("bytes_read", self.bytes_read)
            .field("bytes_written", self.bytes_written)
            .field("files_written", self.files_written)
            .field("fragments_covered", self.fragments_covered)
            .field("creation_secs", self.creation_secs)
            .build()
    }
}

impl Serialize for EvictionTrace {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("selected", self.selected)
            .field("limit_forced", self.limit_forced)
            .field("delete_secs", self.delete_secs)
            .build()
    }
}

impl Serialize for RecoveryTrace {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("retries", self.retries)
            .field("penalty_secs", self.penalty_secs)
            .field("quarantined_views", self.quarantined_views)
            .field("quarantined_bytes", self.quarantined_bytes)
            .field("base_table_fallbacks", self.base_table_fallbacks)
            .field("fragment_fallbacks", self.fragment_fallbacks)
            .field("corrupt_fragments", self.corrupt_fragments)
            .field("breaker_short_circuits", self.breaker_short_circuits)
            .build()
    }
}

impl Serialize for DurabilityTrace {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("journal_appends", self.journal_appends)
            .field("journal_retries", self.journal_retries)
            .field("journal_penalty_secs", self.journal_penalty_secs)
            .field("snapshots", self.snapshots)
            .build()
    }
}

impl Serialize for QueryTrace {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("matching", self.matching)
            .field("rewriting", self.rewriting)
            .field("candidates", self.candidates)
            .field("selection", self.selection)
            .field("execution", self.execution)
            .field("materialization", self.materialization)
            .field("eviction", self.eviction)
            .field("recovery", self.recovery)
            .field("durability", self.durability)
            .build()
    }
}

/// Accumulated I/O of the materializations a query performs; converted to
/// seconds once per query (all writes of one query run as a single
/// instrumented MapReduce job).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CreationCharge {
    pub(crate) read_bytes: u64,
    pub(crate) write_bytes: u64,
    pub(crate) files: u64,
    /// Source fragments read through Algorithm-2 covers (trace only — does
    /// not affect the charged seconds).
    pub(crate) cover_reads: u64,
    /// Transient-failure retries absorbed by materialization I/O.
    pub(crate) retries: u32,
    /// Simulated backoff/spike seconds those retries cost, plus the delete
    /// cost of source fragments dropped during refinement (charged into
    /// `creation_secs`).
    pub(crate) penalty_secs: f64,
}

impl CreationCharge {
    pub(crate) fn absorb(&mut self, other: CreationCharge) {
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.files += other.files;
        self.cover_reads += other.cover_reads;
        self.retries += other.retries;
        self.penalty_secs += other.penalty_secs;
    }
}

/// Mutable state threaded through the stages of one `process_query` call.
///
/// Every stage reads what earlier stages produced and records its own
/// contribution; `process_query` folds the final state into a
/// [`super::QueryOutcome`].
pub(crate) struct QueryContext {
    /// Logical timestamp of this query (the advanced clock).
    pub(crate) tnow: LogicalTime,
    /// The plan to execute — the original until rewriting replaces it.
    pub(crate) qbest: LogicalPlan,
    /// Name of the view the chosen rewriting reads, if any.
    pub(crate) used_view: Option<String>,
    /// Signature matches found by the matching stage.
    pub(crate) hits: Vec<MatchHit>,
    /// View candidates relevant to this query (Definition 6).
    pub(crate) new_cands: Vec<ViewId>,
    /// The materialization/eviction plan chosen by selection.
    pub(crate) selection: SelectionResult,
    /// Content of the views selection chose to create, by view: tapped
    /// from the executed plan, or recomputed once by materialization when
    /// the view's plan was not part of it. A `BTreeMap` because it sits on
    /// the decision path, where hash order must never leak.
    pub(crate) taps: BTreeMap<ViewId, Arc<Table>>,
    /// Accumulated I/O of performed materializations.
    pub(crate) charge: CreationCharge,
    /// Simulated execution seconds of `qbest`.
    pub(crate) query_secs: f64,
    /// Simulated seconds of the combined creation job.
    pub(crate) creation_secs: f64,
    /// Descriptions of views/fragments written.
    pub(crate) materialized: Vec<String>,
    /// Descriptions of views/fragments dropped.
    pub(crate) evicted: Vec<String>,
    /// Names of views quarantined while processing this query.
    pub(crate) quarantined: Vec<String>,
    /// Per-stage instrumentation, exposed on the outcome.
    pub(crate) trace: QueryTrace,
    /// Causal span parent this query's read-path spans attach under.
    /// [`deepsea_obs::SpanCtx::NONE`] (the default) keeps the read path
    /// span-free — exactly the pre-tracing behaviour.
    pub(crate) span: deepsea_obs::SpanCtx,
    /// Cumulative sim-seconds (on the *caller's* timeline — the server's
    /// schedule or the driver's span clock) this query's spans anchor at.
    pub(crate) span_anchor_secs: f64,
}

impl QueryContext {
    pub(crate) fn new(plan: &LogicalPlan, tnow: LogicalTime) -> Self {
        Self {
            tnow,
            qbest: plan.clone(),
            used_view: None,
            hits: Vec::new(),
            new_cands: Vec::new(),
            selection: SelectionResult::default(),
            taps: BTreeMap::new(),
            charge: CreationCharge::default(),
            query_secs: 0.0,
            creation_secs: 0.0,
            materialized: Vec::new(),
            evicted: Vec::new(),
            quarantined: Vec::new(),
            trace: QueryTrace::default(),
            span: deepsea_obs::SpanCtx::NONE,
            span_anchor_secs: 0.0,
        }
    }

    /// Attach this query to a causal trace: read-path spans become children
    /// of `parent`, anchored at `anchor_secs` on the caller's timeline.
    pub(crate) fn in_span(mut self, parent: deepsea_obs::SpanCtx, anchor_secs: f64) -> Self {
        self.span = parent;
        self.span_anchor_secs = anchor_secs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creation_charge_absorbs_componentwise() {
        let mut a = CreationCharge {
            read_bytes: 1,
            write_bytes: 2,
            files: 3,
            cover_reads: 4,
            retries: 5,
            penalty_secs: 6.0,
        };
        a.absorb(CreationCharge {
            read_bytes: 10,
            write_bytes: 20,
            files: 30,
            cover_reads: 40,
            retries: 50,
            penalty_secs: 60.0,
        });
        assert_eq!(a.read_bytes, 11);
        assert_eq!(a.write_bytes, 22);
        assert_eq!(a.files, 33);
        assert_eq!(a.cover_reads, 44);
        assert_eq!(a.retries, 55);
        assert_eq!(a.penalty_secs, 66.0);
    }

    #[test]
    fn trace_fields_and_serialization_cover_every_field() {
        // Give every field a distinct non-zero value so both representations
        // can be cross-checked field by field.
        let mut trace = QueryTrace::default();
        for (i, (_, _)) in trace.fields().iter().enumerate() {
            set_field_by_index(&mut trace, i, (i + 1) as f64);
        }
        let flat = trace.fields();
        assert_eq!(flat.len(), 35);
        // Names are unique and values survived the round trip.
        let mut names: Vec<&str> = flat.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), flat.len(), "duplicate flattened name");
        for (i, (name, v)) in flat.iter().enumerate() {
            assert_eq!(*v, (i + 1) as f64, "{name}");
        }
        // The serialized object exposes the same leaves under stage objects.
        let json = serde::to_string(&trace);
        for (name, v) in &flat {
            let leaf = name.split('.').next_back().unwrap();
            assert!(
                json.contains(&format!("\"{leaf}\":{v}")),
                "missing {name}={v} in {json}"
            );
        }
    }

    /// Poke trace field `i` (in `fields()` order) to `v`. Kept in sync by
    /// the assertion above: a mismatch in count or order fails the test.
    fn set_field_by_index(t: &mut QueryTrace, i: usize, v: f64) {
        match i {
            0 => t.matching.roots = v as u32,
            1 => t.matching.hits = v as u32,
            2 => t.matching.materialized_hits = v as u32,
            3 => t.matching.views_updated = v as u32,
            4 => t.rewriting.rewrites_costed = v as u32,
            5 => t.rewriting.base_cost_secs = v,
            6 => t.rewriting.best_cost_secs = v,
            7 => t.candidates.view_candidates = v as u32,
            8 => t.candidates.new_views = v as u32,
            9 => t.candidates.partition_selections = v as u32,
            10 => t.candidates.new_fragments = v as u32,
            11 => t.selection.considered = v as u32,
            12 => t.selection.planned_creations = v as u32,
            13 => t.selection.planned_evictions = v as u32,
            14 => t.execution.query_secs = v,
            15 => t.materialization.bytes_read = v as u64,
            16 => t.materialization.bytes_written = v as u64,
            17 => t.materialization.files_written = v as u64,
            18 => t.materialization.fragments_covered = v as u64,
            19 => t.materialization.creation_secs = v,
            20 => t.eviction.selected = v as u32,
            21 => t.eviction.limit_forced = v as u32,
            22 => t.eviction.delete_secs = v,
            23 => t.recovery.retries = v as u32,
            24 => t.recovery.penalty_secs = v,
            25 => t.recovery.quarantined_views = v as u32,
            26 => t.recovery.quarantined_bytes = v as u64,
            27 => t.recovery.base_table_fallbacks = v as u32,
            28 => t.recovery.fragment_fallbacks = v as u32,
            29 => t.recovery.corrupt_fragments = v as u32,
            30 => t.recovery.breaker_short_circuits = v as u32,
            31 => t.durability.journal_appends = v as u32,
            32 => t.durability.journal_retries = v as u32,
            33 => t.durability.journal_penalty_secs = v,
            34 => t.durability.snapshots = v as u32,
            _ => panic!("fields() grew without extending set_field_by_index"),
        }
    }

    #[test]
    fn fresh_context_starts_with_the_original_plan() {
        let plan = LogicalPlan::scan("t");
        let ctx = QueryContext::new(&plan, 7);
        assert_eq!(ctx.tnow, 7);
        assert_eq!(ctx.qbest, plan);
        assert!(ctx.used_view.is_none());
        assert_eq!(ctx.trace, QueryTrace::default());
    }
}
