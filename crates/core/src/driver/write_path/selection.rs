//! Stage 5 of Algorithm 1: build `ALLCAND = Vsel ∪ Psel ∪ {materialized
//! views and fragments}` and run the Φ-ranked greedy selection under `Smax`,
//! deciding what to materialize and what to evict.

use std::collections::BTreeSet;

use deepsea_obs::DecisionEvent;

use crate::filter_tree::ViewId;
use crate::interval::Interval;
use crate::matching::partition_matching;
use crate::mle::fit_normal;
use crate::policy::{PartitionPolicy, ValueModel};
use crate::selection::{select_configuration, CandidateKind, RankedItem, SelectionResult};
use crate::stats::LogicalTime;

use super::super::context::QueryContext;
use super::super::DeepSea;

impl DeepSea {
    /// Run selection over this query's candidates plus everything the pool
    /// already holds; the chosen configuration lands in `ctx.selection`.
    pub(crate) fn stage_select_configuration(&self, ctx: &mut QueryContext) {
        let items = self.build_allcand(&ctx.new_cands, ctx.tnow);
        ctx.trace.selection.considered = items.len() as u32;
        // Audit copy of ALLCAND, taken only when the decision log listens —
        // the selection below runs on the exact same items either way.
        let audit_items = if self.obs.events_enabled() {
            Some(items.clone())
        } else {
            None
        };
        let selection = select_configuration(items, self.config.smax);
        ctx.trace.selection.planned_creations = selection.to_create.len() as u32;
        ctx.trace.selection.planned_evictions = selection.to_evict.len() as u32;
        if let Some(items) = audit_items {
            self.observe_selection(&items, &selection, ctx.tnow);
        }
        if self.obs.enabled() {
            self.obs.counter_add(
                "deepsea_candidates_considered_total",
                None,
                ctx.trace.selection.considered as u64,
            );
            self.observe_mle_fits(ctx.tnow);
        }
        ctx.selection = selection;
    }

    /// Log one `selection_verdict` audit event per `ALLCAND` item. An item
    /// absent from all three result lists was rejected by admission sizing
    /// (unmaterialized, didn't fit the Φ-ranked prefix).
    fn observe_selection(
        &self,
        items: &[RankedItem],
        selection: &SelectionResult,
        tnow: LogicalTime,
    ) {
        if !self.obs.enabled() {
            return;
        }
        for item in items {
            let verdict = if selection.to_create.iter().any(|i| i.kind == item.kind) {
                "create"
            } else if selection.to_evict.iter().any(|i| i.kind == item.kind) {
                "evict"
            } else if selection.to_keep.iter().any(|i| i.kind == item.kind) {
                "keep"
            } else {
                "reject"
            };
            self.obs.observe("deepsea_phi", None, item.phi);
            self.obs.event(
                tnow,
                DecisionEvent::SelectionVerdict {
                    item: self.describe_item(&item.kind),
                    verdict,
                    phi: item.phi,
                    size: item.size,
                    materialized: item.materialized,
                },
            );
        }
    }

    /// Record MLE fit quality (§7.1) for every partition the policy smooths.
    /// The fit is recomputed here — a pure function of the same statistics
    /// `fragment_values` read — so observation feeds no decision.
    fn observe_mle_fits(&self, tnow: LogicalTime) {
        if !self.obs.enabled() {
            return;
        }
        if !matches!(
            self.config.value_model,
            ValueModel::DeepSea { use_mle: true }
        ) {
            return;
        }
        let tmax = self.config.tmax;
        for view in self.registry.iter() {
            for ps in view.partitions.values() {
                if !ps.any_materialized() {
                    continue;
                }
                let weighted: Vec<_> = ps
                    .fragments
                    .iter()
                    .map(|f| (f.interval, f.stats.decayed_hits(tnow, tmax)))
                    .collect();
                let total: f64 = weighted.iter().map(|(_, h)| h).sum();
                let Some(fit) = fit_normal(&weighted) else {
                    continue;
                };
                let label = format!("{}.{}", view.name, ps.attr);
                self.obs
                    .gauge_set("deepsea_mle_mean", Some(&label), fit.mean);
                self.obs.gauge_set("deepsea_mle_std", Some(&label), fit.std);
                self.obs.event(
                    tnow,
                    DecisionEvent::MleFit {
                        view: view.name.clone(),
                        attr: ps.attr.clone(),
                        mean: fit.mean,
                        std: fit.std,
                        total_hits: total,
                        fragments: ps.fragments.len() as u64,
                    },
                );
            }
        }
    }

    /// Build `ALLCAND` — also used by `enforce_limit` to re-rank the pool.
    pub(crate) fn build_allcand(&self, new_cands: &[ViewId], tnow: LogicalTime) -> Vec<RankedItem> {
        let tmax = self.config.tmax;
        let vm = self.config.value_model;
        let mut items = Vec::new();
        let mut included: BTreeSet<ViewId> = BTreeSet::new();

        // Vsel: this query's unmaterialized view candidates passing COST ≤ B.
        for &vid in new_cands {
            if !included.insert(vid) {
                continue;
            }
            let view = self.registry.view(vid);
            if view.is_materialized() {
                continue;
            }
            let benefit = vm.view_benefit(&view.stats, tnow, tmax);
            if view.creation_overhead > benefit {
                continue;
            }
            // Under the progressive policy a new partitioned view's *initial
            // fragments* are admitted individually — "candidate views and
            // fragments are treated alike" (§7.3). A pool far smaller than
            // the view can still admit its hot fragments.
            let progressive = matches!(
                self.config.partition_policy,
                PartitionPolicy::Progressive { .. }
            );
            let hinted = view
                .partitions
                .values()
                .max_by_key(|p| (p.boundaries.len(), p.fragments.len()))
                .filter(|p| !p.fragments.is_empty());
            match hinted {
                Some(ps) if progressive => {
                    let values =
                        vm.fragment_values(ps, view.stats.size, view.stats.cost, tnow, tmax);
                    // Tracked candidates can overlap (pieces from different
                    // queries' splits); the initial materialization keeps a
                    // greedy Φ-ranked *disjoint* subset so the view is not
                    // written multiple times over.
                    let mut ranked: Vec<(&crate::fragment::FragmentMeta, f64)> =
                        ps.fragments.iter().zip(values).collect();
                    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
                    let mut taken: Vec<crate::interval::Interval> = Vec::new();
                    for (frag, phi) in ranked {
                        if taken.iter().any(|iv| iv.overlaps(&frag.interval)) {
                            continue;
                        }
                        taken.push(frag.interval);
                        items.push(RankedItem {
                            kind: CandidateKind::Fragment(view.id, ps.attr.clone(), frag.id),
                            phi,
                            size: frag.size,
                            materialized: false,
                        });
                    }
                }
                _ => items.push(RankedItem {
                    kind: CandidateKind::WholeView(vid),
                    phi: vm.view_value(&view.stats, tnow, tmax),
                    size: view.stats.size,
                    materialized: false,
                }),
            }
        }

        for view in self.registry.iter() {
            // Materialized whole views partake (needed for NP-style pools).
            if view.whole_file.is_some() {
                items.push(RankedItem {
                    kind: CandidateKind::WholeView(view.id),
                    phi: vm.view_value(&view.stats, tnow, tmax),
                    size: view.stats.size,
                    materialized: true,
                });
            }
            for ps in view.partitions.values() {
                if !ps.any_materialized() {
                    continue;
                }
                let values = vm.fragment_values(ps, view.stats.size, view.stats.cost, tnow, tmax);
                // The pool partition, listed once for every refinement
                // candidate below.
                let mats = ps.materialized();
                let mat_sizes: Vec<(Interval, u64)> = ps
                    .fragments
                    .iter()
                    .filter(|f| f.is_materialized())
                    .map(|f| (f.interval, f.size))
                    .collect();
                for (frag, phi) in ps.fragments.iter().zip(values) {
                    if frag.is_materialized() {
                        items.push(RankedItem {
                            kind: CandidateKind::Fragment(view.id, ps.attr.clone(), frag.id),
                            phi,
                            size: frag.size,
                            materialized: true,
                        });
                    } else if self.config.partition_policy.repartitions() {
                        // Psel: refinement candidates passing COST(Icand) ≤ B(I)
                        // (§7.2 — only for partitions already in the pool).
                        // A candidate that is already covered nearly as
                        // cheaply by materialized fragments brings no marginal
                        // benefit — skip it (the cost-based refinement
                        // decision of §2).
                        let block = self.fs.block_config().block_bytes;
                        let cover_bytes = partition_matching(&frag.interval, &mats).map(|cover| {
                            cover
                                .iter()
                                .filter_map(|id| ps.frag(*id))
                                .map(|f| f.size)
                                .sum::<u64>()
                        });
                        if let Some(cb) = cover_bytes {
                            if cb <= frag.size.saturating_mul(5) / 4 {
                                continue;
                            }
                        }
                        // COST(Icand) = wwrite·S(Icand) + Σ wread·S(I), here at
                        // cluster-effective rates so the units match benefits.
                        let read_bytes: u64 = mat_sizes
                            .iter()
                            .filter(|(iv, _)| iv.overlaps(&frag.interval))
                            .map(|(_, size)| size)
                            .sum();
                        let create_cost = if read_bytes == 0 {
                            // Nothing materialized overlaps: the fragment must
                            // be rebuilt by recomputing the view (§7.1: the
                            // fragment's cost is its view's creation cost).
                            view.stats.cost
                        } else {
                            self.backend
                                .write_secs(frag.size, frag.size.div_ceil(block).max(1))
                                + self.backend.scan_secs(read_bytes, block)
                        };
                        // Admission benefit: what each (decayed) hit actually
                        // saves over today's best access to this range — the
                        // cover read (or a full recompute when uncovered)
                        // versus reading just this fragment. A sharper proxy
                        // for B(I) than the size-share formula, which is kept
                        // for the eviction ranking Φ above.
                        let per_hit_saving = match cover_bytes {
                            Some(cb) => (self.backend.scan_secs(cb, block)
                                - self.backend.scan_secs(frag.size, block))
                            .max(0.0),
                            None => (view.stats.cost - self.backend.scan_secs(frag.size, block))
                                .max(0.0),
                        };
                        let benefit = per_hit_saving * frag.stats.decayed_hits(tnow, tmax);
                        if create_cost <= benefit {
                            items.push(RankedItem {
                                kind: CandidateKind::Fragment(view.id, ps.attr.clone(), frag.id),
                                phi,
                                size: frag.size,
                                materialized: false,
                            });
                        }
                    }
                }
            }
        }
        items
    }
}
