//! The answer oracle: every answer DeepSea hands out is compared, by
//! `Table::fingerprint`, with a recompute of the same plan from base tables
//! (`SimBackend::execute` on the catalog and an empty `SimFs`, so no view
//! can be involved). Base tables are frozen, so the recompute is cached per
//! distinct plan, and it always runs outside the timed regions.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use deepsea_engine::optimize::push_down_selections;
use deepsea_engine::{Catalog, ExecutionBackend, LogicalPlan, SimBackend};
use deepsea_relation::Table;
use deepsea_storage::{BlockConfig, SimFs};

/// A fixed-key hash of a result fingerprint (sorted canonical rows).
pub fn digest(fingerprint: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    fingerprint.hash(&mut h);
    h.finish()
}

fn plan_key(plan: &LogicalPlan) -> String {
    format!("{plan:?}")
}

/// Base-table answers, one fingerprint digest per distinct plan.
pub struct Oracle {
    catalog: Arc<Catalog>,
    backend: SimBackend,
    empty_fs: SimFs<Table>,
    expected: HashMap<String, u64>,
}

impl Oracle {
    pub fn new(catalog: Arc<Catalog>) -> Self {
        let backend = SimBackend::paper_default();
        let empty_fs = SimFs::new(BlockConfig::default(), backend.cluster().weights);
        Self {
            catalog,
            backend,
            empty_fs,
            expected: HashMap::new(),
        }
    }

    /// Recompute from base tables (uncached). Selections are pushed down
    /// first, as the Hive baseline does, which keeps the recompute cheap.
    pub fn recompute(&self, plan: &LogicalPlan) -> Table {
        let plan = push_down_selections(plan, &self.catalog);
        let (table, _) = self
            .backend
            .execute(&plan, &self.catalog, &self.empty_fs)
            .unwrap_or_else(|e| panic!("base-table recompute failed: {e}"));
        table
    }

    /// Compute and cache the expected answer of every plan.
    pub fn prepare(&mut self, plans: &[LogicalPlan]) {
        for plan in plans {
            let key = plan_key(plan);
            if !self.expected.contains_key(&key) {
                let want = digest(&self.recompute(plan).fingerprint());
                self.expected.insert(key, want);
            }
        }
    }

    /// Whether `fingerprint` is the base-table answer of `plan`.
    pub fn agrees(&mut self, plan: &LogicalPlan, fingerprint: &[String]) -> bool {
        self.prepare(std::slice::from_ref(plan));
        self.expected[&plan_key(plan)] == digest(fingerprint)
    }
}

/// The oracle must accept the true answer and flag a tampered copy of it
/// (one duplicated row, then one dropped row).
pub fn self_test(oracle: &mut Oracle, plans: &[LogicalPlan]) -> Result<(), String> {
    let plan = plans
        .iter()
        .find(|p| !oracle.recompute(p).rows.is_empty())
        .ok_or("no plan with a non-empty answer to tamper with")?;
    let truth = oracle.recompute(plan);
    if !oracle.agrees(plan, &truth.fingerprint()) {
        return Err("oracle rejects the true answer".into());
    }
    let mut extra = truth.clone();
    extra.rows.push(extra.rows[0].clone());
    let mut missing = truth;
    missing.rows.pop();
    for (what, tampered) in [("duplicated", extra), ("dropped", missing)] {
        if oracle.agrees(plan, &tampered.fingerprint()) {
            return Err(format!("oracle accepts an answer with a {what} row"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_flags_a_tampered_answer() {
        let inputs = crate::workloads::Inputs::generate(crate::DEFAULT_SEED, 20);
        let mut oracle = Oracle::new(Arc::clone(&inputs.catalog));
        self_test(&mut oracle, &inputs.plans).unwrap();
    }
}
