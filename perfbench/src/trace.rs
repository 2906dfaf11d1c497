//! Spans recorded from outside the program: around `process_query` and
//! `ViewServer::run` by the benchmark's own code, and around every plan
//! execution by [`TimedBackend`], an [`ExecutionBackend`] decorator handed to the
//! driver through `DeepSea::with_backend`.
//!
//! Spans stay in memory ([`Recorder`]) and are written out once the run
//! ends. Each has a name, start, end and parent span.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

use deepsea_engine::exec::{ExecError, ExecMetrics};
use deepsea_engine::{Catalog, ClusterSim, ExecutionBackend, LogicalPlan, RetryAttempt};
use deepsea_relation::Table;
use deepsea_storage::SimFs;

use crate::clock::{now_ns, speed_probe};

/// Outer span around one `DeepSea::process_query` (a commit, on `serve`).
pub const PROCESS_QUERY: &str = "core.process_query";
/// Outer span around one `ViewServer::run`.
pub const SERVER_RUN: &str = "server.run";
/// First writer execute of a query: the answer.
pub const ANSWER: &str = "engine.answer";
/// Later writer executes of the same query: view builds and re-plans.
pub const BUILD: &str = "engine.build";
/// Executes by a snapshot reader (`ReadSnapshot::answer`).
pub const READ: &str = "engine.read";
/// A machine-speed probe run inside `ViewServer::run` (not program time).
pub const PROBE: &str = "bench.probe";

/// One timed interval. `end_ns` is 0 while the span is open.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Result rows, for engine spans.
    pub rows: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What the timing decorators saw, shared between the writer's decorator
/// and every forked reader's.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Record spans (the traced pass). Off, only query boundaries and pool
    /// samples are kept.
    pub spans_on: bool,
    pub spans: Vec<Span>,
    /// Open spans, innermost last; engine spans nest under the top one.
    open: Vec<usize>,
    /// The decorators run inside `ViewServer::run` (`serve`), where the
    /// benchmark cannot wrap `process_query` itself. Each writer
    /// `reset_retry_budget` then runs a speed probe and opens a commit span,
    /// and the writer's next `fork_reader` closes it.
    pub in_server: bool,
    commit_open: Option<usize>,
    /// Host time of every writer `reset_retry_budget`: one per query.
    pub query_starts_ns: Vec<u64>,
    /// Host ns of the speed probe run just before each query start.
    pub probe_ns_before_query: Vec<u64>,
    /// Pool bytes sampled at each commit end (`serve`).
    pub pool_samples: Vec<u64>,
    executes_this_query: u32,
    pub pricing_calls: u64,
    pub errors: u64,
}

pub type Shared = Arc<Mutex<Recorder>>;

pub fn shared(spans_on: bool, in_server: bool) -> Shared {
    Arc::new(Mutex::new(Recorder {
        spans_on,
        in_server,
        ..Recorder::default()
    }))
}

pub fn lock(rec: &Shared) -> MutexGuard<'_, Recorder> {
    rec.lock()
        .expect("recorder lock poisoned by a panicking decorator")
}

impl Recorder {
    /// Open a span under the innermost open span; returns its index.
    pub fn open(&mut self, name: &'static str, start_ns: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            rows: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize, end_ns: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = end_ns;
    }

    fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64, rows: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            rows,
        });
    }
}

/// Which side of the server a decorator sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Writer,
    Reader,
}

/// The timing decorator: forwards every call to the wrapped backend and
/// records, around each call, what the [`Recorder`] asks for. It never
/// changes an argument or a result, so the simulated outputs stay
/// bit-identical (checked by the benchmark's transparency cross-check).
pub struct TimedBackend {
    inner: Box<dyn ExecutionBackend>,
    rec: Shared,
    role: Role,
    /// Sampled for the pool high-water at commit ends, when set.
    fs: Option<Arc<SimFs<Table>>>,
}

impl TimedBackend {
    pub fn writer(
        inner: Box<dyn ExecutionBackend>,
        rec: Shared,
        fs: Option<Arc<SimFs<Table>>>,
    ) -> Self {
        Self {
            inner,
            rec,
            role: Role::Writer,
            fs,
        }
    }
}

impl ExecutionBackend for TimedBackend {
    fn execute(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        fs: &SimFs<Table>,
    ) -> Result<(Table, ExecMetrics), ExecError> {
        if !lock(&self.rec).spans_on {
            return self.inner.execute(plan, catalog, fs);
        }
        let start = now_ns();
        let out = self.inner.execute(plan, catalog, fs);
        let end = now_ns();
        let mut rec = lock(&self.rec);
        let name = match self.role {
            Role::Reader => READ,
            Role::Writer => {
                rec.executes_this_query += 1;
                if rec.executes_this_query == 1 {
                    ANSWER
                } else {
                    BUILD
                }
            }
        };
        let rows = match &out {
            Ok((table, _)) => table.len() as u64,
            Err(_) => {
                rec.errors += 1;
                0
            }
        };
        rec.leaf(name, start, end, rows);
        out
    }

    fn elapsed_secs(&self, metrics: &ExecMetrics) -> f64 {
        lock(&self.rec).pricing_calls += 1;
        self.inner.elapsed_secs(metrics)
    }

    fn scan_secs(&self, bytes: u64, block_bytes: u64) -> f64 {
        lock(&self.rec).pricing_calls += 1;
        self.inner.scan_secs(bytes, block_bytes)
    }

    fn write_secs(&self, bytes: u64, files: u64) -> f64 {
        lock(&self.rec).pricing_calls += 1;
        self.inner.write_secs(bytes, files)
    }

    fn cluster(&self) -> &ClusterSim {
        self.inner.cluster()
    }

    fn drain_retry_debt(&self) -> (u64, f64) {
        self.inner.drain_retry_debt()
    }

    fn fork_reader(&self) -> Option<Box<dyn ExecutionBackend>> {
        let inner = self.inner.fork_reader()?;
        if self.role == Role::Writer {
            // The server publishes a snapshot right after every commit, so
            // the writer's fork marks where that commit ended.
            let now = now_ns();
            let mut rec = lock(&self.rec);
            if let Some(idx) = rec.commit_open.take() {
                rec.close(idx, now);
            }
            if let Some(fs) = &self.fs {
                rec.pool_samples.push(fs.total_bytes());
            }
        }
        Some(Box::new(TimedBackend {
            inner,
            rec: Arc::clone(&self.rec),
            role: Role::Reader,
            fs: None,
        }))
    }

    fn reset_retry_budget(&self, budget_secs: Option<f64>) {
        if self.role == Role::Writer {
            // Called once at the start of every `process_query`.
            let mut rec = lock(&self.rec);
            if rec.in_server {
                let start = now_ns();
                speed_probe();
                let end = now_ns();
                rec.probe_ns_before_query.push(end - start);
                if rec.spans_on {
                    rec.leaf(PROBE, start, end, 0);
                }
            }
            let now = now_ns();
            rec.query_starts_ns.push(now);
            rec.executes_this_query = 0;
            if rec.spans_on && rec.in_server {
                if let Some(idx) = rec.commit_open.take() {
                    rec.close(idx, now);
                }
                let idx = rec.open(PROCESS_QUERY, now);
                rec.commit_open = Some(idx);
            }
        }
        self.inner.reset_retry_budget(budget_secs)
    }

    fn set_attempt_trace(&self, enabled: bool) {
        self.inner.set_attempt_trace(enabled)
    }

    fn drain_retry_attempts(&self) -> Vec<RetryAttempt> {
        self.inner.drain_retry_attempts()
    }
}

/// Self time of every span: its duration minus the time its children cover.
/// Fails unless every span is closed, every child lies inside its parent,
/// siblings do not overlap, and the self times of each tree add up to its
/// root's duration.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns || s.end_ns == 0 {
            return Err(format!(
                "span {i} ({}) is open or ends before it starts",
                s.name
            ));
        }
        if let Some(p) = s.parent {
            let ps = &spans[p];
            if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                return Err(format!(
                    "span {i} ({}) lies outside its parent {p} ({})",
                    s.name, ps.name
                ));
            }
            children[p].push(i);
        }
    }
    let mut selfs = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let mut kids: Vec<&Span> = children[i].iter().map(|&c| &spans[c]).collect();
        kids.sort_by_key(|k| k.start_ns);
        if let Some(w) = kids.windows(2).find(|w| w[1].start_ns < w[0].end_ns) {
            return Err(format!(
                "children of span {i} ({}) overlap: {} and {}",
                s.name, w[0].name, w[1].name
            ));
        }
        let covered: u64 = kids.iter().map(|k| k.dur_ns()).sum();
        selfs.push(s.dur_ns() - covered);
    }
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let total_self: u64 = selfs.iter().sum();
    if total_self != roots {
        return Err(format!(
            "self times add up to {total_self} ns, root spans cover {roots} ns"
        ));
    }
    Ok(selfs)
}

/// Write spans as JSON lines, one object per span.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rows\":{}}}",
            s.name, s.start_ns, s.end_ns, s.rows
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rows: 0,
        }
    }

    #[test]
    fn self_times_subtract_children() {
        let spans = vec![
            span(PROCESS_QUERY, 10, 110, None),
            span(ANSWER, 20, 50, Some(0)),
            span(BUILD, 60, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans).unwrap(), vec![60, 30, 10]);
    }

    #[test]
    fn self_times_reject_escaping_or_overlapping_children() {
        let escaping = vec![
            span(PROCESS_QUERY, 10, 20, None),
            span(ANSWER, 15, 25, Some(0)),
        ];
        assert!(self_times(&escaping).is_err());
        let overlapping = vec![
            span(PROCESS_QUERY, 10, 100, None),
            span(ANSWER, 20, 50, Some(0)),
            span(BUILD, 40, 60, Some(0)),
        ];
        assert!(self_times(&overlapping).is_err());
    }
}
