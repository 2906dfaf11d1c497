//! Turning rounds into metrics, the layer-accounting checks, and the
//! result line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::clock;
use crate::trace::{self, ANSWER, BUILD, PROBE, PROCESS_QUERY, READ, SERVER_RUN};
use crate::workloads::{Round, Workload};

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// The benchmark's own checks. Any failure makes the result `correct:
/// false`.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn note(&mut self, what: &str, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.fail(format!("{what}: {e}"));
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Metrics in the order they are reported.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Nearest-rank percentile (index rounding, as `ServeReport` does); `p` in
/// `[0, 1]`.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(((v.len().max(1) - 1) as f64 * p).round() as usize)
        .copied()
        .unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM line in the process status".into())
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// outside a git repository.
pub fn commit() -> String {
    let git = Path::new(MANIFEST_DIR).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(git.join(reference)) {
        return id.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `BENCH.json`'s `<key>.total_secs`, the fig5a quick-scale total.
pub fn bench_json_total(key: &str) -> Result<f64, String> {
    let path = Path::new(MANIFEST_DIR).join("../BENCH.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let anchor = format!("\"{key}\":{{");
    let at = text
        .find(&anchor)
        .ok_or(format!("BENCH.json has no {key:?} object"))?;
    let rest = &text[at + anchor.len()..];
    let field = "\"total_secs\":";
    let from = rest
        .find(field)
        .ok_or(format!("BENCH.json {key} has no total_secs"))?;
    let number: String = rest[from + field.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    number
        .parse()
        .map_err(|_| format!("BENCH.json {key}.total_secs is not a number: {number:?}"))
}

pub fn spans_path(workload: &str, seed: u64) -> PathBuf {
    Path::new(MANIFEST_DIR).join(format!("out/spans-{workload}-{seed}.jsonl"))
}

/// A round's per-query host ms, scaled to the reference machine speed by
/// the speed probes run next to its queries.
fn scaled_query_ms(r: &Round) -> Vec<f64> {
    let f = clock::factor(&r.probe_ns);
    r.query_ns.iter().map(|&ns| ns as f64 / 1e6 * f).collect()
}

/// End-to-end metrics from the untraced rounds. Host timings pool every
/// round's per-query times, each scaled to the reference machine speed
/// (`setup_ns_scaled` already is). Simulated outputs are the same in every
/// round.
pub fn end_to_end(
    rounds: &[Round],
    setup_ns_scaled: &[f64],
    m: &mut Metrics,
) -> Result<(), String> {
    let first = &rounds[0];
    let raw_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.query_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let query_ms: Vec<f64> = rounds.iter().flat_map(scaled_query_ms).collect();
    let qps = |ms: &[f64]| ratio(ms.len() as f64, ms.iter().sum::<f64>() / 1e3);
    let answers = first.answers as f64;
    let failed = (first.wrong + first.errors) as f64;
    println!(
        "measured: {} round(s) of {} queries, {} set-ups; unscaled: {:.3} queries/s, \
         p50 {:.4} ms, p95 {:.4} ms; round speed factors {:?}",
        rounds.len(),
        first.query_ns.len(),
        setup_ns_scaled.len(),
        qps(&raw_ms),
        percentile(&raw_ms, 0.5),
        percentile(&raw_ms, 0.95),
        rounds
            .iter()
            .map(|r| (clock::factor(&r.probe_ns) * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    m.push("setup_s", percentile(setup_ns_scaled, 0.5) / 1e9, "s");
    m.push("queries_per_s", qps(&query_ms), "1/s");
    m.push("query_ms_p50", percentile(&query_ms, 0.5), "ms");
    m.push("query_ms_p95", percentile(&query_ms, 0.95), "ms");
    m.push("sim_total_s", first.sim_total_s, "s");
    m.push(
        "sim_latency_p50_s",
        percentile(&first.sim_latency_s, 0.5),
        "s",
    );
    m.push(
        "sim_latency_p95_s",
        percentile(&first.sim_latency_s, 0.95),
        "s",
    );
    m.push("pool_peak_gb", first.pool_peak_bytes as f64 / 1e9, "GB");
    m.push(
        "answers_ok_frac",
        ratio(answers - failed, answers),
        "fraction",
    );
    m.push("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok(())
}

/// Per-name totals over the traced round's spans.
#[derive(Default, Clone, Copy)]
struct Tally {
    calls: u64,
    dur_ns: u64,
    self_ns: u64,
    rows: u64,
}

/// Per-layer metrics from the untraced, traced and observed rounds (in that
/// order), with the layer-accounting checks; writes the span file.
pub fn per_layer(
    w: Workload,
    rounds: &[Round],
    calib_ms: f64,
    spans_path: &Path,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let [untraced, traced, observed] = rounds else {
        return Err("the traced run needs untraced, traced and observed rounds".into());
    };
    let rec = traced
        .recorder
        .as_ref()
        .ok_or("traced round has no recorder")?;
    trace::write_spans(spans_path, &rec.spans)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    let selfs = match trace::self_times(&rec.spans) {
        Ok(selfs) => selfs,
        Err(e) => {
            checks.fail(format!("layer accounting: {e}"));
            vec![0; rec.spans.len()]
        }
    };
    let mut by_name: BTreeMap<&str, Tally> = BTreeMap::new();
    for (s, &self_ns) in rec.spans.iter().zip(&selfs) {
        let t = by_name.entry(s.name).or_default();
        t.calls += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += self_ns;
        t.rows += s.rows;
        // Writer executes nest in their query; reads in the server run.
        let want_parent = match s.name {
            ANSWER | BUILD => Some(PROCESS_QUERY),
            READ | PROBE => Some(SERVER_RUN),
            PROCESS_QUERY if w == Workload::Serve => Some(SERVER_RUN),
            _ => None,
        };
        let parent = s.parent.map(|p| rec.spans[p].name);
        if parent != want_parent {
            checks.fail(format!(
                "layer accounting: {} span under {parent:?}, expected {want_parent:?}",
                s.name
            ));
        }
    }
    let get = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let (pq, answer, build, read, run, probe) = (
        get(PROCESS_QUERY),
        get(ANSWER),
        get(BUILD),
        get(READ),
        get(SERVER_RUN),
        get(PROBE),
    );
    let queries = traced.query_ns.len() as u64;
    if pq.calls != queries {
        checks.fail(format!(
            "layer accounting: {} process_query spans for {queries} queries",
            pq.calls
        ));
    }
    // Reader executes + writer executes + server self time = run time, with
    // the speed probes the benchmark ran inside the run taken out.
    let exec_ns = answer.dur_ns + build.dur_ns + read.dur_ns;
    let server_self_ns = run.dur_ns.saturating_sub(exec_ns + probe.dur_ns);
    if w == Workload::Serve && server_self_ns != run.self_ns + pq.self_ns {
        checks.fail(format!(
            "layer accounting: server self time {server_self_ns} ns != run self {} ns + commit self {} ns",
            run.self_ns, pq.self_ns
        ));
    }
    // Host times at the reference machine speed, like the end-to-end ones.
    let speed = clock::factor(&traced.probe_ns);
    let ms = |ns: u64| ns as f64 / 1e6 * speed;
    let core = &traced.core;

    m.push("core.process_query_ms", ms(pq.dur_ns), "ms");
    m.push("core.decide_ms", ms(pq.self_ns), "ms");
    m.push(
        "core.decide_us_per_candidate",
        ratio(ms(pq.self_ns) * 1e3, core.selection_considered as f64),
        "us",
    );
    m.push("core.matching.roots", core.matching_roots as f64, "count");
    m.push("core.matching.hits", core.matching_hits as f64, "count");
    m.push(
        "core.selection.considered",
        core.selection_considered as f64,
        "count",
    );
    m.push(
        "core.candidates.new_fragments",
        core.new_fragments as f64,
        "count",
    );
    m.push(
        "core.view_hit_ratio",
        ratio(core.view_answers as f64, queries as f64),
        "fraction",
    );

    m.push("engine.answer_calls", answer.calls as f64, "count");
    m.push("engine.answer_ms", ms(answer.dur_ns), "ms");
    m.push("engine.build_calls", build.calls as f64, "count");
    m.push("engine.build_ms", ms(build.dur_ns), "ms");
    m.push("engine.read_calls", read.calls as f64, "count");
    m.push("engine.read_ms", ms(read.dur_ns), "ms");
    let rows = answer.rows + build.rows + read.rows;
    m.push("engine.rows", rows as f64, "count");
    m.push(
        "engine.rows_per_ms",
        ratio(rows as f64, ms(exec_ns)),
        "1/ms",
    );
    m.push("engine.errors", rec.errors as f64, "count");
    m.push("engine.pricing_calls", rec.pricing_calls as f64, "count");

    m.push("server.run_ms", ms(run.dur_ns), "ms");
    m.push("server.self_ms", ms(server_self_ns), "ms");
    m.push("server.divergent_reads", traced.server[0] as f64, "count");
    m.push("server.degraded_reads", traced.server[1] as f64, "count");
    m.push("server.max_epoch_lag", traced.server[2] as f64, "count");

    let ledger = &untraced.sim.ledger;
    m.push(
        "storage.files_written",
        ledger.files_written as f64,
        "count",
    );
    m.push("storage.files_read", ledger.files_read as f64, "count");
    m.push(
        "storage.files_deleted",
        ledger.files_deleted as f64,
        "count",
    );
    m.push("storage.gb_written", ledger.write_bytes as f64 / 1e9, "GB");
    m.push("storage.gb_read", ledger.read_bytes as f64 / 1e9, "GB");
    m.push(
        "storage.write_amp",
        ratio(ledger.write_bytes as f64, untraced.pool_peak_bytes as f64),
        "ratio",
    );
    m.push("storage.live_files", untraced.live_files as f64, "count");

    let median_ms = |f: fn(&Round) -> u64| {
        let v: Vec<f64> = rounds
            .iter()
            .map(|r| f(r) as f64 / 1e6 * clock::factor(&r.setup_probe_ns))
            .collect();
        percentile(&v, 0.5)
    };
    m.push("workload.generate_ms", median_ms(|r| r.generate_ns), "ms");
    m.push("workload.plans_ms", median_ms(|r| r.plans_ns), "ms");

    let scaled = |r: &Round| scaled_query_ms(r).iter().sum::<f64>();
    let overhead = |r: &Round| 100.0 * (ratio(scaled(r), scaled(untraced)) - 1.0);
    let (obs_spans, obs_events) = observed.obs_counts.unwrap_or_default();
    m.push("obs.overhead_pct", overhead(observed), "%");
    m.push("obs.spans", obs_spans as f64, "count");
    m.push("obs.events", obs_events as f64, "count");

    m.push(
        "oracle.failed_frac",
        ratio((traced.wrong + traced.errors) as f64, traced.answers as f64),
        "fraction",
    );
    m.push("bench.trace_overhead_pct", overhead(traced), "%");
    m.push("bench.calib_ms", calib_ms, "ms");
    m.push("bench.speed_factor", speed, "ratio");
    Ok(())
}

/// The result line: `correct`, `attempted`, `failed` and the metrics, each
/// value with all its digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let mut correct = correct;
    let fields: Vec<String> =
        m.0.iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    *value
                } else {
                    correct = false;
                    0.0
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}
