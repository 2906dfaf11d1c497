//! Host-time benchmark of DeepSea: end-to-end numbers from an untraced
//! pass, per-layer numbers from a traced pass timed from outside the
//! program, and every answer checked against a base-table recompute.
//!
//! ```text
//! perfbench --workload reuse|churn|serve [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `README.md` beside this file for the workloads and the metrics.

mod clock;
mod oracle;
mod report;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;

use clock::{calibrate_ms, now_ns};
use oracle::Oracle;
use report::{Checks, Metrics};
use workloads::{set_up, Inputs, Pass, Round, Workload};

/// The workload seed when `--seed` is not given (the experiments' seed).
pub const DEFAULT_SEED: u64 = 0xDEE9_5EA0;
/// Set-up is timed at least this many times per run; `setup_s` is the median.
const SETUP_SAMPLES: usize = 7;
/// Length of the cross-check against `BENCH.json`'s fig5a quick-scale run.
const CROSS_CHECK_QUERIES: usize = 60;

const USAGE: &str =
    "usage: perfbench --workload reuse|churn|serve [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => v.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = parse_u64(value).ok_or(format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let calib_ms = calibrate_ms();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "env: workload={} seed={:#x} commit={} nproc={nproc} calib_ms={calib_ms:.3} trace={}",
        w.name(),
        args.seed,
        report::commit(),
        u8::from(args.trace)
    );

    let mut checks = Checks::default();
    let queries = w.queries();
    // The oracle's expected answers, computed before anything is timed.
    let inputs = Inputs::generate(args.seed, queries);
    let mut oracle = Oracle::new(Arc::clone(&inputs.catalog));
    oracle.prepare(&inputs.plans);
    checks.note(
        "oracle self-test",
        oracle::self_test(&mut oracle, &inputs.plans),
    );
    drop(inputs);
    checks.note("BENCH.json cross-check", cross_check(w));

    // A traced run makes three passes: untraced, traced, observer on. An
    // untraced run repeats the untraced pass `ceil(seconds / round_secs)`
    // times.
    let passes = if args.trace {
        vec![Pass::Untraced, Pass::Traced, Pass::Observed]
    } else {
        let n = (args.seconds / w.round_secs()).ceil().max(1.0) as usize;
        vec![Pass::Untraced; n]
    };
    let rounds = passes
        .into_iter()
        .map(|pass| set_up(w, args.seed, queries, pass).run(Some(&mut oracle)))
        .collect::<Result<Vec<Round>, String>>()?;
    // No round, traced or observed either, may change a simulated output.
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.sim != rounds[0].sim {
            checks.fail(format!(
                "transparency: round {i} changed round 0's simulated outputs"
            ));
        }
    }
    let attempted: u64 = rounds.iter().map(|r| r.answers).sum();
    let failed: u64 = rounds.iter().map(|r| r.wrong + r.errors).sum();
    if let Some(first) = rounds[0].first_wrong.as_deref() {
        println!(
            "oracle: {} of {} answers per round wrong or failed; first: {first}",
            rounds[0].wrong + rounds[0].errors,
            rounds[0].answers
        );
    }

    let mut metrics = Metrics::default();
    if args.trace {
        let spans_path = report::spans_path(w.name(), args.seed);
        report::per_layer(w, &rounds, calib_ms, &spans_path, &mut metrics, &mut checks)?;
        println!("spans: {}", spans_path.display());
    } else {
        let mut setups: Vec<f64> = rounds
            .iter()
            .map(|r| r.setup_ns as f64 * clock::factor(&r.setup_probe_ns))
            .collect();
        while setups.len() < SETUP_SAMPLES {
            let s = set_up(w, args.seed, queries, Pass::Untraced);
            setups.push(s.setup_ns as f64 * clock::factor(&s.setup_probe_ns));
        }
        report::end_to_end(&rounds, &setups, &mut metrics)?;
    }
    for line in checks.failures() {
        println!("check failed: {line}");
    }
    Ok(report::result_line(
        checks.ok(),
        attempted,
        failed,
        &metrics,
    ))
}

/// At the quick scale (60 queries, the experiments' seed), `reuse` and
/// `churn` are fig5a's `DS` and `DS-tight` runs: their simulated totals must
/// equal `BENCH.json`'s `ds.total_secs` and `ds_tight.total_secs` bit for bit.
/// `serve` has no such twin.
fn cross_check(w: Workload) -> Result<(), String> {
    let key = match w {
        Workload::Reuse => "ds",
        Workload::Churn => "ds_tight",
        Workload::Serve => return Ok(()),
    };
    let want = report::bench_json_total(key)?;
    let t0 = now_ns();
    let round = set_up(w, DEFAULT_SEED, CROSS_CHECK_QUERIES, Pass::Untraced).run(None)?;
    println!(
        "cross-check: {CROSS_CHECK_QUERIES}-query {} total {} s (BENCH.json {key}: {want} s), {:.2} s host",
        w.name(),
        round.sim_total_s,
        clock::ms(t0, now_ns()) / 1e3
    );
    if round.sim_total_s.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{CROSS_CHECK_QUERIES}-query total {} differs from BENCH.json {key}.total_secs {want}",
            round.sim_total_s
        ))
    }
}
