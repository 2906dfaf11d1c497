//! Microbenchmarks for DeepSea's hot per-query operations: the matching,
//! candidate-generation, statistics, and selection code that runs for every
//! query of a workload (Algorithm 1's non-execution overhead), and the
//! engine operators that answer it, in rows per second.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use deepsea_core::candidates::partition_candidates;
use deepsea_core::filter_tree::{FilterTree, ViewId};
use deepsea_core::fragment::FragmentId;
use deepsea_core::interval::Interval;
use deepsea_core::matching::partition_matching;
use deepsea_core::mle::{adjusted_hits, fit_normal};
use deepsea_core::selection::{select_configuration, CandidateKind, RankedItem};
use deepsea_engine::plan::{AggExpr, AggFunc, ViewScanInfo};
use deepsea_engine::signature::{matches, Signature};
use deepsea_engine::{execute, LogicalPlan};
use deepsea_relation::{Predicate, Table};
use deepsea_storage::{BlockConfig, CostWeights, SimFs};
use deepsea_workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea_workload::sdss::sdss_like_histogram;
use deepsea_workload::sequences::item_domain;

fn bench_signature(c: &mut Criterion) {
    let plan = LogicalPlan::scan("store_sales")
        .join(LogicalPlan::scan("item"), vec![("ss_item_sk", "i_item_sk")])
        .join(
            LogicalPlan::scan("customer"),
            vec![("ss_customer_sk", "c_customer_sk")],
        )
        .select(Predicate::range("ss_item_sk", 100, 500))
        .aggregate(vec!["i_category"], vec![AggExpr::count("cnt")]);
    c.bench_function("signature_of_3way_join", |b| {
        b.iter(|| Signature::of(black_box(&plan)))
    });
    let vsig = Signature::of(&plan).unwrap();
    let qsig = Signature::of(
        &LogicalPlan::scan("store_sales")
            .join(LogicalPlan::scan("item"), vec![("ss_item_sk", "i_item_sk")])
            .join(
                LogicalPlan::scan("customer"),
                vec![("ss_customer_sk", "c_customer_sk")],
            )
            .select(Predicate::range("ss_item_sk", 200, 400))
            .aggregate(vec!["i_category"], vec![AggExpr::count("cnt")]),
    )
    .unwrap();
    c.bench_function("sufficient_condition_match", |b| {
        b.iter(|| matches(black_box(&vsig), black_box(&qsig)))
    });
}

fn bench_filter_tree(c: &mut Criterion) {
    let mut ft = FilterTree::new();
    for i in 0..200 {
        let plan =
            LogicalPlan::scan(format!("t{i}")).join(LogicalPlan::scan("item"), vec![("a", "b")]);
        ft.insert(&Signature::of(&plan).unwrap(), ViewId(i));
    }
    let probe =
        Signature::of(&LogicalPlan::scan("t100").join(LogicalPlan::scan("item"), vec![("a", "b")]))
            .unwrap();
    c.bench_function("filter_tree_lookup_200_views", |b| {
        b.iter(|| ft.lookup(black_box(&probe)))
    });
}

fn bench_partition_ops(c: &mut Criterion) {
    // 64 fragments over [0, 400_000].
    let domain = Interval::new(0, 400_000);
    let frags: Vec<Interval> = domain.chop(64);
    let pairs: Vec<(FragmentId, Interval)> = frags
        .iter()
        .enumerate()
        .map(|(i, iv)| (FragmentId(i as u64), *iv))
        .collect();
    let theta = Interval::new(123_456, 234_567);
    c.bench_function("algorithm2_cover_64_fragments", |b| {
        b.iter(|| partition_matching(black_box(&theta), black_box(&pairs)))
    });
    c.bench_function("def7_candidates_64_fragments", |b| {
        b.iter(|| partition_candidates(black_box(&frags), &domain, black_box(&theta)))
    });
}

fn bench_mle(c: &mut Criterion) {
    let frags: Vec<(Interval, f64)> = (0..64)
        .map(|i| {
            let iv = Interval::new(i * 1_000, i * 1_000 + 999);
            let d = (i - 32) as f64;
            (iv, 1_000.0 * (-d * d / 50.0).exp())
        })
        .collect();
    c.bench_function("mle_fit_64_fragments", |b| {
        b.iter(|| fit_normal(black_box(&frags)))
    });
    let fit = fit_normal(&frags).unwrap();
    c.bench_function("mle_adjusted_hits", |b| {
        b.iter(|| adjusted_hits(1_000.0, black_box(&fit), &Interval::new(30_000, 31_000)))
    });
}

fn bench_selection(c: &mut Criterion) {
    let items: Vec<RankedItem> = (0..500)
        .map(|i| RankedItem {
            kind: CandidateKind::WholeView(ViewId(i)),
            phi: (i as f64 * 37.0) % 101.0,
            size: 1_000 + (i % 97) * 13,
            materialized: i % 3 == 0,
        })
        .collect();
    c.bench_function("greedy_knapsack_500_items", |b| {
        b.iter(|| select_configuration(black_box(items.clone()), Some(100_000)))
    });
}

/// Engine operators on the fig5 "100 GB" instance (SDSS-histogram items,
/// 4·10⁴ fact rows), each reported in input rows per second.
fn bench_engine(c: &mut Criterion) {
    let (lo, hi) = item_domain();
    let data = BigBenchData::generate(
        InstanceSize::Gb100,
        &ItemDistribution::Histogram(sdss_like_histogram(lo, hi)),
        0xDEE9_5EA0,
    );
    let catalog = data.catalog;
    let rows = |t: &str| catalog.get(t).map_or(0, |t| t.len() as u64);
    let fs = SimFs::new(BlockConfig::default(), CostWeights::default());
    let mut g = c.benchmark_group("engine");

    // The fig5 view shape: fact ⋈ item with the range selection above it.
    let join = LogicalPlan::scan("store_sales").join(
        LogicalPlan::scan("item"),
        vec![("store_sales.ss_item_sk", "item.i_item_sk")],
    );
    let range = Predicate::range("store_sales.ss_item_sk", 10_000, 12_000);
    let plan = join.clone().select(range.clone());
    g.throughput(Throughput::Elements(rows("store_sales") + rows("item")));
    g.bench_function("join_40k_x_40k_select", |b| {
        b.iter(|| execute(black_box(&plan), &catalog, &fs).expect("join runs"))
    });

    // The same selection answered from the view, stored as 30 fragments.
    let (view, _) = execute(&join, &catalog, &fs).expect("view builds");
    let per = view.len().div_ceil(30);
    let files = view
        .rows
        .chunks(per)
        .enumerate()
        .map(|(i, part)| {
            let frag = Table::new(view.schema.clone(), part.to_vec(), view.bytes_per_row);
            fs.create(format!("frag{i}"), frag.sim_bytes(), frag).0
        })
        .collect();
    let plan = LogicalPlan::ViewScan(ViewScanInfo {
        view_name: "v".into(),
        files,
        schema: view.schema.clone(),
    })
    .select(range);
    g.throughput(Throughput::Elements(view.len() as u64));
    g.bench_function("view_scan_30_fragments_select", |b| {
        b.iter(|| execute(black_box(&plan), &catalog, &fs).expect("view scan runs"))
    });

    // A `Str`-keyed aggregate: items per category.
    let plan = LogicalPlan::scan("item").aggregate(
        vec!["item.i_category"],
        vec![
            AggExpr::count("cnt"),
            AggExpr::of(AggFunc::Max, "item.i_item_sk", "top"),
        ],
    );
    g.throughput(Throughput::Elements(rows("item")));
    g.bench_function("aggregate_str_key", |b| {
        b.iter(|| execute(black_box(&plan), &catalog, &fs).expect("aggregate runs"))
    });
    g.finish();
}

criterion_group!(
    name = micro;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_signature, bench_filter_tree, bench_partition_ops, bench_mle, bench_selection,
        bench_engine
);
criterion_main!(micro);
