//! Criterion micro-benchmarks for HARMONY's algorithmic substrates:
//! K-means, ARIMA, Erlang-C/M/G/N, and the CBS-RELAX simplex solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harmony::cbs::{solve_cbs_relax_priced, CbsInputs, CbsObjective};
use harmony::HarmonyConfig;
use harmony_forecast::{Arima, Forecaster};
use harmony_kmeans::{Dataset, KMeans};
use harmony_model::{EnergyPrice, MachineCatalog, Resources, SimDuration, SimTime};
use harmony_queueing::MgnQueue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans");
    for &n in &[1_000usize, 10_000] {
        let mut rng = StdRng::seed_from_u64(1);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let center = (i % 5) as f64 * 3.0;
                vec![center + rng.gen::<f64>(), center - rng.gen::<f64>()]
            })
            .collect();
        let data = Dataset::from_rows(rows).unwrap();
        group.bench_with_input(BenchmarkId::new("fit_k5", n), &data, |b, data| {
            b.iter(|| KMeans::new(5).seed(7).restarts(1).fit(data).unwrap())
        });
    }
    group.finish();
}

fn bench_forecast(c: &mut Criterion) {
    let mut group = c.benchmark_group("forecast");
    // A day of 5-minute arrival-rate samples with diurnal shape.
    let series: Vec<f64> = (0..288)
        .map(|i| 10.0 + 4.0 * (i as f64 / 288.0 * std::f64::consts::TAU).sin())
        .collect();
    let arima = Arima::new(2, 0, 1).unwrap().with_mean();
    group.bench_function("arima_2_0_1_fit_forecast", |b| {
        b.iter(|| arima.forecast(&series, 4).unwrap())
    });
    group.bench_function("arima_fit_only", |b| b.iter(|| arima.fit(&series).unwrap()));
    group.finish();
}

fn bench_queueing(c: &mut Criterion) {
    let mut group = c.benchmark_group("queueing");
    group.bench_function("erlang_c_n5000", |b| {
        b.iter(|| harmony_queueing::erlang_c(5000, 4800.0).unwrap())
    });
    let queue = MgnQueue::new(500.0, 0.01, 1.5).unwrap();
    group.bench_function("min_servers_50k_offered", |b| {
        b.iter(|| queue.min_servers(60.0).unwrap())
    });
    group.finish();
}

fn bench_cbs_relax(c: &mut Criterion) {
    let mut group = c.benchmark_group("cbs_relax");
    group.sample_size(10);
    let catalog = MachineCatalog::table2().scaled(20);
    for &(n_classes, horizon) in &[(8usize, 2usize), (24, 4), (48, 4)] {
        let mut rng = StdRng::seed_from_u64(3);
        let sizes: Vec<Resources> = (0..n_classes)
            .map(|_| Resources::new(0.01 + rng.gen::<f64>() * 0.3, 0.01 + rng.gen::<f64>() * 0.3))
            .collect();
        let utility: Vec<f64> = (0..n_classes).map(|_| 0.05 + rng.gen::<f64>()).collect();
        let demand: Vec<Vec<f64>> = (0..horizon)
            .map(|_| (0..n_classes).map(|_| rng.gen::<f64>() * 30.0).collect())
            .collect();
        let config = HarmonyConfig {
            control_period: SimDuration::from_mins(10.0),
            horizon,
            ..Default::default()
        };
        let initial = vec![0.0; catalog.len()];
        group.bench_function(
            BenchmarkId::new("solve", format!("N{n_classes}_W{horizon}")),
            |b| {
                b.iter(|| {
                    solve_cbs_relax_priced(
                        &CbsInputs {
                            catalog: &catalog,
                            container_sizes: &sizes,
                            utility_per_hour: &utility,
                            demand: &demand,
                            initial_active: &initial,
                            price: &EnergyPrice::default(),
                            now: SimTime::ZERO,
                        },
                        &config,
                        &CbsObjective::Energy,
                        None,
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kmeans,
    bench_forecast,
    bench_queueing,
    bench_cbs_relax
);
criterion_main!(benches);
