//! `fit_batch`: one caller running cold `CbmfFit::fit` back to back on the
//! tunable LNA's voltage gain at the `cbmf_report` operating point,
//! restricted to the LNA's first knob states — the system's most expensive
//! compute (CV sweep, EM moment solves, fork-joins, allocator and page
//! faults), with no streaming and no serving.

use std::time::Instant;

use cbmf::{CbmfError, CbmfFit, FitOutcome, FitStrategy, TunableProblem};
use cbmf_circuits::{Lna, MonteCarlo, Testbench};
use cbmf_stats::describe::median;
use cbmf_stats::seeded_rng;

use crate::inputs::{config, metric_index, problem, FirstStates};
use crate::layers::{self, row, span_s};
use crate::metrics::{whole_rounds, Outcome};
use crate::os::{measure, Cost, Usage};
use crate::Args;

/// Knob states kept of the LNA's 32. Every fit still selects among all
/// M = 1264 bases. A fit of all 32 states takes 6–9 s here, so a 30 s run
/// holds three to five of them and its median moves with every stall of the
/// host; at 8 states a fit takes about 1 s and a run holds some twenty.
pub const STATES: usize = 8;
/// Training samples per state.
pub const TRAIN_PER_STATE: usize = 15;
/// Held-out samples per state scoring the model's error.
pub const TEST_PER_STATE: usize = 20;
/// Modeled LNA metric.
pub const METRIC: &str = "vg_db";
/// Distinct datasets per run, each collected from its own generator
/// derived from the seed. A fit's cost depends on its data (the support EM
/// keeps), so a run takes its median over several.
pub const DATASETS: usize = 6;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Output check on accuracy: every model's held-out error stays below this.
/// Over 180 datasets (seeds 101–120 and 201–210) it measured 1.90–3.64%,
/// median 2.46%, so the limit sits a quarter above the largest value.
pub const ERROR_LIMIT_PCT: f64 = 4.5;

struct Data {
    /// Never fitted, so every clone starts with empty Gram caches: each
    /// timed fit is cold.
    train: TunableProblem,
    test: TunableProblem,
    sims: usize,
    mc_s: f64,
    build_s: f64,
}

fn dataset_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ (0xda7a_0000 + i as u64)
}

/// Collects and builds the first `n` datasets of the run.
fn setup(seed: u64, n: usize) -> Vec<Data> {
    let lna = FirstStates {
        tb: Lna::new(),
        states: STATES,
    };
    (0..n)
        .map(|i| collect(&lna, dataset_seed(seed, i)))
        .collect()
}

fn collect(lna: &(impl Testbench + Sync), seed: u64) -> Data {
    let metric = metric_index(lna, METRIC);
    let mut rng = seeded_rng(seed);
    let t = Instant::now();
    let train_ds = MonteCarlo::new(TRAIN_PER_STATE)
        .collect(lna, &mut rng)
        .expect("LNA Monte Carlo");
    let test_ds = MonteCarlo::new(TEST_PER_STATE)
        .collect(lna, &mut rng)
        .expect("LNA Monte Carlo");
    let mc_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let train = problem(&train_ds, metric);
    let test = problem(&test_ds, metric);
    let build_s = t.elapsed().as_secs_f64();
    Data {
        train,
        test,
        sims: train_ds.total_samples(),
        mc_s,
        build_s,
    }
}

/// The fit's own generator is seeded from the workload seed alone, so every
/// repetition must return the identical model.
fn fit_seed(seed: u64) -> u64 {
    seed ^ 0x0f17_ba7c_4000_0000
}

/// One cold fit on a fresh copy of the training problem; the copy is made
/// before and dropped after the measurement.
fn cold_fit(data: &Data, seed: u64) -> (Result<FitOutcome, CbmfError>, Cost) {
    let fresh = data.train.clone();
    let mut rng = seeded_rng(fit_seed(seed));
    let measured = measure(|| CbmfFit::new(config()).fit(&fresh, &mut rng));
    drop(fresh);
    measured
}

/// What output checks compare across repetitions and thread counts.
#[derive(Debug, PartialEq)]
struct Signature {
    error_bits: u64,
    support: Vec<usize>,
}

/// Scores a fit, counting it as failed unless it ended on the full rung.
fn score(
    out: &mut Outcome,
    result: Result<FitOutcome, CbmfError>,
    test: &TunableProblem,
) -> Option<(f64, Signature)> {
    out.attempted += 1;
    let fit = match result {
        Ok(fit) if fit.strategy() == FitStrategy::Full => fit,
        Ok(fit) => {
            eprintln!("fit took fallback rung {:?}", fit.strategy());
            out.failed += 1;
            return None;
        }
        Err(e) => {
            eprintln!("fit failed: {e}");
            out.failed += 1;
            return None;
        }
    };
    let error_pct = 100.0 * fit.model().modeling_error(test).expect("same shape");
    out.check(
        error_pct < ERROR_LIMIT_PCT,
        &format!("held-out error {error_pct:.3}% is not below {ERROR_LIMIT_PCT}%"),
    );
    Some((
        error_pct,
        Signature {
            error_bits: error_pct.to_bits(),
            support: fit.model().support().to_vec(),
        },
    ))
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::new();
    let mut setup_s = Vec::new();
    let mut data: Option<Vec<Data>> = None;
    for _ in 0..SETUP_REPS {
        let (d, cost) = measure(|| setup(args.seed, DATASETS));
        setup_s.push(cost.cpu_s);
        match &data {
            None => data = Some(d),
            Some(first) => out.check(
                first.iter().zip(&d).all(|(a, b)| {
                    same_problem(&a.train, &b.train) && same_problem(&a.test, &b.test)
                }),
                "set-up is not reproducible from the seed",
            ),
        }
    }
    let data = data.expect("at least one set-up");

    // One untimed fit first: the allocator's arenas and thresholds settle
    // over the first fits of a process, which no later fit pays again.
    let (warm_up, _) = cold_fit(&data[0], args.seed);
    score(&mut out, warm_up, &data[0].test);

    let mut costs = Vec::new();
    let mut firsts: Vec<Option<(f64, Signature)>> = Vec::new();
    let loop_s = whole_rounds(DATASETS, args.seconds, |i| {
        let d = &data[i % DATASETS];
        let (result, cost) = cold_fit(d, args.seed);
        costs.push(cost);
        let scored = score(&mut out, result, &d.test);
        if i < DATASETS {
            firsts.push(scored);
        } else if let (Some((_, first)), Some((_, again))) = (&firsts[i % DATASETS], &scored) {
            out.check(first == again, "repeated fits disagree");
        }
    });
    let errors: Vec<f64> = firsts.iter().flatten().map(|(e, _)| *e).collect();
    out.check(errors.len() == DATASETS, "a fit failed");
    let wall: Vec<f64> = costs.iter().map(|c| c.wall_s).collect();
    let cpu: Vec<f64> = costs.iter().map(|c| c.cpu_s).collect();
    out.set("setup_s", median(&setup_s));
    out.set("cpu_ms_per_op", 1e3 * median(&cpu));
    out.set("sims", data[0].sims as f64);
    println!(
        "fit_batch fits={} wall_p50_s={:.4} fits_per_s={:.4} fit_wall_s={wall:.3?} \
         fit_cpu_s={cpu:.3?} error_pct={errors:.4?}",
        wall.len(),
        median(&wall),
        wall.len() as f64 / loop_s,
    );
    out
}

fn same_problem(a: &TunableProblem, b: &TunableProblem) -> bool {
    a.states().len() == b.states().len()
        && a.states().iter().zip(b.states()).all(|(x, y)| {
            x.basis.as_slice() == y.basis.as_slice()
                && x.y == y.y
                && x.y_mean.to_bits() == y.y_mean.to_bits()
        })
}

/// The traced run: one untraced fit as the overhead baseline, one traced fit
/// at the default thread count for the breakdown, and one traced fit at a
/// single thread for the scaling ratio.
fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    layers::zero_all(&mut out);
    cbmf_trace::reset();
    let data = setup(args.seed, 1).remove(0);
    let setup_snap = cbmf_trace::snapshot();
    out.set("circuits.mc_s", data.mc_s);
    out.set("dataset.build_s", data.build_s);
    out.set(
        "circuits.sims",
        layers::counter(&setup_snap, "circuits.montecarlo.simulations"),
    );

    cbmf_trace::set_enabled(false);
    let (baseline, untraced) = cold_fit(&data, args.seed);
    let untraced_s = untraced.wall_s;
    cbmf_trace::set_enabled(true);
    let base = score(&mut out, baseline, &data.test);

    cbmf_trace::reset();
    let before = Usage::now();
    let (traced, cost) = cold_fit(&data, args.seed);
    let traced_s = cost.wall_s;
    let used = before.delta(&Usage::now());
    let snap = cbmf_trace::snapshot();
    let nproc = score(&mut out, traced, &data.test);

    // `CbmfFit::fit` opens the library's `fit` span around the whole call.
    let total = span_s(&snap, "fit");
    layers::fill_counters(&mut out, &snap);
    layers::fill_fit_spans(&mut out, &snap);
    layers::fill_os(&mut out, &used);
    layers::fill_overhead(&mut out, traced_s, untraced_s);
    let (init, em, moments, coeffs) = (
        out.values["init_s"],
        out.values["em_s"],
        out.values["posterior.moments_s"],
        out.values["posterior.coeffs_s"],
    );
    let unattributed = total - init - em;
    out.set("fit.unattributed_s", unattributed);
    let covered = (init + em) / total;
    out.set("breakdown.covered_frac", covered);
    row("fit (traced)", total, total);
    row("init", init, total);
    row("em moment solves", moments, total);
    row("em self", em - moments - coeffs, total);
    row("coefficient solve", coeffs, total);
    row("unattributed", unattributed, total);
    out.check(
        (1.0 - covered).abs() <= 0.10,
        "init + em + coefficient solve differ from the fit time by more than 10%",
    );
    out.check(layers::recoveries(&snap) == 0.0, "a recovery counter fired");

    let (single, t1) = cbmf_parallel::with_threads(1, || cold_fit(&data, args.seed));
    let t1 = t1.wall_s;
    let single = score(&mut out, single, &data.test);
    out.set("parallel.scaling_2t", t1 / traced_s);
    println!(
        "fit_batch threads={} fit_s={traced_s:.4} fit_1t_s={t1:.4} untraced_s={untraced_s:.4}",
        cbmf_parallel::max_threads()
    );
    match (base, nproc, single) {
        (Some((e, a)), Some((_, b)), Some((_, c))) => {
            out.set("model.error_pct", e);
            out.check(
                a == b && b == c,
                "fits differ across repetitions or thread counts",
            )
        }
        _ => out.check(false, "a traced fit failed"),
    }
    out
}
