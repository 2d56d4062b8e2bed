//! `serve_mixed`: open-loop, seeded Poisson arrivals over two connections to
//! an in-process `PredictionServer` serving a fitted C-BMF model with its
//! posterior factors — about nine in ten requests `Predict`, one in ten
//! `PredictVar`. On mean requests the protocol, socket and queue hand-off
//! dominate; on uncertainty requests the triangular solve does. The fit
//! layers sit idle while requests are served.

use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbmf::{FitStrategy, PosteriorPredictive, TunableProblem};
use cbmf_circuits::{Lna, MonteCarlo};
use cbmf_linalg::Matrix;
use cbmf_serve::{BatchPredictor, BatchQueueStats, ModelArtifact};
use cbmf_server::protocol::{encode_request, read_request, Request, RequestKind};
use cbmf_server::{PredictClient, PredictionServer, ServerConfig};
use cbmf_stats::describe::{median, quantile};
use cbmf_stats::seeded_rng;
use rand::Rng;

use crate::inputs::{config, metric_index, problem, FirstStates};
use crate::layers::{self, row};
use crate::metrics::Outcome;
use crate::os::{measure, Usage};
use crate::Args;

/// Knob states of the served LNA model (of 32): the set-up fit stays short
/// while requests still carry all 1263 variation variables.
pub const STATES: usize = 8;
/// Training samples per state of the served model.
pub const TRAIN_PER_STATE: usize = 20;
/// Held-out samples per state scoring the served model (`model.error_pct`).
pub const TEST_PER_STATE: usize = 100;
/// Modeled LNA metric.
pub const METRIC: &str = "vg_db";
/// Distinct request samples; their expected replies are computed in set-up.
pub const POOL: usize = 64;
/// Share of requests asking for predictive variance.
pub const VAR_SHARE: f64 = 0.1;
/// Client connections, one sending thread each.
pub const CONNECTIONS: usize = 2;
/// The nominal offered rate, about a seventh of what the two connections
/// served in a closed loop on a quiet host (3,400–4,600 rps), so that a host
/// running at half speed for a while still serves it without a growing
/// backlog.
pub const NOMINAL_RPS: f64 = 500.0;
/// Seconds of untimed load at the nominal rate before the nominal phase:
/// the connections, queues and server threads are warm when timing starts.
pub const WARMUP_S: f64 = 1.0;
/// The latency limit on p99 that a ladder rate must meet.
pub const LIMIT_MS: f64 = 20.0;
/// Offered rates of the coarse capacity ladder, climbed until one is not
/// sustained.
pub const LADDER_RPS: [f64; 9] = [
    400.0, 600.0, 900.0, 1350.0, 2025.0, 3040.0, 4560.0, 6840.0, 10260.0,
];
/// Bisection steps between the last sustained and the first unsustained
/// ladder rate; four narrow the ×1.5 ladder step to about 2.5%.
pub const BISECT_STEPS: usize = 4;
/// Seconds each coarse ladder rate is offered.
pub const RUNG_S: f64 = 1.0;
/// Seconds each bisection rate is offered: near the knee a p99 needs more
/// requests to settle.
pub const BISECT_S: f64 = 1.5;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Output check on accuracy: the served model's held-out error stays below
/// this. Over seeds 101–120 and 201–220 it measured 2.18–3.15%.
pub const ERROR_LIMIT_PCT: f64 = 4.0;

/// Per-layer timings of one set-up.
#[derive(Debug, Default)]
struct SetupTimes {
    mc_s: f64,
    build_s: f64,
    save_s: f64,
    load_s: f64,
    bytes: f64,
}

struct Served {
    server: PredictionServer,
    predictor: Arc<BatchPredictor>,
    clients: Vec<PredictClient>,
    pool: Vec<Vec<f64>>,
    /// Reply rows a direct `BatchPredictor` call gives for each pool sample:
    /// the K means, and the K means followed by the K variances.
    expect_mean: Vec<Vec<f64>>,
    expect_var: Vec<Vec<f64>>,
    error_pct: f64,
    sims: usize,
    times: SetupTimes,
    /// The served model is the full-rung fit, meets the accuracy limit and
    /// survived the artifact round trip bit for bit.
    ok: bool,
}

fn artifact_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("served.cbmfmod")
}

fn rows(m: &Matrix) -> Vec<Vec<f64>> {
    (0..m.rows()).map(|i| m.row(i).to_vec()).collect()
}

/// Direct single-sample predictor calls on every pool sample.
fn direct_replies(p: &BatchPredictor, pool: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut mean = Vec::new();
    let mut var = Vec::new();
    for x in pool {
        let xs = Matrix::from_rows(&[x.as_slice()]).expect("one row");
        mean.extend(rows(&p.predict_batch(&xs).expect("predict")));
        let (m, v) = p.predict_batch_with_uncertainty(&xs).expect("predict var");
        var.push([m.row(0), v.row(0)].concat());
    }
    (mean, var)
}

/// Collects and fits the served model, round-trips it through the binary
/// artifact, starts the server and connects the clients.
fn setup(seed: u64) -> Served {
    let mut times = SetupTimes::default();
    let tb = FirstStates {
        tb: Lna::new(),
        states: STATES,
    };
    let metric = metric_index(&tb, METRIC);
    let mut rng = seeded_rng(seed);
    let t = Instant::now();
    let train_ds = MonteCarlo::new(TRAIN_PER_STATE)
        .collect(&tb, &mut rng)
        .expect("LNA Monte Carlo");
    let test_ds = MonteCarlo::new(TEST_PER_STATE)
        .collect(&tb, &mut rng)
        .expect("LNA Monte Carlo");
    times.mc_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let train = problem(&train_ds, metric);
    let test: TunableProblem = problem(&test_ds, metric);
    times.build_s = t.elapsed().as_secs_f64();

    let fit = cbmf::CbmfFit::new(config())
        .fit(&train, &mut rng)
        .expect("served model fit");
    let mut ok = fit.strategy() == FitStrategy::Full;
    let prior = fit.prior().expect("a full fit keeps its prior");
    let predictive = PosteriorPredictive::new(&train, prior).expect("posterior factors");
    let artifact = ModelArtifact::from_fit(&fit).with_predictive(&predictive);
    let error_pct = 100.0 * fit.model().modeling_error(&test).expect("same shape");
    ok &= error_pct < ERROR_LIMIT_PCT;

    let path = artifact_path();
    std::fs::create_dir_all(path.parent().expect("has a parent")).expect("create out dir");
    let t = Instant::now();
    artifact.save_binary(&path).expect("save artifact");
    times.save_s = t.elapsed().as_secs_f64();
    times.bytes = std::fs::metadata(&path).expect("artifact written").len() as f64;
    let t = Instant::now();
    let loaded = ModelArtifact::load_binary(&path).expect("load artifact");
    times.load_s = t.elapsed().as_secs_f64();
    std::fs::remove_file(&path).expect("remove artifact");

    let predictor = Arc::new(BatchPredictor::from_artifact(&loaded).expect("servable artifact"));
    let before_save = BatchPredictor::from_artifact(&artifact).expect("servable artifact");
    let d = predictor.model().num_variables();
    let pool: Vec<Vec<f64>> = (0..POOL)
        .map(|_| {
            (0..d)
                .map(|_| cbmf_stats::normal::sample(&mut rng))
                .collect()
        })
        .collect();
    let (expect_mean, expect_var) = direct_replies(&predictor, &pool);
    ok &= direct_replies(&before_save, &pool) == (expect_mean.clone(), expect_var.clone());

    let server = PredictionServer::bind(
        "127.0.0.1:0",
        Arc::clone(&predictor),
        ServerConfig::default(),
    )
    .expect("bind loopback server");
    let clients = (0..CONNECTIONS)
        .map(|_| PredictClient::connect(server.local_addr()).expect("connect"))
        .collect();
    Served {
        server,
        predictor,
        clients,
        pool,
        expect_mean,
        expect_var,
        error_pct,
        sims: train_ds.total_samples(),
        times,
        ok,
    }
}

/// One scheduled request: when it is due (from the phase start), which kind,
/// and which pool sample.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    due: Duration,
    var: bool,
    sample: usize,
}

/// A Poisson arrival schedule at `rps` for `secs`, derived from `seed`.
fn schedule(seed: u64, rps: f64, secs: f64) -> Vec<Arrival> {
    let mut rng = seeded_rng(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rps;
        if t >= secs {
            return out;
        }
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            var: rng.gen_bool(VAR_SHARE),
            sample: rng.gen_index(POOL),
        });
    }
}

/// What one phase of offered load measured.
#[derive(Debug, Default)]
struct Phase {
    /// Reply time minus due time, per completed request, in ms.
    latency_ms: Vec<f64>,
    /// Send time minus due time, per request, in ms: connection by
    /// connection, each in schedule order.
    late_ms: Vec<f64>,
    attempted: u64,
    /// Typed errors and replies that differ from the direct call.
    failed: u64,
    /// Seconds from the phase start until every connection finished.
    elapsed_s: f64,
}

/// Plays `arrivals` over the clients, request `j` on connection
/// `j % CONNECTIONS`; each connection waits for its reply before sending
/// its next due request. Latency runs from the due time, so whatever sends
/// a request late — a slow reply holding the connection, or the sending
/// thread waking late while the server's threads hold both cores — counts
/// in it.
fn play(s: &mut Served, arrivals: &[Arrival]) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let (pool, expect_mean, expect_var) = (&s.pool, &s.expect_mean, &s.expect_var);
    let per_conn: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut ph = Phase::default();
                    for a in arrivals.iter().skip(c).step_by(CONNECTIONS) {
                        let due = start + a.due;
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let x = &pool[a.sample];
                        let reply = if a.var {
                            client
                                .predict_with_uncertainty(x)
                                .map(|(m, v)| ([m, v].concat(), &expect_var[a.sample]))
                        } else {
                            client.predict(x).map(|m| (m, &expect_mean[a.sample]))
                        };
                        let done = Instant::now();
                        ph.attempted += 1;
                        ph.late_ms.push(1e3 * (sent - due).as_secs_f64());
                        match reply {
                            Ok((got, want)) if bits(&got) == bits(want) => {
                                ph.latency_ms.push(1e3 * (done - due).as_secs_f64())
                            }
                            Ok(_) => {
                                eprintln!("reply differs from the direct predictor call");
                                ph.failed += 1;
                            }
                            Err(e) => {
                                eprintln!("request failed: {e}");
                                ph.failed += 1;
                            }
                        }
                    }
                    ph
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    let mut all = Phase {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for ph in per_conn {
        all.latency_ms.extend(ph.latency_ms);
        all.late_ms.extend(ph.late_ms);
        all.attempted += ph.attempted;
        all.failed += ph.failed;
    }
    all
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Whether a ladder rate is sustained: every request succeeded, p99 stays
/// under the limit, and the generator is not falling behind at the end of
/// the rung (no growing backlog).
fn sustained(ph: &Phase) -> bool {
    if ph.failed > 0 || ph.latency_ms.is_empty() {
        return false;
    }
    let tail = &ph.late_ms[ph.late_ms.len() * 3 / 4..];
    quantile(&ph.latency_ms, 0.99) <= LIMIT_MS && tail.iter().all(|&l| l <= LIMIT_MS)
}

fn phase_seed(seed: u64, phase: u64) -> u64 {
    seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ (0x5e7e_0000 + phase)
}

/// The untimed load before a nominal phase, on a schedule of its own.
fn warm_up_schedule(seed: u64) -> Vec<Arrival> {
    schedule(phase_seed(seed, u64::MAX), NOMINAL_RPS, WARMUP_S)
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::new();
    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up's server stops before the next one starts.
        drop(served.take());
        let (d, cost) = measure(|| setup(args.seed));
        setup_s.push(cost.cpu_s);
        served = Some(d);
    }
    let mut s = served.expect("at least one set-up");
    out.check(
        s.ok,
        "served model is not an accurate full fit or changed in the artifact round trip",
    );

    let warm_up = play(&mut s, &warm_up_schedule(args.seed));
    let arrivals = schedule(
        phase_seed(args.seed, 0),
        NOMINAL_RPS,
        args.seconds.as_secs_f64(),
    );
    let (nominal, cost) = measure(|| play(&mut s, &arrivals));
    for ph in [&warm_up, &nominal] {
        out.attempted += ph.attempted;
        out.failed += ph.failed;
    }
    let served_n = nominal.latency_ms.len();
    out.check(served_n > 0, "no request succeeded");
    out.set("setup_s", median(&setup_s));
    out.set("cpu_ms_per_op", 1e3 * cost.cpu_s / served_n.max(1) as f64);
    out.set("sims", s.sims as f64);
    println!(
        "serve_mixed nominal_rps={NOMINAL_RPS} requests={served_n} served_rps={:.1} \
         p50_ms={:.4} p99_ms={:.3} late_p50_ms={:.3} late_p99_ms={:.3} late_max_ms={:.3} \
         error_pct={:.4}",
        served_n as f64 / nominal.elapsed_s,
        median(&nominal.latency_ms),
        quantile(&nominal.latency_ms, 0.99),
        median(&nominal.late_ms),
        quantile(&nominal.late_ms, 0.99),
        nominal.late_ms.iter().copied().fold(0.0, f64::max),
        s.error_pct,
    );
    out
}

/// The highest offered rate that is sustained: the coarse ladder climbed
/// until a rate is not, then bisected between the last sustained rate and
/// that one.
fn max_rps(s: &mut Served, seed: u64, out: &mut Outcome) -> f64 {
    let mut probe = 1;
    let mut sustains = |rps: f64, secs: f64, s: &mut Served| {
        probe += 1;
        let ph = play(s, &schedule(phase_seed(seed, probe), rps, secs));
        out.attempted += ph.attempted;
        out.failed += ph.failed;
        let ok = sustained(&ph);
        println!(
            "serve_mixed probe rps={rps:.0} p99_ms={:.3} sustained={ok}",
            quantile(&ph.latency_ms, 0.99)
        );
        ok
    };
    let (mut lo, mut hi) = (0.0, f64::INFINITY);
    for &rps in &LADDER_RPS {
        if !sustains(rps, RUNG_S, s) {
            hi = rps;
            break;
        }
        lo = rps;
    }
    if hi.is_finite() && lo > 0.0 {
        for _ in 0..BISECT_STEPS {
            let mid = (lo * hi).sqrt();
            if sustains(mid, BISECT_S, s) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    lo
}

/// Average tile size of a queue's dispatches between two snapshots.
fn fill_avg(before: &BatchQueueStats, after: &BatchQueueStats) -> (f64, f64) {
    let mut tiles = 0.0;
    let mut samples = 0.0;
    for (i, (&a, &b)) in after.fill.iter().zip(&before.fill).enumerate() {
        let n = (a - b) as f64;
        tiles += n;
        samples += n * (i + 1) as f64;
    }
    (if tiles > 0.0 { samples / tiles } else { 0.0 }, tiles)
}

/// Median wall time of `reps` calls of `f`, in µs.
fn micro(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            1e6 * t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// The traced run: the nominal phase once untraced and once traced, then
/// direct probes of the predictor and the request decoder.
fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    layers::zero_all(&mut out);
    cbmf_trace::reset();
    let mut s = setup(args.seed);
    let setup_snap = cbmf_trace::snapshot();
    out.check(
        s.ok,
        "served model is not an accurate full fit or changed in the artifact round trip",
    );
    out.set("circuits.mc_s", s.times.mc_s);
    out.set(
        "circuits.sims",
        layers::counter(&setup_snap, "circuits.montecarlo.simulations"),
    );
    out.set("dataset.build_s", s.times.build_s);
    out.set("artifact.save_s", s.times.save_s);
    out.set("artifact.load_s", s.times.load_s);
    out.set("artifact.bytes", s.times.bytes);
    out.set("model.error_pct", s.error_pct);

    // Half the run untraced, half traced, on the same schedule.
    let secs = args.seconds.as_secs_f64() / 2.0;
    let arrivals = schedule(phase_seed(args.seed, 0), NOMINAL_RPS, secs);
    cbmf_trace::set_enabled(false);
    let warm_up = play(&mut s, &warm_up_schedule(args.seed));
    let untraced = play(&mut s, &arrivals);
    cbmf_trace::set_enabled(true);

    cbmf_trace::reset();
    let mean_before = s.server.mean_queue_stats();
    let var_before = s.server.var_queue_stats().unwrap_or_default();
    let before = Usage::now();
    let traced = play(&mut s, &arrivals);
    let used = before.delta(&Usage::now());
    let snap = cbmf_trace::snapshot();
    let mean_after = s.server.mean_queue_stats();
    let var_after = s.server.var_queue_stats().unwrap_or_default();
    for ph in [&warm_up, &untraced, &traced] {
        out.attempted += ph.attempted;
        out.failed += ph.failed;
    }
    out.check(
        !untraced.latency_ms.is_empty() && !traced.latency_ms.is_empty(),
        "no request succeeded",
    );

    layers::fill_counters(&mut out, &snap);
    layers::fill_os(&mut out, &used);
    let client_p50 = median(&traced.latency_ms);
    layers::fill_overhead(
        &mut out,
        1e-3 * client_p50,
        1e-3 * median(&untraced.latency_ms),
    );
    let hist = snap.histograms.get("server.request_ns");
    let q = |q: f64| 1e-3 * hist.and_then(|h| h.quantile(q)).unwrap_or(0.0);
    let (dispatch_p50, dispatch_p99) = (q(0.5), q(0.99));
    let transport_p50 = 1e3 * client_p50 - dispatch_p50;
    out.set("server.dispatch_p50_us", dispatch_p50);
    out.set("server.dispatch_p99_us", dispatch_p99);
    out.set("server.transport_p50_us", transport_p50);
    out.set("breakdown.covered_frac", dispatch_p50 / (1e3 * client_p50));
    out.set("loadgen.p99_ms", quantile(&untraced.latency_ms, 0.99));
    out.set(
        "loadgen.late_max_ms",
        traced.late_ms.iter().copied().fold(0.0, f64::max),
    );
    row("request p50 (traced)", 1e-3 * client_p50, 1e-3 * client_p50);
    row("dispatch p50", 1e-6 * dispatch_p50, 1e-3 * client_p50);
    row(
        "transport p50 (rest)",
        1e-6 * transport_p50,
        1e-3 * client_p50,
    );

    let (mean_fill, mean_tiles) = fill_avg(&mean_before, &mean_after);
    let (var_fill, var_tiles) = fill_avg(&var_before, &var_after);
    out.set("batching.mean_fill_avg", mean_fill);
    out.set("batching.var_fill_avg", var_fill);
    out.set("batching.tiles", mean_tiles + var_tiles);
    out.set(
        "batching.rejected",
        ((mean_after.rejected - mean_before.rejected) + (var_after.rejected - var_before.rejected))
            as f64,
    );

    // The ladder and the direct probes run untraced, as users run them.
    cbmf_trace::set_enabled(false);
    let max = max_rps(&mut s, args.seed, &mut out);
    out.set("loadgen.max_rps", max);
    let one = Matrix::from_rows(&[s.pool[0].as_slice()]).expect("one row");
    let p = &s.predictor;
    out.set(
        "predictor.mean_us",
        micro(2000, || {
            std::hint::black_box(
                p.predict_batch(std::hint::black_box(&one))
                    .expect("predict"),
            );
        }),
    );
    out.set(
        "predictor.var_us",
        micro(500, || {
            std::hint::black_box(
                p.predict_batch_with_uncertainty(std::hint::black_box(&one))
                    .expect("predict var"),
            );
        }),
    );
    let frame = encode_request(&Request {
        kind: RequestKind::Predict,
        model_id: 0,
        sample: s.pool[0].clone(),
    });
    out.set(
        "protocol.decode_us",
        micro(2000, || {
            let req = read_request(&mut Cursor::new(std::hint::black_box(&frame[..])));
            std::hint::black_box(req.expect("decode"));
        }),
    );
    out
}
