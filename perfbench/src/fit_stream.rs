//! `fit_stream`: `CbmfFit::fit_streaming` on the tunable mixer, pulling
//! chunks from `McStream` until the production stopping rule
//! (`StreamConfig::default()`) fires or the simulation budget is spent. The
//! same fit layers as `fit_batch`,
//! used differently: warm-started EM on growing data dominates, the CV sweep
//! runs only on cold and re-sweep chunks, and `append_samples` does work it
//! never does in a batch fit. It also measures how many simulations the
//! production rule consumes.

use std::cell::Cell;
use std::time::Instant;

use cbmf::{
    BasisSpec, CbmfError, CbmfFit, FitStrategy, StreamChunk, StreamConfig, StreamOutcome,
    TunableProblem,
};
use cbmf_circuits::{CircuitError, McStream, Mixer, MonteCarlo, TunableDataset};
use cbmf_stats::describe::median;
use cbmf_stats::seeded_rng;

use crate::inputs::{config, metric_index, problem, FirstStates};
use crate::layers::{self, row, span_s};
use crate::metrics::{whole_rounds, Outcome};
use crate::os::{measure, Usage};
use crate::Args;

/// Knob states kept of the mixer's 32. A refit's cost grows with the states
/// and the total rows N·K (the EM works in observation space), while the
/// stopping rule's held-out estimate is only as precise as a chunk has rows;
/// four states with 24-sample chunks give 96 held-out rows a chunk, a whole
/// stream takes about 3.5–5 s, so a run holds six of them, and the
/// 1303-variable dictionary keeps the blocked kernels engaged.
pub const STATES: usize = 4;
/// Samples per state of the cold chunk 0.
pub const FIRST_PER_STATE: usize = 12;
/// Samples per state of every later chunk.
pub const CHUNK_PER_STATE: usize = 24;
/// Per-state simulation budget of the source: five chunks. A stream that
/// spends it stops there, as a user's budget would stop it; the rule can
/// fire before, from chunk 3 on.
pub const BUDGET_PER_STATE: usize = FIRST_PER_STATE + 4 * CHUNK_PER_STATE;
/// Held-out samples per state scoring the stopped models (`model.error_pct`).
pub const TEST_PER_STATE: usize = 20;
/// Modeled mixer metric.
pub const METRIC: &str = "vg_db";
/// Distinct streams per run, each on its own sample stream derived from the
/// seed; a run repeats them in whole rounds.
pub const STREAMS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;
/// Output check on accuracy: every stopped model's held-out error stays
/// below this. Over 100 streams (seeds 101–120 and 201–210) it measured
/// 0.28–0.45%, median 0.36%, so the limit sits a quarter above the largest
/// value.
pub const ERROR_LIMIT_PCT: f64 = 0.57;

struct Setup {
    tb: FirstStates<Mixer>,
    metric: usize,
    test: TunableProblem,
    mc_s: f64,
    build_s: f64,
}

fn setup(seed: u64) -> Setup {
    let tb = FirstStates {
        tb: Mixer::new(),
        states: STATES,
    };
    let metric = metric_index(&tb, METRIC);
    let mut rng = seeded_rng(seed);
    let t = Instant::now();
    let test_ds = MonteCarlo::new(TEST_PER_STATE)
        .collect(&tb, &mut rng)
        .expect("mixer Monte Carlo");
    let mc_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let test = problem(&test_ds, metric);
    let build_s = t.elapsed().as_secs_f64();
    Setup {
        tb,
        metric,
        test,
        mc_s,
        build_s,
    }
}

fn stream_seed(seed: u64, stream: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (0x57ea_0000 + stream as u64)
}

fn to_chunk(ds: &TunableDataset, metric: usize) -> StreamChunk {
    (
        ds.states.iter().map(|s| s.x.clone()).collect(),
        ds.states.iter().map(|s| s.metric(metric)).collect(),
    )
}

/// Per-state size of chunk `c`, or `None` once the source's budget is
/// spent.
fn chunk_size(c: usize) -> Option<usize> {
    let n = if c == 0 {
        FIRST_PER_STATE
    } else {
        CHUNK_PER_STATE
    };
    let so_far = if c == 0 {
        0
    } else {
        FIRST_PER_STATE + (c - 1) * CHUNK_PER_STATE
    };
    (so_far + n <= BUDGET_PER_STATE).then_some(n)
}

fn sim_error(e: CircuitError) -> CbmfError {
    CbmfError::InvalidInput {
        what: format!("simulation failed: {e}"),
    }
}

/// What a traced run reads off one stream besides its outcome.
#[derive(Default)]
struct Watch {
    /// Seconds from each chunk's arrival (the source's return) to its
    /// report — the `StreamSession::absorb` call: prequential score, append
    /// and refit — summed over cold chunks and over warm ones.
    cold_s: f64,
    warm_s: f64,
    /// The chunks the stream consumed, kept when this starts as `Some`.
    chunks: Option<Vec<StreamChunk>>,
}

/// One streaming fit from the first chunk to the stop, as a user runs it.
/// Each chunk's collection sits in a `bench_mc` span (a no-op untraced).
fn stream(s: &Setup, seed: u64, i: usize, watch: &mut Watch) -> Result<StreamOutcome, CbmfError> {
    let mut rng = seeded_rng(stream_seed(seed, i));
    let mut mc = McStream::new(&s.tb, &mut rng);
    let arrived = Cell::new(Instant::now());
    CbmfFit::new(config()).fit_streaming(
        BasisSpec::Linear,
        &StreamConfig::default(),
        |c| {
            let Some(n) = chunk_size(c) else {
                return Ok(None);
            };
            let ds = {
                let _span = cbmf_trace::span("bench_mc");
                mc.next_chunk(n).map_err(sim_error)?
            };
            let chunk = to_chunk(&ds, s.metric);
            if let Some(kept) = &mut watch.chunks {
                kept.push(chunk.clone());
            }
            arrived.set(Instant::now());
            Ok(Some(chunk))
        },
        |report, _| {
            let secs = arrived.get().elapsed().as_secs_f64();
            if report.warm_start {
                watch.warm_s += secs;
            } else {
                watch.cold_s += secs;
            }
        },
        &mut rng,
    )
}

/// What a stream's outcome is checked and scored by.
#[derive(Debug, PartialEq)]
struct Stop {
    sims: usize,
    error_bits: u64,
    /// The production rule stopped the stream, not the spent budget.
    by_rule: bool,
}

/// Scores a stream, counting it as failed when it errors or its final fit
/// took a fallback rung.
fn score(
    out: &mut Outcome,
    result: Result<StreamOutcome, CbmfError>,
    test: &TunableProblem,
) -> Option<Stop> {
    out.attempted += 1;
    match result {
        Ok(r) if r.outcome.strategy() == FitStrategy::Full => {
            let e = 100.0 * r.outcome.model().modeling_error(test).expect("same shape");
            out.check(
                e < ERROR_LIMIT_PCT,
                &format!("held-out error {e:.3}% is not below {ERROR_LIMIT_PCT}%"),
            );
            Some(Stop {
                sims: r.total_samples,
                error_bits: e.to_bits(),
                by_rule: r.converged,
            })
        }
        Ok(r) => {
            eprintln!("stream ended on fallback rung {:?}", r.outcome.strategy());
            out.failed += 1;
            None
        }
        Err(e) => {
            eprintln!("stream failed: {e}");
            out.failed += 1;
            None
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::new();
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPS {
        let (d, cost) = measure(|| setup(args.seed));
        setup_s.push(cost.cpu_s);
        s.get_or_insert(d);
    }
    let s = s.expect("at least one set-up");

    // One untimed stream first, as `fit_batch` does with a fit.
    let warm_up = stream(&s, args.seed, 0, &mut Watch::default());
    score(&mut out, warm_up, &s.test);

    let mut costs = Vec::new();
    let mut stops: Vec<Option<Stop>> = Vec::new();
    let loop_s = whole_rounds(STREAMS, args.seconds, |i| {
        let (result, cost) = measure(|| stream(&s, args.seed, i % STREAMS, &mut Watch::default()));
        costs.push(cost);
        let stop = score(&mut out, result, &s.test);
        if i < STREAMS {
            stops.push(stop);
        } else if let (Some(first), Some(again)) = (&stops[i % STREAMS], &stop) {
            out.check(first == again, "a repeated stream stopped differently");
        }
    });
    let ok: Vec<&Stop> = stops.iter().flatten().collect();
    out.check(ok.len() == STREAMS, "a stream failed");
    let mean_sims = ok.iter().map(|s| s.sims as f64).sum::<f64>() / ok.len() as f64;
    let wall: Vec<f64> = costs.iter().map(|c| c.wall_s).collect();
    let cpu: Vec<f64> = costs.iter().map(|c| c.cpu_s).collect();
    out.set("setup_s", median(&setup_s));
    out.set("cpu_ms_per_op", 1e3 * median(&cpu));
    out.set("sims", mean_sims);
    println!(
        "fit_stream streams={} wall_p50_s={:.4} streams_per_s={:.4} stream_wall_s={wall:.3?} \
         stream_cpu_s={cpu:.3?} sims={:?} error_pct={:.4?} by_rule={:?}",
        wall.len(),
        median(&wall),
        wall.len() as f64 / loop_s,
        ok.iter().map(|s| s.sims).collect::<Vec<_>>(),
        ok.iter()
            .map(|s| f64::from_bits(s.error_bits))
            .collect::<Vec<_>>(),
        ok.iter().map(|s| s.by_rule).collect::<Vec<_>>()
    );
    out
}

/// The traced run: the first stream untraced as the overhead baseline, then
/// every distinct stream once, traced.
fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    layers::zero_all(&mut out);
    cbmf_trace::reset();
    let s = setup(args.seed);
    let setup_sims = layers::counter(&cbmf_trace::snapshot(), "circuits.montecarlo.simulations");

    cbmf_trace::set_enabled(false);
    let t = Instant::now();
    let baseline = stream(&s, args.seed, 0, &mut Watch::default());
    let untraced_s = t.elapsed().as_secs_f64();
    cbmf_trace::set_enabled(true);
    let baseline = score(&mut out, baseline, &s.test);

    cbmf_trace::reset();
    let before = Usage::now();
    let (mut total, mut cold_s, mut warm_s) = (0.0, 0.0, 0.0);
    let mut consumed = Vec::new();
    let mut first_traced_s = 0.0;
    let mut rule_stops = 0.0;
    let mut errors = Vec::new();
    for i in 0..STREAMS {
        let mut watch = Watch {
            chunks: Some(Vec::new()),
            ..Watch::default()
        };
        let t = Instant::now();
        let result = stream(&s, args.seed, i, &mut watch);
        let secs = t.elapsed().as_secs_f64();
        total += secs;
        if i == 0 {
            first_traced_s = secs;
        }
        let stop = score(&mut out, result, &s.test);
        rule_stops += f64::from(u8::from(stop.as_ref().is_some_and(|s| s.by_rule)));
        errors.extend(stop.as_ref().map(|s| f64::from_bits(s.error_bits)));
        if i == 0 {
            out.check(
                stop.is_some() && stop == baseline,
                "the traced stream stopped differently from the untraced one",
            );
        }
        cold_s += watch.cold_s;
        warm_s += watch.warm_s;
        consumed.extend(watch.chunks);
    }
    let used = before.delta(&Usage::now());
    let snap = cbmf_trace::snapshot();

    // `StreamSession::absorb` opens the library's `stream_chunk` span.
    let mc = span_s(&snap, "bench_mc");
    let absorb = span_s(&snap, "stream_chunk");
    layers::fill_counters(&mut out, &snap);
    layers::fill_os(&mut out, &used);
    layers::fill_overhead(&mut out, first_traced_s, untraced_s);
    out.set("circuits.mc_s", s.mc_s + mc);
    out.set(
        "circuits.sims",
        setup_sims + layers::counter(&snap, "circuits.montecarlo.simulations"),
    );
    layers::fill_fit_spans(&mut out, &snap);
    out.set("stream.rule_stops", rule_stops);
    out.set(
        "model.error_pct",
        errors.iter().sum::<f64>() / errors.len().max(1) as f64,
    );
    out.set("stream.absorb_cold_s", cold_s);
    out.set("stream.absorb_warm_s", warm_s);
    let unattributed = total - mc - absorb;
    out.set("stream.unattributed_s", unattributed);
    let covered = (mc + absorb) / total;
    out.set("breakdown.covered_frac", covered);
    row("streams (traced)", total, total);
    row("monte carlo chunks", mc, total);
    row("absorb cold", cold_s, total);
    row("absorb warm", warm_s, total);
    row("unattributed", unattributed, total);
    out.check(
        (1.0 - covered).abs() <= 0.10,
        "chunk collection and refits differ from the stream time by more than 10%",
    );
    out.check(layers::recoveries(&snap) == 0.0, "a recovery counter fired");
    // Dataset layer, timed from outside on the chunks the streams consumed:
    // building a problem from each chunk 0 and appending every later chunk.
    // In a stream the refit has filled the Gram caches before each append,
    // so they are filled here too, outside the clock.
    let (mut build_s, mut append_s) = (s.build_s, 0.0);
    for chunks in &consumed {
        let Some(((x0, y0), rest)) = chunks.split_first() else {
            continue;
        };
        let t = Instant::now();
        let mut p = TunableProblem::from_samples(x0, y0, BasisSpec::Linear).expect("valid chunk");
        build_s += t.elapsed().as_secs_f64();
        for st in p.states() {
            st.t_gram();
            st.bty();
        }
        let t = Instant::now();
        for (xs, ys) in rest {
            p.append_samples(xs, ys).expect("valid chunk");
        }
        append_s += t.elapsed().as_secs_f64();
    }
    out.set("dataset.build_s", build_s);
    out.set("dataset.append_s", append_s);
    out
}
