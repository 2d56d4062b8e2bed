//! Per-layer numbers read back from the in-program trace: the counters the
//! library already records and the spans it opens at the entry of its
//! public layer functions (`SompInitializer::initialize` opens `init`,
//! `EmRefiner::refine` opens `em`, `MapPosterior::solve_moments` and
//! `solve_coefficients` open `posterior_moments` and `posterior_coeffs`),
//! nested under the spans this benchmark opens around its own calls.

use cbmf_trace::Snapshot;

use crate::metrics::{Outcome, PER_LAYER};
use crate::os::Usage;

/// Summed seconds of every span whose path ends with `suffix` (a span name
/// or a `/`-joined tail of one).
pub fn span_s(snap: &Snapshot, suffix: &str) -> f64 {
    snap.spans
        .iter()
        .filter(|(path, _)| *path == suffix || path.ends_with(&format!("/{suffix}")))
        .map(|(_, s)| s.total_ns as f64 * 1e-9)
        .sum()
}

/// A counter's value, 0 when it never fired.
pub fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

/// Every per-layer metric starts at 0: a layer the workload leaves idle
/// reports no work.
pub fn zero_all(out: &mut Outcome) {
    for (name, _) in PER_LAYER {
        out.set(name, 0.0);
    }
}

/// Fills the counter-backed metrics of the fit, stream, linear-algebra and
/// parallel layers from a snapshot of the measured phase.
pub fn fill_counters(out: &mut Outcome, snap: &Snapshot) {
    let c = |name: &str| counter(snap, name);
    out.set("init.selection_runs", c("cbmf.init.selection_runs"));
    out.set("init.greedy_steps", c("cbmf.greedy.steps"));
    out.set("init.append_block_steps", c("cbmf.init.append_block_steps"));
    out.set("init.refactor_steps", c("cbmf.init.refactor_steps"));
    let (hits, misses) = (c("cbmf.gram_cache.hits"), c("cbmf.gram_cache.misses"));
    out.set(
        "init.gram_cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.set("em.iterations", c("cbmf.em.iterations"));
    out.set("stream.chunks", c("stream.chunks"));
    out.set("stream.resweeps", c("stream.resweeps"));
    out.set("stream.warm_start_hits", c("stream.warm_start_hits"));
    out.set("linalg.product_macs", c("linalg.product_macs"));
    out.set(
        "linalg.product_bytes_computed",
        8.0 * c("linalg.product_f64s"),
    );
    out.set(
        "linalg.cholesky_factorizations",
        c("linalg.cholesky.factorizations"),
    );
    out.set(
        "linalg.cholesky_rhs_solves",
        c("linalg.cholesky.rhs_solves"),
    );
    out.set("linalg.pack_bytes", c("linalg.pack_bytes"));
    out.set("linalg.workspace_reuses", c("linalg.workspace_reuses"));
    out.set("parallel.fork_joins", c("parallel.fork_joins"));
    out.set("parallel.chunks_spawned", c("parallel.chunks_spawned"));
    out.set("parallel.inline_runs", c("parallel.inline_runs"));
}

/// Fit-layer times summed over every fit in the snapshot (cold and warm).
pub fn fill_fit_spans(out: &mut Outcome, snap: &Snapshot) {
    let em = span_s(snap, "em");
    let coeffs = span_s(snap, "posterior_coeffs");
    out.set("init_s", span_s(snap, "init") + span_s(snap, "init_warm"));
    out.set("em_s", em);
    out.set(
        "em.s_per_iter",
        (em - coeffs) / counter(snap, "cbmf.em.iterations").max(1.0),
    );
    out.set("posterior.moments_s", span_s(snap, "posterior_moments"));
    out.set("posterior.coeffs_s", coeffs);
}

/// Fills the `os.*` metrics from the usage accrued over the measured phase.
pub fn fill_os(out: &mut Outcome, used: &Usage) {
    out.set("os.peak_rss_mb", crate::os::peak_rss_mb());
    out.set("os.minor_faults", used.minor_faults);
    out.set("os.sys_frac", used.sys_frac());
    out.set("os.vol_ctx_switches", used.vol_ctx_switches);
    out.set("os.invol_ctx_switches", used.invol_ctx_switches);
}

/// Fills the tracing-overhead rows: the same work timed traced and
/// untraced in one process.
pub fn fill_overhead(out: &mut Outcome, traced_s: f64, untraced_s: f64) {
    out.set("trace.traced_s", traced_s);
    out.set("trace.untraced_s", untraced_s);
    out.set("trace.overhead_s", traced_s - untraced_s);
}

/// Any non-recovery outcome is a failed output check: every `recovery.*`
/// counter must read 0 on the benchmark's inputs.
pub fn recoveries(snap: &Snapshot) -> f64 {
    snap.counters
        .iter()
        .filter(|(name, _)| name.starts_with("recovery."))
        .map(|(_, &v)| v as f64)
        .sum()
}

/// Prints one breakdown row to standard output (never the last line).
pub fn row(label: &str, seconds: f64, total: f64) {
    let share = if total > 0.0 {
        100.0 * seconds / total
    } else {
        0.0
    };
    println!("breakdown {label:<24} {seconds:>12.6} s {share:>6.1} %");
}
