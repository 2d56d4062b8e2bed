//! Concurrency and overhead contracts of the trace core.
//!
//! These tests exercise the crate the way the fitting stack uses it: global
//! counters incremented from inside real `cbmf-parallel` fork-joins, spans
//! nested across threads, and — the property the whole design leans on —
//! **zero allocation** on the disabled fast path, proven with a counting
//! global allocator rather than asserted by inspection.
//!
//! The registry and the enable override are process-global, so every test
//! takes one shared lock; cargo runs this integration binary's tests in
//! worker threads of a single process.

use std::sync::Mutex;

use cbmf_trace::{
    clear_enabled_override, reset, set_enabled, snapshot, span, Counter, Gauge, Json, ReportMeta,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_during;

fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counter increments from every worker of a `cbmf-parallel` fork-join land
/// in the same global cell — the aggregation the instrumented kernels rely
/// on — and the total is exact, not approximate.
#[test]
#[cfg_attr(not(feature = "trace"), ignore = "requires the trace feature")]
fn counters_aggregate_exactly_across_fork_joins() {
    let _l = test_lock();
    set_enabled(true);
    reset();
    static FORK: Counter = Counter::new("test.fork.adds");
    const N: usize = 10_000;
    // Tiny grain forces many chunks; with_threads(8) forces a real
    // fork-join (8 chunks over the calling thread and the pool).
    let out = cbmf_parallel::with_threads(8, || {
        cbmf_parallel::par_map_indexed(N, 16, |i| {
            FORK.add(2);
            i as u64
        })
    });
    assert_eq!(out.len(), N);
    assert_eq!(FORK.get(), 2 * N as u64);
    // A second fork-join keeps accumulating into the same cell.
    cbmf_parallel::with_threads(4, || {
        cbmf_parallel::par_for_each_chunk(N, 32, |start, end| {
            FORK.add((end - start) as u64);
        })
    });
    assert_eq!(FORK.get(), 3 * N as u64);
    assert_eq!(snapshot().counters["test.fork.adds"], 3 * N as u64);
    clear_enabled_override();
}

/// Gauge `maximize` under concurrent writers keeps the global maximum:
/// the CAS loop must not lose the largest value to a race.
#[test]
#[cfg_attr(not(feature = "trace"), ignore = "requires the trace feature")]
fn gauge_maximize_is_race_free() {
    let _l = test_lock();
    set_enabled(true);
    reset();
    static PEAK: Gauge = Gauge::new("test.fork.peak");
    const N: usize = 4_000;
    cbmf_parallel::with_threads(8, || {
        cbmf_parallel::par_for_each_chunk(N, 16, |start, end| {
            for i in start..end {
                PEAK.maximize(i as f64);
            }
        })
    });
    assert_eq!(PEAK.get(), Some((N - 1) as f64));
    clear_enabled_override();
}

/// Span paths are per-thread and every fork-join chunk runs with a root
/// path, so a span opened inside a chunk does not inherit the orchestrating
/// thread's open path, and all activations still aggregate by path.
#[test]
#[cfg_attr(not(feature = "trace"), ignore = "requires the trace feature")]
fn spans_nest_per_thread_under_fork_join() {
    let _l = test_lock();
    set_enabled(true);
    reset();
    {
        let _outer = span("orchestrate");
        cbmf_parallel::with_threads(8, || {
            cbmf_parallel::par_for_each_chunk(64, 8, |_start, _end| {
                let _w = span("worker_chunk");
            })
        });
        {
            let _inner = span("stitch");
        }
    }
    let snap = snapshot();
    assert_eq!(snap.spans["orchestrate"].count, 1);
    assert_eq!(snap.spans["orchestrate/stitch"].count, 1);
    // Worker spans rooted at their own thread, not under "orchestrate/".
    let worker = &snap.spans["worker_chunk"];
    assert!(worker.count >= 1);
    assert!(worker.min_ns <= worker.max_ns);
    assert!(!snap.spans.contains_key("orchestrate/worker_chunk"));
    clear_enabled_override();
}

/// The disabled fast path allocates nothing: counters, gauges and spans all
/// return after one relaxed atomic load. This is the contract that makes it
/// safe to leave instrumentation inside release kernels.
#[test]
fn disabled_path_performs_zero_allocations() {
    let _l = test_lock();
    set_enabled(false);
    static C: Counter = Counter::new("test.noalloc.counter");
    static G: Gauge = Gauge::new("test.noalloc.gauge");
    let allocs = allocations_during(|| {
        for i in 0..1_000 {
            C.add(3);
            C.inc();
            G.set(i as f64);
            G.maximize(i as f64);
            let _s = span("never_recorded");
        }
    });
    assert_eq!(allocs, 0, "disabled trace calls must not touch the heap");
    assert_eq!(C.get(), 0);
    assert_eq!(G.get(), None);
    clear_enabled_override();
}

/// A rendered run report survives a print → parse round trip bit-for-bit,
/// in both pretty and compact forms, and validates against the schema.
#[test]
#[cfg_attr(not(feature = "trace"), ignore = "requires the trace feature")]
fn report_round_trips_through_serializer() {
    let _l = test_lock();
    set_enabled(true);
    reset();
    static C: Counter = Counter::new("test.roundtrip.counter");
    C.add(41);
    {
        let _s = span("roundtrip_outer");
        let _t = span("roundtrip_inner");
    }
    let meta = ReportMeta::new("concurrency_test")
        .with("case", Json::Str("round_trip".to_string()))
        .with("samples", Json::Num(12.0));
    let doc = cbmf_trace::report::render_report(&meta, &snapshot());
    cbmf_trace::report::validate_report(&doc).expect("schema-valid report");

    let pretty = Json::parse(&doc.to_pretty()).expect("parse pretty");
    let compact = Json::parse(&doc.to_compact()).expect("parse compact");
    assert_eq!(pretty, doc);
    assert_eq!(compact, doc);

    let counters = doc.get("counters").and_then(Json::as_obj).unwrap();
    assert_eq!(
        counters
            .get("test.roundtrip.counter")
            .and_then(Json::as_u64),
        Some(41)
    );
    let spans = doc.get("spans").and_then(Json::as_obj).unwrap();
    assert!(spans.contains_key("roundtrip_outer/roundtrip_inner"));
    clear_enabled_override();
}
