//! Contracts of the worker pool behind every fork-join: panics reach the
//! caller and leave the pool usable, nested and concurrent fork-joins finish
//! with serial-identical results, a wide chunk width adds no threads, and
//! every chunk runs with a root trace-span path.

use std::cell::Cell;
use std::collections::HashSet;
use std::panic;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use cbmf_parallel::{par_for_each_chunk, par_map_indexed, with_threads};

thread_local! {
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

fn pool_workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get()) - 1
}

/// Runs a two-chunk fork-join whose chunk 0 waits (bounded) for chunk 1 to
/// start, so chunk 1 lands on a pool worker whenever one is free. Returns
/// whether chunk 1 ran off the calling thread, and the fork-join's outcome.
fn two_chunks(chunk1: impl Fn() + Sync) -> (bool, thread::Result<()>) {
    IS_CALLER.with(|c| c.set(true));
    let started = AtomicBool::new(false);
    let on_worker = AtomicBool::new(false);
    let outcome = panic::catch_unwind(panic::AssertUnwindSafe(|| {
        with_threads(2, || {
            par_for_each_chunk(2, 1, |start, _| {
                if start == 0 {
                    let deadline = Instant::now() + Duration::from_millis(20);
                    while !started.load(Ordering::Acquire) && Instant::now() < deadline {
                        std::hint::spin_loop();
                    }
                } else {
                    started.store(true, Ordering::Release);
                    on_worker.store(!IS_CALLER.with(Cell::get), Ordering::Relaxed);
                    chunk1();
                }
            })
        })
    }));
    (on_worker.load(Ordering::Relaxed), outcome)
}

fn serial_sum(i: usize) -> f64 {
    (0..64).map(|j| ((i * 64 + j) as f64).sqrt()).sum()
}

#[test]
fn worker_panic_reaches_caller_and_pool_stays_usable() {
    let mut saw_worker_panic = pool_workers() == 0;
    for _ in 0..100 {
        let (on_worker, outcome) = two_chunks(|| panic!("chunk 1 failed"));
        let payload = outcome.expect_err("the chunk's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 1 failed"));
        // The next fork-join runs normally and returns the right values.
        let got = with_threads(2, || par_map_indexed(100, 1, |i| i * 3));
        assert_eq!(got, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        saw_worker_panic |= on_worker;
        if saw_worker_panic {
            return;
        }
    }
    panic!("no panicking chunk ran on a pool worker in 100 fork-joins");
}

#[test]
fn caller_panic_waits_for_workers_and_propagates() {
    let result = panic::catch_unwind(|| {
        with_threads(4, || {
            par_for_each_chunk(4, 1, |start, _| {
                if start == 0 {
                    panic!("first chunk failed");
                }
                thread::sleep(Duration::from_millis(2));
            })
        })
    });
    assert!(result.is_err());
    let got = with_threads(4, || par_map_indexed(40, 1, serial_sum));
    assert_eq!(got, (0..40).map(serial_sum).collect::<Vec<_>>());
}

#[test]
fn nested_fork_join_matches_serial_bitwise() {
    let serial: Vec<f64> = (0..16)
        .map(|i| (0..256).map(|j| serial_sum(i * 256 + j)).sum())
        .collect();
    for threads in [2usize, 4, 8] {
        let got = with_threads(threads, || {
            par_map_indexed(16, 1, |i| {
                // A fork-join from inside a chunk runs inline on that chunk's
                // thread; the sum is reduced sequentially in index order.
                let inner = par_map_indexed(256, 8, |j| serial_sum(i * 256 + j));
                inner.iter().sum::<f64>()
            })
        });
        let same = got
            .iter()
            .zip(&serial)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "threads = {threads}");
    }
}

#[test]
fn concurrent_callers_both_get_correct_output() {
    let expected: Vec<f64> = (0..300).map(serial_sum).collect();
    thread::scope(|s| {
        for t in 0..2 {
            let expected = &expected;
            s.spawn(move || {
                for round in 0..200 {
                    let mut rows = vec![0.0; 300 * 2];
                    with_threads(2 + t, || {
                        cbmf_parallel::par_rows_mut(&mut rows, 2, 7, |r0, chunk| {
                            for (r, row) in chunk.chunks_mut(2).enumerate() {
                                row.fill(serial_sum(r0 + r));
                            }
                        })
                    });
                    let got = with_threads(2 + t, || par_map_indexed(300, 5, serial_sum));
                    assert_eq!(&got, expected, "caller {t}, round {round}");
                    for (r, row) in rows.chunks(2).enumerate() {
                        assert!(row.iter().all(|&v| v == expected[r]), "row {r}");
                    }
                }
            });
        }
    });
}

#[test]
fn wide_width_adds_chunks_not_threads() {
    let serial = with_threads(1, || par_map_indexed(4096, 1, serial_sum));
    let runners = Mutex::new(HashSet::<ThreadId>::new());
    let caller = thread::current().id();
    for _ in 0..20 {
        let got = with_threads(8, || {
            par_map_indexed(4096, 1, |i| {
                if i % 512 == 0 {
                    // Slow chunk starts give every existing worker a chance
                    // to claim a chunk.
                    thread::sleep(Duration::from_micros(200));
                    let id = thread::current().id();
                    if id != caller {
                        runners.lock().unwrap().insert(id);
                    }
                }
                serial_sum(i)
            })
        });
        assert!(
            got.iter()
                .zip(&serial)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "8 chunks must match 1 thread bitwise"
        );
    }
    let runners = runners.into_inner().unwrap().len();
    assert!(
        runners <= pool_workers(),
        "{runners} threads besides the caller ran chunks; the pool has {}",
        pool_workers()
    );
    #[cfg(target_os = "linux")]
    {
        let started = std::fs::read_dir("/proc/self/task")
            .expect("list this process's threads")
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|name| name.starts_with("cbmf-pool"))
            .count();
        assert!(
            started <= pool_workers(),
            "{started} pool workers started; at most {} allowed",
            pool_workers()
        );
    }
}

#[test]
fn caller_run_chunks_are_root_pathed() {
    cbmf_trace::set_enabled(true);
    if !cbmf_trace::enabled() {
        return; // cbmf-trace built without its `trace` feature
    }
    IS_CALLER.with(|c| c.set(true));
    // Sibling tests keep the pool busy at times, and a fork-join issued
    // then runs inline. Only a fork-join with a chunk on a pool worker
    // proves the caller ran its own chunks as a pool participant.
    let mut dispatched_caller_paths = Vec::new();
    let _outer = cbmf_trace::span("pool_test_outer");
    for _ in 0..200 {
        let runs = Mutex::new(Vec::new());
        let started = AtomicBool::new(false);
        with_threads(2, || {
            par_for_each_chunk(2, 1, |start, _| {
                if start == 0 {
                    let deadline = Instant::now() + Duration::from_millis(20);
                    while !started.load(Ordering::Acquire) && Instant::now() < deadline {
                        std::hint::spin_loop();
                    }
                } else {
                    started.store(true, Ordering::Release);
                }
                let _chunk = cbmf_trace::span("pool_test_chunk");
                let path = cbmf_trace::current_path();
                runs.lock().unwrap().push((IS_CALLER.with(Cell::get), path));
            })
        });
        // The caller's own path is back once the fork-join returns.
        assert_eq!(cbmf_trace::current_path(), "pool_test_outer");
        let runs = runs.into_inner().unwrap();
        for (_, path) in &runs {
            assert_eq!(path, "pool_test_chunk", "every chunk is root-pathed");
        }
        if runs.iter().any(|(caller, _)| !caller) {
            dispatched_caller_paths.extend(
                runs.into_iter()
                    .filter(|(caller, _)| *caller)
                    .map(|(_, path)| path),
            );
        }
        if !dispatched_caller_paths.is_empty() || pool_workers() == 0 {
            break;
        }
    }
    assert!(
        !dispatched_caller_paths.is_empty() || pool_workers() == 0,
        "no fork-join in 200 had the caller and a worker each run a chunk"
    );
    let spans = cbmf_trace::snapshot().spans;
    assert!(spans.contains_key("pool_test_chunk"));
    assert!(!spans.contains_key("pool_test_outer/pool_test_chunk"));
}
