//! Zero-allocation contract of the blocked kernels: after one warm-up call
//! has populated the global workspace pool (and grown its packing buffers
//! to the configured panel sizes), steady-state blocked GEMM and SYRK calls
//! through the `_into` entry points perform **no heap allocation at all** —
//! the property that keeps the init sweep, EM iterations, and batched
//! prediction hot loops allocation-free.
//!
//! Proven with the counting global allocator shared with the trace and
//! serve allocation tests (`tests/support/counting_alloc.rs`, which counts
//! the measuring thread and the pool chunks it hands out), not asserted by
//! inspection.

use std::sync::{Mutex, MutexGuard};

use cbmf_linalg::block::{with_config, BlockConfig};
use cbmf_linalg::Matrix;
use cbmf_parallel::workspace::{self, WORKSPACE_SLOTS};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_during;

/// The blocked kernels draw packing buffers from the process-global
/// workspace pool. Two of these tests running at once would need more pooled
/// workspaces than either warmed up, and a fresh one allocates; they take
/// turns instead.
fn workspace_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn blocked_gemm_and_syrk_allocate_nothing_in_steady_state() {
    let _l = workspace_lock();
    let cfg = BlockConfig {
        min_macs: 0, // force the blocked path regardless of size
        ..BlockConfig::default()
    };
    let a = Matrix::from_fn(96, 96, |i, j| ((i * 7 + j * 13) % 23) as f64 * 0.1 - 1.0);
    let b = Matrix::from_fn(96, 96, |i, j| ((i * 5 + j * 11) % 19) as f64 * 0.1 - 0.9);
    let w: Vec<f64> = (0..96).map(|j| 0.1 + (j % 5) as f64 * 0.2).collect();
    let mut prod = Matrix::zeros(96, 96);
    let mut gram = Matrix::zeros(96, 96);

    cbmf_parallel::with_threads(1, || {
        with_config(cfg, || {
            // Warm-up: first calls may grow the pooled packing buffers to
            // the configured MC·KC / KC·NC panel sizes.
            a.matmul_into(&b, &mut prod).expect("shapes");
            a.matmul_t_into(&b, &mut prod).expect("shapes");
            a.gram_into(&mut gram).expect("shapes");
            a.weighted_gram_into(&w, &mut gram).expect("weights");

            let count = allocations_during(|| {
                a.matmul_into(&b, &mut prod).expect("shapes");
                a.matmul_t_into(&b, &mut prod).expect("shapes");
                a.gram_into(&mut gram).expect("shapes");
                a.weighted_gram_into(&w, &mut gram).expect("weights");
            });
            assert_eq!(
                count, 0,
                "steady-state blocked GEMM/SYRK must not touch the heap"
            );
        });
    });
    std::hint::black_box((&prod, &gram));
}

/// The streaming (sub-threshold) kernels share the contract on their
/// `_into` variants: small products in the EM inner loop reuse caller
/// buffers with no per-call allocation either.
#[test]
fn streaming_into_kernels_allocate_nothing() {
    let a = Matrix::from_fn(24, 16, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);
    let b = Matrix::from_fn(16, 20, |i, j| ((i + j * 5) % 11) as f64 - 5.0);
    let mut prod = Matrix::zeros(24, 20);
    let mut gram = Matrix::zeros(24, 24);
    cbmf_parallel::with_threads(1, || {
        a.matmul_into(&b, &mut prod).expect("shapes");
        a.gram_into(&mut gram).expect("shapes");
        let count = allocations_during(|| {
            a.matmul_into(&b, &mut prod).expect("shapes");
            a.gram_into(&mut gram).expect("shapes");
        });
        assert_eq!(count, 0, "streaming _into kernels must not allocate");
    });
}

/// The same contract at two threads, where `par_row_blocks_mut` hands
/// macro-panels to a pool worker: neither the dispatch nor the chunks
/// allocate, on the calling thread or on the worker.
#[test]
fn two_thread_blocked_gemm_allocates_nothing_in_steady_state() {
    let _l = workspace_lock();
    // Small panels so the 96-row output splits into two chunks of whole
    // 16-row macro-panels.
    let cfg = BlockConfig {
        mc: 16,
        kc: 64,
        nc: 64,
        min_macs: 0,
        ..BlockConfig::default()
    };
    let a = Matrix::from_fn(96, 96, |i, j| ((i * 7 + j * 13) % 23) as f64 * 0.1 - 1.0);
    let b = Matrix::from_fn(96, 96, |i, j| ((i * 5 + j * 11) % 19) as f64 * 0.1 - 0.9);
    let mut prod = Matrix::zeros(96, 96);
    let mut gram = Matrix::zeros(96, 96);

    // A two-thread call holds three workspaces at once (the B panel on the
    // caller, an A panel in each chunk), and which pooled workspace serves
    // which role varies between calls. Grow every slot of four workspaces
    // past the largest panel so every role finds its buffer full-size.
    let mut held: Vec<_> = (0..4).map(|_| workspace::acquire()).collect();
    for ws in &mut held {
        for slot in 0..WORKSPACE_SLOTS {
            ws.slot(slot, 96 * 96);
        }
    }
    drop(held);

    cbmf_parallel::with_threads(2, || {
        with_config(cfg, || {
            // Warm-up: starts the pool's workers.
            for _ in 0..3 {
                a.matmul_into(&b, &mut prod).expect("shapes");
                a.gram_into(&mut gram).expect("shapes");
            }
            let count = allocations_during(|| {
                for _ in 0..20 {
                    a.matmul_into(&b, &mut prod).expect("shapes");
                    a.gram_into(&mut gram).expect("shapes");
                }
            });
            assert_eq!(
                count, 0,
                "steady-state two-thread blocked GEMM/SYRK must not touch the heap"
            );
        });
    });
    let serial = cbmf_parallel::with_threads(1, || with_config(cfg, || a.matmul(&b).unwrap()));
    assert_eq!(prod, serial, "two-thread product must match the serial one");
    std::hint::black_box(&gram);
}
