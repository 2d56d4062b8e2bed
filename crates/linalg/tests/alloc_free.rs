//! Zero-allocation contract of the blocked kernels: after one warm-up call
//! has populated the global workspace pool (and grown its packing buffers
//! to the configured panel sizes), steady-state blocked GEMM and SYRK calls
//! through the `_into` entry points perform **no heap allocation at all** —
//! the property that keeps the init sweep, EM iterations, and batched
//! prediction hot loops allocation-free.
//!
//! Proven with the counting global allocator shared with the trace and
//! serve allocation tests (`tests/support/counting_alloc.rs`, which counts
//! the measuring thread only), not asserted by inspection.

use cbmf_linalg::block::{with_config, BlockConfig};
use cbmf_linalg::Matrix;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_during;

#[test]
fn blocked_gemm_and_syrk_allocate_nothing_in_steady_state() {
    let cfg = BlockConfig {
        min_macs: 0, // force the blocked path regardless of size
        ..BlockConfig::default()
    };
    let a = Matrix::from_fn(96, 96, |i, j| ((i * 7 + j * 13) % 23) as f64 * 0.1 - 1.0);
    let b = Matrix::from_fn(96, 96, |i, j| ((i * 5 + j * 11) % 19) as f64 * 0.1 - 0.9);
    let w: Vec<f64> = (0..96).map(|j| 0.1 + (j % 5) as f64 * 0.2).collect();
    let mut prod = Matrix::zeros(96, 96);
    let mut gram = Matrix::zeros(96, 96);

    // Serial so the kernels run inline (a scoped thread spawn allocates by
    // design; the per-call contract is about the kernels themselves).
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
