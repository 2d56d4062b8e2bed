//! Allocation contract of the batched prediction hot loop: after one
//! warm-up batch has seeded the pooled basis workspace, a steady-state
//! `predict_batch` call allocates **only the output matrix** — the per-row
//! basis evaluation and state loop never touch the heap. Proven with the
//! per-thread counting global allocator shared with the blocked-kernel test
//! in `cbmf-linalg` (`tests/support/counting_alloc.rs`).

use cbmf::{BasisSpec, PerStateModel};
use cbmf_linalg::Matrix;
use cbmf_serve::BatchPredictor;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_during;

fn test_model() -> PerStateModel {
    let d = 12;
    let support: Vec<usize> = (0..d).step_by(2).collect();
    let coeffs = Matrix::from_fn(4, support.len(), |k, j| {
        ((k * 7 + j * 3) as f64 * 0.23).sin()
    });
    let intercepts: Vec<f64> = (0..4).map(|k| k as f64 * 0.5 - 1.0).collect();
    PerStateModel::new(BasisSpec::LinearSquares, d, support, coeffs, intercepts)
        .expect("valid model")
}

/// Warm up, then count a steady-state batch; assert only the output matrix
/// allocates and the bits match the warm run.
fn assert_steady_state(predictor: &BatchPredictor, xs: &Matrix, label: &str) {
    // Serial so the row loop runs inline (the contract is about the per-row
    // work itself; the two-thread dispatch is pinned in cbmf-linalg's
    // alloc_free test).
    cbmf_parallel::with_threads(1, || {
        // Warm-up: seeds the pooled workspace's scratch buffer.
        let warm = predictor.predict_batch(xs).expect("shapes");
        std::hint::black_box(&warm);

        let mut out = None;
        let count = allocations_during(|| {
            out = Some(predictor.predict_batch(xs).expect("shapes"));
        });
        assert!(
            count <= 1,
            "{label}: steady-state predict_batch must allocate only the \
             output matrix, saw {count} allocations"
        );
        // Same bits as the warmed run: the pooled (dirty) scratch buffer
        // changes nothing.
        let out = out.expect("ran");
        for (p, q) in warm.as_slice().iter().zip(out.as_slice()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    });
}

#[test]
fn steady_state_batch_prediction_allocates_only_the_output() {
    let model = test_model();
    let d = model.num_variables();
    let predictor = BatchPredictor::new(model).with_fused(false);
    let xs = Matrix::from_fn(200, d, |i, j| ((i * 9 + j) as f64 * 0.17).cos());
    assert_steady_state(&predictor, &xs, "materialized");
}

#[test]
fn steady_state_fused_batch_prediction_allocates_only_the_output() {
    let model = test_model();
    let d = model.num_variables();
    let predictor = BatchPredictor::new(model).with_fused(true);
    let xs = Matrix::from_fn(200, d, |i, j| ((i * 9 + j) as f64 * 0.17).cos());
    assert_steady_state(&predictor, &xs, "fused");
}
