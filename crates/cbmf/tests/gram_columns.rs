//! Contracts of the per-column Gram cache (`StateData::gram_col`).
//!
//! * On a problem grown by `append_samples`, every cached column is bitwise
//!   equal to the matching column of the rank-k-updated full Gram. That
//!   Gram is not bitwise symmetric, so reading its row instead would change
//!   the bits of every streamed fit; the test checks the asymmetry exists.
//! * A cold batch fit builds no full `M × M` Gram at all: the greedy
//!   selectors and the Algorithm-1 solver read columns only, which the
//!   `cbmf.gram_cache.full_builds` trace counter pins at zero.
//!
//! The trace registry and its enable override are process-global, so the
//! tests serialize on one lock.

use std::sync::{Mutex, MutexGuard};

use cbmf::{BasisSpec, CbmfConfig, CbmfFit, TunableProblem};
use cbmf_linalg::Matrix;
use cbmf_stats::{normal, seeded_rng};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears the trace override even when an assertion panics mid-test.
struct Cleanup;
impl Drop for Cleanup {
    fn drop(&mut self) {
        cbmf_trace::clear_enabled_override();
    }
}

/// Raw per-state samples of K correlated states sharing a sparse template.
fn samples(k: usize, n: usize, d: usize, seed: u64) -> (Vec<Matrix>, Vec<Vec<f64>>) {
    let mut rng = seeded_rng(seed);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for state in 0..k {
        let x = Matrix::from_fn(n, d, |_, _| 0.4 + normal::sample(&mut rng));
        let w = 1.0 + 0.05 * state as f64;
        let y: Vec<f64> = (0..n)
            .map(|i| {
                w * (2.0 * x[(i, 2)] - 1.3 * x[(i, 5)] + 0.7 * x[(i, 8)])
                    + 0.05 * normal::sample(&mut rng)
            })
            .collect();
        xs.push(x);
        ys.push(y);
    }
    (xs, ys)
}

fn counter(name: &str) -> u64 {
    cbmf_trace::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[test]
fn streamed_gram_columns_are_columns_of_the_updated_gram() {
    let _l = serial();
    let (xs, ys) = samples(3, 14, 12, 11);
    let mut problem = TunableProblem::from_samples(&xs, &ys, BasisSpec::LinearSquares).unwrap();
    let (cx, cy) = samples(3, 9, 12, 12);
    problem.append_samples(&cx, &cy).unwrap();
    let (cx, cy) = samples(3, 7, 12, 13);
    problem.append_samples(&cx, &cy).unwrap();

    let mut asymmetric = 0;
    for st in problem.states() {
        let g = st.t_gram();
        let m = g.rows();
        for j in 0..m {
            let col = st.gram_col(j);
            assert_eq!(col.len(), m);
            for (i, v) in col.iter().enumerate() {
                assert_eq!(v.to_bits(), g[(i, j)].to_bits(), "column {j}, row {i}");
                if g[(j, i)].to_bits() != g[(i, j)].to_bits() {
                    asymmetric += 1;
                }
            }
        }
    }
    assert!(
        asymmetric > 0,
        "the updated Gram must not be bitwise symmetric, or a row read would go unnoticed"
    );
}

#[test]
fn cold_fit_builds_no_full_gram() {
    let _l = serial();
    let _cleanup = Cleanup;
    cbmf_trace::set_enabled(true);
    cbmf_trace::reset();
    let (xs, ys) = samples(4, 18, 10, 7);
    let problem = TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).unwrap();
    let out = CbmfFit::new(CbmfConfig::small_problem())
        .fit(&problem, &mut seeded_rng(3))
        .expect("clean fit");
    assert!(!out.model().support().is_empty());
    assert_eq!(
        counter("cbmf.gram_cache.full_builds"),
        0,
        "a cold fit must read Gram columns only"
    );
    // Column fills count as misses, their reuse as hits.
    assert!(counter("cbmf.gram_cache.misses") > 0);
    assert!(counter("cbmf.gram_cache.hits") > 0);

    // The full Gram is still available on demand, and counted.
    let _ = problem.states()[0].t_gram();
    assert_eq!(counter("cbmf.gram_cache.full_builds"), 1);
}
