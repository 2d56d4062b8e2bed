//! Contracts of the cache-blocked packed kernels (`cbmf_linalg::block`):
//! agreement with the naive streaming kernels on arbitrary shapes, exact
//! bitwise symmetry of the blocked SYRK, bitwise determinism across thread
//! counts, and the packing/workspace trace counters.
//!
//! Every test forces routing explicitly through [`with_config`] — tiny
//! blocks (`mc = 8, kc = 3, nc = 16`) make even single-digit shapes cross
//! several panel boundaries and exercise ragged edge tiles, while
//! `min_macs = usize::MAX` recovers the exact historic loops as the
//! reference. Tolerance comparisons (not bitwise) are used between blocked
//! and naive results: the blocked accumulation order is intentionally
//! different.

use cbmf_linalg::block::{with_config, BlockConfig};
use cbmf_linalg::{Cholesky, Matrix};
use proptest::prelude::*;

/// Tiny panels: every shape above a few elements straddles block
/// boundaries in all three loop dimensions.
fn tiny() -> BlockConfig {
    BlockConfig {
        mc: 8,
        kc: 3,
        nc: 16,
        min_macs: 0,
        min_solve_dim: 2,
        simd: true,
    }
}

/// The historic streaming kernels, used as the reference oracle.
fn naive() -> BlockConfig {
    BlockConfig {
        min_macs: usize::MAX,
        min_solve_dim: usize::MAX,
        ..BlockConfig::default()
    }
}

/// Relative-scale agreement between two matrices.
fn assert_close(got: &Matrix, want: &Matrix, what: &str) {
    let scale = want.max_abs().max(1.0);
    let diff = (got - want).max_abs();
    assert!(
        diff <= 1e-11 * scale,
        "{what}: blocked vs naive differ by {diff} (scale {scale})"
    );
}

fn assert_bitwise(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.rows(), want.rows());
    assert_eq!(got.cols(), want.cols());
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            assert_eq!(
                got[(i, j)].to_bits(),
                want[(i, j)].to_bits(),
                "{what}: bit mismatch at ({i}, {j})"
            );
        }
    }
}

/// Strategy: an m×k and k×n pair with ragged dimensions, including the
/// degenerate single-row/single-column shapes.
fn product_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..=33, 1usize..=33, 1usize..=33).prop_flat_map(|(m, k, n)| {
        (
            proptest::collection::vec(-2.0f64..2.0, m * k)
                .prop_map(move |d| Matrix::from_vec(m, k, d).expect("len")),
            proptest::collection::vec(-2.0f64..2.0, k * n)
                .prop_map(move |d| Matrix::from_vec(k, n, d).expect("len")),
        )
    })
}

proptest! {
    /// Blocked GEMM agrees with the streaming kernels on every product
    /// orientation, with both the SIMD and the scalar microkernel.
    #[test]
    fn blocked_products_match_naive((a, b) in product_pair()) {
        let want_ab = with_config(naive(), || a.matmul(&b).expect("shapes"));
        let want_abt = with_config(naive(), || {
            let bt = b.transpose();
            a.matmul_t(&bt).expect("shapes")
        });
        let want_atb = with_config(naive(), || {
            let at = a.transpose();
            at.t_matmul(&b).expect("shapes")
        });
        for simd in [true, false] {
            let cfg = BlockConfig { simd, ..tiny() };
            let got = with_config(cfg, || a.matmul(&b).expect("shapes"));
            assert_close(&got, &want_ab, "matmul");
            let bt = b.transpose();
            let got = with_config(cfg, || a.matmul_t(&bt).expect("shapes"));
            assert_close(&got, &want_abt, "matmul_t");
            let at = a.transpose();
            let got = with_config(cfg, || at.t_matmul(&b).expect("shapes"));
            assert_close(&got, &want_atb, "t_matmul");
        }
    }

    /// Blocked SYRK (gram / weighted_gram) agrees with the streaming path
    /// and its output is exactly (bitwise) symmetric.
    #[test]
    fn blocked_gram_matches_naive_and_is_symmetric(
        n in 1usize..=25,
        c in 1usize..=25,
        seed in 0u64..500,
    ) {
        let a = Matrix::from_fn(n, c, |i, j| {
            ((i * 17 + j * 13 + seed as usize * 7) % 23) as f64 / 11.5 - 1.0
        });
        let w: Vec<f64> = (0..c)
            .map(|j| 0.1 + ((j * 3 + seed as usize) % 9) as f64 / 4.0)
            .collect();
        let want = with_config(naive(), || a.gram());
        let want_w = with_config(naive(), || a.weighted_gram(&w).expect("weights"));
        for simd in [true, false] {
            let cfg = BlockConfig { simd, ..tiny() };
            let got = with_config(cfg, || a.gram());
            assert_close(&got, &want, "gram");
            assert_bitwise(&got.transpose(), &got, "gram symmetry");
            let got = with_config(cfg, || a.weighted_gram(&w).expect("weights"));
            assert_close(&got, &want_w, "weighted_gram");
            assert_bitwise(&got.transpose(), &got, "weighted_gram symmetry");
        }
    }

    /// Panel-blocked multi-RHS solves agree with the historic per-row
    /// sweeps.
    #[test]
    fn blocked_solve_mat_matches_naive(
        n in 2usize..=24,
        rhs in 1usize..=6,
        seed in 0u64..500,
    ) {
        let m = Matrix::from_fn(n, n, |i, j| {
            ((i * 13 + j * 7 + seed as usize) % 17) as f64 / 8.0 - 1.0
        });
        let mut spd = m.matmul_t(&m).expect("square");
        spd.add_diag_mut(n as f64);
        let b = Matrix::from_fn(n, rhs, |i, j| {
            ((i * 5 + j * 11 + seed as usize) % 13) as f64 - 6.0
        });
        let chol = Cholesky::new(&spd).expect("spd");
        let want = with_config(naive(), || chol.solve_mat(&b).expect("shapes"));
        let got = with_config(tiny(), || chol.solve_mat(&b).expect("shapes"));
        assert_close(&got, &want, "solve_mat");
        let want = with_config(naive(), || chol.forward_solve_mat(&b).expect("shapes"));
        let got = with_config(tiny(), || chol.forward_solve_mat(&b).expect("shapes"));
        assert_close(&got, &want, "forward_solve_mat");
    }
}

/// Asserts every column from `gram_col_into` equals the matching column of
/// `gram()` bit for bit, both computed under the caller's config and
/// thread count.
fn assert_gram_cols_bitwise(a: &Matrix, what: &str) {
    let full = a.gram();
    let mut col = vec![f64::NAN; a.rows()];
    for j in 0..a.rows() {
        a.gram_col_into(j, &mut col).expect("column in range");
        for (i, v) in col.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                full[(i, j)].to_bits(),
                "{what}: gram column {j} differs at row {i}"
            );
        }
    }
}

proptest! {
    /// A single Gram column is bitwise equal to the full product's column on
    /// both sides of the blocking threshold, with both microkernels; tiny
    /// panels put several depth slabs into every shape with more than three
    /// columns.
    #[test]
    fn gram_columns_match_full_gram_bitwise(
        n in 1usize..=25,
        c in 1usize..=25,
        seed in 0u64..500,
    ) {
        let a = Matrix::from_fn(n, c, |i, j| {
            ((i * 31 + j * 17 + seed as usize * 5) as f64 * 0.37).sin()
        });
        assert_gram_cols_bitwise(&a, "streaming");
        with_config(naive(), || assert_gram_cols_bitwise(&a, "naive"));
        for simd in [true, false] {
            let cfg = BlockConfig { simd, ..tiny() };
            with_config(cfg, || assert_gram_cols_bitwise(&a, &format!("tiny simd={simd}")));
        }
    }
}

/// The same contract at the default block sizes, at 1, 2 and 4 threads,
/// under the detected ISA and the scalar microkernel: shapes just below and
/// just above the default `min_macs` (n(n+1)/2·cols against 4 Mi), with one
/// and with two depth slabs (`kc` = 256).
#[test]
fn gram_columns_match_full_gram_at_default_blocks_and_any_thread_count() {
    let min_macs = BlockConfig::default().min_macs;
    let shapes = [(150, 300), (170, 300), (300, 100), (8, 600), (40, 33)];
    for (n, c) in shapes {
        let a = Matrix::from_fn(n, c, |i, j| ((i * 13 + j * 7) as f64 * 0.61).cos());
        let blocked = n * (n + 1) / 2 * c >= min_macs;
        for simd in [true, false] {
            let cfg = BlockConfig {
                simd,
                ..BlockConfig::default()
            };
            for threads in [1usize, 2, 4] {
                cbmf_parallel::with_threads(threads, || {
                    with_config(cfg, || {
                        assert_gram_cols_bitwise(
                            &a,
                            &format!("{n}x{c} blocked={blocked} simd={simd} threads={threads}"),
                        );
                    });
                });
            }
        }
    }
}

#[test]
fn gram_col_into_rejects_bad_arguments() {
    let a = Matrix::from_fn(5, 3, |i, j| (i + j) as f64);
    let mut out = vec![0.0; 5];
    assert!(a.gram_col_into(5, &mut out).is_err());
    assert!(a.gram_col_into(0, &mut out[..4]).is_err());
    a.gram_col_into(4, &mut out).expect("valid column");
}

/// Shapes that straddle the *default* block sizes (mc = 96, kc = 256):
/// one extra row/column/depth beyond each panel boundary.
#[test]
fn default_blocks_handle_boundary_straddling_shapes() {
    let cfg = BlockConfig {
        min_macs: 0,
        ..BlockConfig::default()
    };
    for (m, k, n) in [(97, 257, 17), (96, 256, 8), (95, 255, 9), (1, 300, 5)] {
        let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.25 - 1.0);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 13) % 9) as f64 * 0.25 - 1.0);
        let want = with_config(naive(), || a.matmul(&b).expect("shapes"));
        let got = with_config(cfg, || a.matmul(&b).expect("shapes"));
        assert_close(&got, &want, &format!("matmul {m}x{k}x{n}"));
    }
}

/// The determinism keystone: every blocked entry point returns bitwise
/// identical results at any thread count. The accumulation order of each
/// output element depends only on the column-chunk/depth-slab schedule,
/// never on how `par_rows_mut` partitions rows across workers.
#[test]
fn blocked_kernels_bitwise_identical_across_thread_counts() {
    let cfg = BlockConfig {
        min_macs: 0,
        min_solve_dim: 2,
        ..BlockConfig::default()
    };
    let a = Matrix::from_fn(150, 70, |i, j| ((i * 13 + j * 7) % 23) as f64 * 0.1 - 1.0);
    let b = Matrix::from_fn(70, 90, |i, j| ((i * 5 + j * 11) % 19) as f64 * 0.1 - 0.9);
    let bt = b.transpose();
    let w: Vec<f64> = (0..70).map(|j| 0.1 + (j % 7) as f64 * 0.3).collect();
    let m = Matrix::from_fn(150, 150, |i, j| ((i * 3 + j * 17) % 13) as f64 * 0.2 - 1.2);
    let mut spd = m.matmul_t(&m).expect("square");
    spd.add_diag_mut(150.0);
    let chol = Cholesky::new(&spd).expect("spd");
    let rhs = Matrix::from_fn(150, 96, |i, j| ((i * 7 + j) % 29) as f64 - 14.0);

    let reference = cbmf_parallel::with_threads(1, || {
        with_config(cfg, || {
            (
                a.matmul(&b).expect("shapes"),
                a.matmul_t(&bt).expect("shapes"),
                a.t_matmul(&a).expect("shapes"),
                a.gram(),
                a.weighted_gram(&w).expect("weights"),
                chol.solve_mat(&rhs).expect("shapes"),
                chol.forward_solve_mat(&rhs).expect("shapes"),
            )
        })
    });
    for threads in [2usize, 4, 8] {
        let got = cbmf_parallel::with_threads(threads, || {
            with_config(cfg, || {
                (
                    a.matmul(&b).expect("shapes"),
                    a.matmul_t(&bt).expect("shapes"),
                    a.t_matmul(&a).expect("shapes"),
                    a.gram(),
                    a.weighted_gram(&w).expect("weights"),
                    chol.solve_mat(&rhs).expect("shapes"),
                    chol.forward_solve_mat(&rhs).expect("shapes"),
                )
            })
        });
        let what = format!("threads = {threads}");
        assert_bitwise(&got.0, &reference.0, &format!("matmul, {what}"));
        assert_bitwise(&got.1, &reference.1, &format!("matmul_t, {what}"));
        assert_bitwise(&got.2, &reference.2, &format!("t_matmul, {what}"));
        assert_bitwise(&got.3, &reference.3, &format!("gram, {what}"));
        assert_bitwise(&got.4, &reference.4, &format!("weighted_gram, {what}"));
        assert_bitwise(&got.5, &reference.5, &format!("solve_mat, {what}"));
        assert_bitwise(&got.6, &reference.6, &format!("forward_solve_mat, {what}"));
    }
}

/// The blocked path reports its packing traffic and workspace reuse through
/// the trace counters (`linalg.pack_bytes`, `linalg.workspace_reuses`).
#[test]
fn blocked_kernels_report_pack_and_workspace_counters() {
    cbmf_trace::set_enabled(true);
    let a = Matrix::from_fn(40, 40, |i, j| ((i + j) % 7) as f64);
    let read = |name: &str| {
        cbmf_trace::snapshot()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    };
    let cfg = BlockConfig {
        min_macs: 0,
        ..BlockConfig::default()
    };
    let pack0 = read("linalg.pack_bytes");
    with_config(cfg, || {
        std::hint::black_box(a.matmul(&a).expect("shapes"));
    });
    let pack1 = read("linalg.pack_bytes");
    assert!(pack1 > pack0, "blocked matmul must report packed bytes");
    // A second call on the same thread reuses the pooled workspace.
    let reuse1 = read("linalg.workspace_reuses");
    with_config(cfg, || {
        std::hint::black_box(a.matmul(&a).expect("shapes"));
    });
    let reuse2 = read("linalg.workspace_reuses");
    cbmf_trace::clear_enabled_override();
    assert!(
        reuse2 > reuse1,
        "second blocked call must reuse a pooled workspace"
    );
}
