use cbmf_linalg::{Matrix, Qr};
use cbmf_stats::KFold;
use cbmf_trace::Counter;
use rand::Rng;

use crate::dataset::{StateData, TunableProblem};
use crate::error::CbmfError;
use crate::model::PerStateModel;
use crate::ols::dictionary_dim;

/// Greedy selection steps scored across every OMP/S-OMP/initializer loop
/// (one `selection_scores` sweep over the dictionary per step).
static GREEDY_STEPS: Counter = Counter::new("cbmf.greedy.steps");

/// Configuration for the per-state OMP baseline.
#[derive(Debug, Clone)]
pub struct OmpConfig {
    /// Candidate numbers of selected basis functions, cross-validated.
    pub theta_candidates: Vec<usize>,
    /// Cross-validation folds.
    pub cv_folds: usize,
}

impl Default for OmpConfig {
    fn default() -> Self {
        OmpConfig {
            theta_candidates: vec![4, 8, 16, 32],
            cv_folds: 4,
        }
    }
}

/// Orthogonal matching pursuit fitted independently per state — the
/// classical sparse-regression baseline \[16\] that ignores *all*
/// cross-state correlation.
///
/// Each state greedily selects its own basis functions (largest normalized
/// correlation with the residual) and solves least squares on its own
/// support. The shared sparsity level θ is chosen by cross-validation.
///
/// # Examples
///
/// ```
/// use cbmf::{BasisSpec, Omp, OmpConfig, TunableProblem};
/// use cbmf_linalg::Matrix;
///
/// # fn main() -> Result<(), cbmf::CbmfError> {
/// let mut rng = cbmf_stats::seeded_rng(4);
/// let x = Matrix::from_fn(40, 10, |_, _| cbmf_stats::normal::sample(&mut rng));
/// let y: Vec<f64> = (0..40).map(|i| 3.0 * x[(i, 2)]).collect();
/// let problem = TunableProblem::from_samples(&[x], &[y], BasisSpec::Linear)?;
/// let cfg = OmpConfig { theta_candidates: vec![1, 2], cv_folds: 4 };
/// let model = Omp::new(cfg).fit(&problem, &mut rng)?;
/// assert!(model.support().contains(&2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Omp {
    config: OmpConfig,
}

impl Omp {
    /// Creates the fitter with the given configuration.
    pub fn new(config: OmpConfig) -> Self {
        Omp { config }
    }

    /// Fits the model, cross-validating the sparsity level.
    ///
    /// # Errors
    ///
    /// * [`CbmfError::InvalidInput`] if no sparsity candidates are given.
    /// * [`CbmfError::TooFewSamples`] if a state cannot support the folds.
    pub fn fit<R: Rng + ?Sized>(
        &self,
        problem: &TunableProblem,
        rng: &mut R,
    ) -> Result<PerStateModel, CbmfError> {
        let _span = cbmf_trace::span("omp_fit");
        if self.config.theta_candidates.is_empty() {
            return Err(CbmfError::InvalidInput {
                what: "no sparsity candidates".to_string(),
            });
        }
        let theta = if self.config.theta_candidates.len() == 1 {
            self.config.theta_candidates[0]
        } else {
            self.cross_validate(problem, rng)?
        };
        fit_with_theta(problem, theta)
    }

    fn cross_validate<R: Rng + ?Sized>(
        &self,
        problem: &TunableProblem,
        rng: &mut R,
    ) -> Result<usize, CbmfError> {
        let folds = build_folds(problem, self.config.cv_folds, rng)?;
        let splits = materialize_splits(problem, &folds, self.config.cv_folds)?;
        let thetas = &self.config.theta_candidates;
        // One fit per (θ, fold) pair, all independent: fan them out and
        // reduce sequentially in candidate order so error sums (and the
        // winning θ on ties) never depend on the thread count.
        let cf = self.config.cv_folds;
        let errs = cbmf_parallel::par_map_indexed(thetas.len() * cf, 1, |idx| {
            let (train, test) = &splits[idx % cf];
            let model = fit_with_theta(train, thetas[idx / cf])?;
            model.modeling_error(test)
        });
        let mut errs = errs.into_iter();
        let mut best = (f64::INFINITY, thetas[0]);
        for &theta in thetas {
            let mut err_sum = 0.0;
            for _ in 0..cf {
                err_sum += errs.next().expect("one result per (theta, fold)")?;
            }
            let err = err_sum / cf as f64;
            if err < best.0 {
                best = (err, theta);
            }
        }
        Ok(best.1)
    }
}

/// Materializes every fold's (train, test) split once, so all sparsity and
/// hyper-parameter candidates reuse the same sub-problems — and with them
/// the per-state caches of [`StateData`].
pub(crate) fn materialize_splits(
    problem: &TunableProblem,
    folds: &[KFold],
    cv_folds: usize,
) -> Result<Vec<(TunableProblem, TunableProblem)>, CbmfError> {
    (0..cv_folds)
        .map(|c| split_problem(problem, folds, c))
        .collect()
}

/// Builds one K-fold partition per state.
pub(crate) fn build_folds<R: Rng + ?Sized>(
    problem: &TunableProblem,
    cv_folds: usize,
    rng: &mut R,
) -> Result<Vec<KFold>, CbmfError> {
    problem
        .states()
        .iter()
        .map(|st| {
            if st.len() < cv_folds {
                return Err(CbmfError::TooFewSamples {
                    have: st.len(),
                    need: cv_folds,
                    r#for: "cross-validation",
                });
            }
            Ok(KFold::new(st.len(), cv_folds, rng)?)
        })
        .collect()
}

/// Splits the problem into (train, test) along fold `c`.
pub(crate) fn split_problem(
    problem: &TunableProblem,
    folds: &[KFold],
    c: usize,
) -> Result<(TunableProblem, TunableProblem), CbmfError> {
    let mut train_keep = Vec::with_capacity(folds.len());
    let mut test_keep = Vec::with_capacity(folds.len());
    for f in folds {
        let (train, test) = f.split(c);
        train_keep.push(train);
        test_keep.push(test);
    }
    Ok((problem.subset(&train_keep)?, problem.subset(&test_keep)?))
}

/// Greedy selection scores over the dictionary: `Σ_k |b_mᵀ r_k| / ‖b_m‖_k`
/// with `r_k = y_k − B_{k,S}·c_k` (eq. 33; one state reproduces plain OMP).
///
/// The residual correlation is expanded through the cached per-state
/// products, `b_mᵀ r_k = (B_kᵀy_k)[m] − Σ_j (B_kᵀB_k)[m, s_j]·c_{k,j}`, so
/// one greedy step costs `O(M·|S|·K)` instead of `O(N·M·K)` and no residual
/// vector is ever formed. Only the Gram columns of the selected bases
/// `s_j` are read ([`StateData::gram_col`]); the full `M × M` Gram is never
/// built. The dictionary loop is chunk-parallel; each score is computed
/// independently and stitched back in index order, so the result is
/// bitwise identical at any thread count.
pub(crate) fn selection_scores(
    num_basis: usize,
    states: &[&StateData],
    support: &[usize],
    coeff_rows: &[&[f64]],
) -> Vec<f64> {
    assert_eq!(
        states.len(),
        coeff_rows.len(),
        "one coefficient row per state"
    );
    GREEDY_STEPS.inc();
    // Aim for ~128k flops per spawned chunk; each index costs about
    // K·(|S| + 2) fused multiply-adds.
    let per_index = states.len() * (support.len() + 2);
    let grain = (128 * 1024 / per_index.max(1)).max(1);
    // Per state: (B_kᵀy_k, column norms, Gram columns of the support).
    let products: Vec<_> = states
        .iter()
        .map(|st| {
            let cols: Vec<&[f64]> = support.iter().map(|&sj| st.gram_col(sj)).collect();
            (st.bty(), st.col_norms(), cols)
        })
        .collect();
    cbmf_parallel::par_map_indexed(num_basis, grain, |mi| {
        let mut score = 0.0;
        for ((bty, norms, cols), crow) in products.iter().zip(coeff_rows) {
            let mut corr = bty[mi];
            for (col, c) in cols.iter().zip(*crow) {
                corr -= col[mi] * c;
            }
            score += (corr / norms[mi]).abs();
        }
        score
    })
}

/// Index of the best-scoring basis not yet selected; `None` when every
/// remaining score is zero (residual orthogonal to the dictionary).
pub(crate) fn best_unselected(scores: &[f64], support: &[usize]) -> Option<usize> {
    let mut best = (0.0_f64, usize::MAX);
    for (j, &s) in scores.iter().enumerate() {
        if support.contains(&j) {
            continue;
        }
        if s > best.0 {
            best = (s, j);
        }
    }
    (best.1 != usize::MAX && best.0 > 0.0).then_some(best.1)
}

/// Least-squares coefficients of `y` on the selected columns of `basis`.
pub(crate) fn ls_on_support(
    basis: &Matrix,
    y: &[f64],
    support: &[usize],
) -> Result<Vec<f64>, CbmfError> {
    let sub = basis.select_cols(support);
    Ok(Qr::new(&sub)?.solve_least_squares(y)?)
}

fn fit_with_theta(problem: &TunableProblem, theta: usize) -> Result<PerStateModel, CbmfError> {
    let k = problem.num_states();
    let m = problem.num_basis();
    // Per state: greedy select its own support, LS-solve, record.
    let mut per_state_support: Vec<Vec<usize>> = Vec::with_capacity(k);
    let mut per_state_coef: Vec<Vec<f64>> = Vec::with_capacity(k);
    for st in problem.states() {
        let cap = theta.min(st.len().saturating_sub(1)).max(1).min(m);
        let mut support: Vec<usize> = Vec::with_capacity(cap);
        let mut coefs = Vec::new();
        for _ in 0..cap {
            // Correlation of each column with the residual, from the cached
            // Gram products (residual update of eq. 34 folded in).
            let scores = selection_scores(m, &[st], &support, &[&coefs]);
            let Some(best) = best_unselected(&scores, &support) else {
                break; // residual orthogonal to every remaining column
            };
            support.push(best);
            coefs = ls_on_support(&st.basis, &st.y, &support)?;
        }
        per_state_support.push(support);
        per_state_coef.push(coefs);
    }
    // Merge supports into a shared ascending union with zero-padded rows.
    let mut union: Vec<usize> = per_state_support.iter().flatten().copied().collect();
    union.sort_unstable();
    union.dedup();
    let mut coeffs = Matrix::zeros(k, union.len());
    let mut intercepts = Vec::with_capacity(k);
    for (ki, (supp, coef)) in per_state_support.iter().zip(&per_state_coef).enumerate() {
        for (s, c) in supp.iter().zip(coef) {
            let pos = union.binary_search(s).expect("member of union");
            coeffs[(ki, pos)] = *c;
        }
        intercepts.push(problem.intercept_for(ki, supp, coef));
    }
    PerStateModel::new(
        problem.basis_spec(),
        dictionary_dim(problem),
        union,
        coeffs,
        intercepts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BasisSpec;
    use cbmf_stats::{normal, seeded_rng};

    fn sparse_problem(k: usize, n: usize, d: usize, seed: u64) -> (TunableProblem, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let true_support = vec![1, 4, 7];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for state in 0..k {
            let x = Matrix::from_fn(n, d, |_, _| normal::sample(&mut rng));
            let w = 1.0 + 0.05 * state as f64;
            let y: Vec<f64> = (0..n)
                .map(|i| {
                    w * (2.0 * x[(i, 1)] - 1.5 * x[(i, 4)] + 0.8 * x[(i, 7)])
                        + 0.01 * normal::sample(&mut rng)
                })
                .collect();
            xs.push(x);
            ys.push(y);
        }
        (
            TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).unwrap(),
            true_support,
        )
    }

    #[test]
    fn recovers_true_support_with_fixed_theta() {
        let (problem, truth) = sparse_problem(2, 30, 20, 21);
        let mut rng = seeded_rng(1);
        let cfg = OmpConfig {
            theta_candidates: vec![3],
            cv_folds: 4,
        };
        let model = Omp::new(cfg).fit(&problem, &mut rng).unwrap();
        for t in &truth {
            assert!(model.support().contains(t), "missing true basis {t}");
        }
        assert!(model.modeling_error(&problem).unwrap() < 0.05);
    }

    #[test]
    fn cross_validation_picks_a_sane_theta() {
        let (problem, truth) = sparse_problem(2, 40, 15, 22);
        let mut rng = seeded_rng(2);
        let model = Omp::new(OmpConfig {
            theta_candidates: vec![1, 3, 8],
            cv_folds: 4,
        })
        .fit(&problem, &mut rng)
        .unwrap();
        // θ=1 underfits badly; CV must do at least as well as the truth size.
        for t in &truth {
            assert!(model.support().contains(t));
        }
    }

    #[test]
    fn theta_is_capped_by_sample_count() {
        let (problem, _) = sparse_problem(1, 6, 12, 23);
        let mut rng = seeded_rng(3);
        let model = Omp::new(OmpConfig {
            theta_candidates: vec![50],
            cv_folds: 3,
        })
        .fit(&problem, &mut rng)
        .unwrap();
        assert!(model.support().len() <= 5);
    }

    #[test]
    fn empty_candidates_rejected() {
        let (problem, _) = sparse_problem(1, 10, 10, 24);
        let mut rng = seeded_rng(4);
        let r = Omp::new(OmpConfig {
            theta_candidates: vec![],
            cv_folds: 3,
        })
        .fit(&problem, &mut rng);
        assert!(matches!(r, Err(CbmfError::InvalidInput { .. })));
    }

    #[test]
    fn too_few_samples_for_folds_rejected() {
        let (problem, _) = sparse_problem(1, 3, 10, 25);
        let mut rng = seeded_rng(5);
        let r = Omp::new(OmpConfig {
            theta_candidates: vec![1, 2],
            cv_folds: 4,
        })
        .fit(&problem, &mut rng);
        assert!(matches!(r, Err(CbmfError::TooFewSamples { .. })));
    }

    #[test]
    fn states_may_select_different_supports() {
        // State 0 depends on x0 only, state 1 on x3 only.
        let mut rng = seeded_rng(26);
        let x0 = Matrix::from_fn(25, 6, |_, _| normal::sample(&mut rng));
        let y0: Vec<f64> = (0..25).map(|i| 2.0 * x0[(i, 0)]).collect();
        let x1 = Matrix::from_fn(25, 6, |_, _| normal::sample(&mut rng));
        let y1: Vec<f64> = (0..25).map(|i| -x1[(i, 3)]).collect();
        let problem =
            TunableProblem::from_samples(&[x0, x1], &[y0, y1], BasisSpec::Linear).unwrap();
        let model = Omp::new(OmpConfig {
            theta_candidates: vec![1],
            cv_folds: 4,
        })
        .fit(&problem, &mut seeded_rng(6))
        .unwrap();
        // Union support holds both; each state's coefficient vanishes on the
        // other state's basis.
        assert_eq!(model.support(), &[0, 3]);
        assert_eq!(model.coefficients()[(0, 1)], 0.0);
        assert_eq!(model.coefficients()[(1, 0)], 0.0);
    }
}
