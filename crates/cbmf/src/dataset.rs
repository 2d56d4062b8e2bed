use std::sync::OnceLock;

use cbmf_linalg::Matrix;
use cbmf_stats::describe;
use cbmf_trace::Counter;

use crate::basis::BasisSpec;
use crate::error::CbmfError;

/// Cache hits across the per-state product caches (`BᵀB`, its columns,
/// `Bᵀy`, column norms): calls served from an already-computed value.
static GRAM_CACHE_HITS: Counter = Counter::new("cbmf.gram_cache.hits");
/// Cache misses: calls that had to compute (and store) the product; each
/// Gram column filled by [`StateData::gram_col`] counts as one.
static GRAM_CACHE_MISSES: Counter = Counter::new("cbmf.gram_cache.misses");
/// Full `M × M` Grams built by [`StateData::t_gram`]. The greedy selectors
/// and the Algorithm-1 solver read columns only, so a cold batch fit builds
/// none; the elastic net and the streaming append build one per state.
static GRAM_CACHE_FULL_BUILDS: Counter = Counter::new("cbmf.gram_cache.full_builds");
/// Sample rows appended to live problems by
/// [`TunableProblem::append_samples`] (summed over states). Each appended
/// row updates the Gram caches by a rank-1 correction instead of an
/// `O(N·M²)` recomputation.
static STREAM_APPENDED_ROWS: Counter = Counter::new("stream.appended_rows");
/// Per-state Gram/`Bᵀy` cache extensions performed by `append_samples`:
/// each is one rank-k update that replaced a from-scratch recomputation on
/// the grown data.
static STREAM_GRAM_EXTENSIONS: Counter = Counter::new("stream.gram_extensions");

/// Per-state training data: the basis matrix `B_k` (paper eq. 3) and the
/// centered response `y_k` (eq. 5) plus the removed means.
///
/// Both the response *and every basis column* are centered at their
/// training means, so the per-state intercept absorbs all constant terms
/// exactly and the zero-mean Gaussian prior (eq. 8) applies cleanly.
/// [`TunableProblem::intercept_for`] folds the means back at
/// model-assembly time.
#[derive(Debug, Clone)]
pub struct StateData {
    /// Column-centered basis matrix, `N_k × M`.
    pub basis: Matrix,
    /// Centered response values, length `N_k`.
    pub y: Vec<f64>,
    /// Mean removed from the raw response.
    pub y_mean: f64,
    /// Mean removed from each basis column, length `M`.
    pub basis_means: Vec<f64>,
    caches: StateCaches,
}

/// Lazily computed per-state products shared by every fitting algorithm.
///
/// The greedy selectors, the cross-validation sweeps, and the incremental
/// Bayesian solver consume `B_kᵀy_k`, the column norms, and the Gram
/// columns `B_kᵀb_m` of the bases they have selected — a few dozen of the
/// `M` columns. Those columns are filled one at a time, each behind its own
/// `OnceLock`, so every (r0, σ0, θ) candidate and every thread sweeping the
/// same training split shares them and no greedy run ever forms the full
/// `M × M` Gram. The full Gram is built only when asked for (the elastic
/// net, the streaming append). Each value is computed at most once per
/// problem. Cloning a [`StateData`] clones any already-computed values,
/// which stay valid because the data fields are cloned with them.
#[derive(Debug, Clone, Default)]
struct StateCaches {
    t_gram: OnceLock<Matrix>,
    /// `B_kᵀ` (`M × N_k`), the operand of the per-column Gram products.
    basis_t: OnceLock<Matrix>,
    /// One slot per basis for column `m` of `B_kᵀB_k`.
    gram_cols: OnceLock<Box<[OnceLock<Vec<f64>>]>>,
    bty: OnceLock<Vec<f64>>,
    col_norms: OnceLock<Vec<f64>>,
}

impl StateData {
    /// Number of samples in this state.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True if the state holds no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Cached full Gram matrix `B_kᵀ B_k` (`M × M`), computed on first use.
    ///
    /// Only the elastic net and the streaming append need the whole matrix;
    /// the greedy selectors read single columns through
    /// [`StateData::gram_col`], which never builds it.
    ///
    /// The cached products assume `basis` and `y` are not mutated after
    /// construction; every constructor in this crate upholds that.
    pub fn t_gram(&self) -> &Matrix {
        if let Some(g) = self.caches.t_gram.get() {
            GRAM_CACHE_HITS.inc();
            return g;
        }
        GRAM_CACHE_MISSES.inc();
        self.caches.t_gram.get_or_init(|| {
            GRAM_CACHE_FULL_BUILDS.inc();
            self.basis_t().gram()
        })
    }

    /// Cached column `m` of `B_kᵀ B_k` (length `M`), computed on first use
    /// at `O(N_k·M)` cost.
    ///
    /// The column is bitwise equal to column `m` of [`StateData::t_gram`]:
    /// while no full Gram exists it comes from
    /// [`Matrix::gram_col_into`], which reproduces the full product's bits;
    /// once one exists (always, after [`TunableProblem::append_samples`]) it
    /// is copied from that matrix's column. The column and not the row: the
    /// rank-k-updated Gram of a streamed problem is not bitwise symmetric.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a basis index.
    pub fn gram_col(&self, m: usize) -> &[f64] {
        let cols = self
            .caches
            .gram_cols
            .get_or_init(|| (0..self.basis.cols()).map(|_| OnceLock::new()).collect());
        if let Some(c) = cols[m].get() {
            GRAM_CACHE_HITS.inc();
            return c;
        }
        GRAM_CACHE_MISSES.inc();
        cols[m].get_or_init(|| {
            if let Some(g) = self.caches.t_gram.get() {
                return g.col(m);
            }
            let bt = self.basis_t();
            let mut col = vec![0.0; bt.rows()];
            bt.gram_col_into(m, &mut col)
                .expect("basis index in range and column sized to M");
            col
        })
    }

    /// Cached transpose `B_kᵀ`.
    fn basis_t(&self) -> &Matrix {
        self.caches.basis_t.get_or_init(|| self.basis.transpose())
    }

    /// Cached correlation vector `B_kᵀ y_k` (length `M`), computed on first
    /// use.
    pub fn bty(&self) -> &[f64] {
        if let Some(v) = self.caches.bty.get() {
            GRAM_CACHE_HITS.inc();
            return v;
        }
        GRAM_CACHE_MISSES.inc();
        self.caches.bty.get_or_init(|| {
            self.basis
                .t_matvec(&self.y)
                .expect("response length equals basis rows by construction")
        })
    }

    /// Cached basis column norms `‖b_m‖` (floored away from zero), used to
    /// normalize greedy correlation scores.
    pub fn col_norms(&self) -> &[f64] {
        if let Some(v) = self.caches.col_norms.get() {
            GRAM_CACHE_HITS.inc();
            return v;
        }
        GRAM_CACHE_MISSES.inc();
        self.caches.col_norms.get_or_init(|| {
            let mut norms = vec![0.0; self.basis.cols()];
            for i in 0..self.len() {
                for (nj, bij) in norms.iter_mut().zip(self.basis.row(i)) {
                    *nj += bij * bij;
                }
            }
            for n in &mut norms {
                *n = n.sqrt().max(1e-300);
            }
            norms
        })
    }

    /// Absorbs a chunk of raw (uncentered) rows, extending the cached
    /// products by a rank-k update and re-centering the stored data at the
    /// grown means. See [`TunableProblem::append_samples`] for the identity.
    fn append_raw(&mut self, raw_new: &Matrix, y_new: &[f64]) {
        let m = self.basis.cols();
        let n0 = self.len();
        let n1 = y_new.len();
        let n = n0 + n1;

        // Old centered products — computed now if still cold, which is the
        // same work the lazy accessor would have done later.
        let mut g_raw = self.t_gram().clone();
        let mut q_raw = self.bty().to_vec();

        // Invert the centering: raw accumulators from centered products.
        let nf0 = n0 as f64;
        for i in 0..m {
            for j in 0..m {
                g_raw[(i, j)] += nf0 * self.basis_means[i] * self.basis_means[j];
            }
        }
        let mut col_sums: Vec<f64> = self.basis_means.iter().map(|bm| bm * nf0).collect();
        for (q, s) in q_raw.iter_mut().zip(&col_sums) {
            *q += self.y_mean * s;
        }
        let mut y_sum = self.y_mean * nf0;

        // Rank-n1 chunk update on the raw accumulators.
        let g_chunk = raw_new.transpose().gram();
        for (g, gc) in g_raw.as_mut_slice().iter_mut().zip(g_chunk.as_slice()) {
            *g += gc;
        }
        let q_chunk = raw_new
            .t_matvec(y_new)
            .expect("chunk rows equal response count by construction");
        for (q, qc) in q_raw.iter_mut().zip(&q_chunk) {
            *q += qc;
        }
        for (i, yv) in y_new.iter().enumerate() {
            for (s, b) in col_sums.iter_mut().zip(raw_new.row(i)) {
                *s += b;
            }
            y_sum += yv;
        }

        // Re-center at the grown means.
        let nf = n as f64;
        let y_mean = y_sum / nf;
        let means: Vec<f64> = col_sums.iter().map(|s| s / nf).collect();
        let mut g_c = g_raw;
        for i in 0..m {
            for j in 0..m {
                g_c[(i, j)] -= nf * means[i] * means[j];
            }
        }
        let mut q_c = q_raw;
        for (q, s) in q_c.iter_mut().zip(&col_sums) {
            *q -= y_mean * s;
        }
        let col_norms: Vec<f64> = (0..m)
            .map(|j| g_c[(j, j)].max(0.0).sqrt().max(1e-300))
            .collect();

        let mut basis = Matrix::zeros(n, m);
        for i in 0..n0 {
            let dst = basis.row_mut(i);
            let src = self.basis.row(i);
            for j in 0..m {
                dst[j] = src[j] + self.basis_means[j] - means[j];
            }
        }
        for i in 0..n1 {
            let dst = basis.row_mut(n0 + i);
            let src = raw_new.row(i);
            for j in 0..m {
                dst[j] = src[j] - means[j];
            }
        }
        let mut y = Vec::with_capacity(n);
        y.extend(self.y.iter().map(|v| v + self.y_mean - y_mean));
        y.extend(y_new.iter().map(|v| v - y_mean));

        self.basis = basis;
        self.y = y;
        self.y_mean = y_mean;
        self.basis_means = means;
        let caches = StateCaches::default();
        let _ = caches.t_gram.set(g_c);
        let _ = caches.bty.set(q_c);
        let _ = caches.col_norms.set(col_norms);
        self.caches = caches;
        STREAM_GRAM_EXTENSIONS.inc();
    }
}

/// A complete K-state performance-modeling problem (one metric of one
/// tunable circuit), ready for any of the fitting algorithms.
///
/// Responses are centered per state at construction; fitted models add the
/// intercept back at prediction time. The same basis dictionary is shared
/// by all states, as the paper assumes below eq. 1.
///
/// # Examples
///
/// ```
/// use cbmf::{BasisSpec, TunableProblem};
/// use cbmf_linalg::Matrix;
///
/// # fn main() -> Result<(), cbmf::CbmfError> {
/// let x0 = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]])?;
/// let y0 = vec![2.0, 3.0, 5.0];
/// let problem = TunableProblem::from_samples(&[x0], &[y0], BasisSpec::Linear)?;
/// assert_eq!(problem.num_states(), 1);
/// assert_eq!(problem.num_basis(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TunableProblem {
    states: Vec<StateData>,
    basis_spec: BasisSpec,
    num_basis: usize,
}

impl TunableProblem {
    /// Builds the problem from raw per-state samples: `xs[k]` holds the
    /// variation vectors of state `k` as rows, `ys[k]` the corresponding
    /// metric values.
    ///
    /// # Errors
    ///
    /// * [`CbmfError::InvalidInput`] if the state lists are empty or
    ///   mismatched, a state has no samples, rows/values disagree in count,
    ///   or the variable dimension differs across states.
    /// * [`CbmfError::NonFiniteData`] if any sample or response value is NaN
    ///   or infinite.
    pub fn from_samples(
        xs: &[Matrix],
        ys: &[Vec<f64>],
        basis_spec: BasisSpec,
    ) -> Result<Self, CbmfError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(CbmfError::InvalidInput {
                what: format!(
                    "need matching non-empty state lists, got {} x-blocks and {} y-blocks",
                    xs.len(),
                    ys.len()
                ),
            });
        }
        let d = xs[0].cols();
        let mut states = Vec::with_capacity(xs.len());
        for (k, (x, y)) in xs.iter().zip(ys).enumerate() {
            if x.rows() == 0 {
                return Err(CbmfError::InvalidInput {
                    what: format!("state {k} has no samples"),
                });
            }
            if x.rows() != y.len() {
                return Err(CbmfError::InvalidInput {
                    what: format!(
                        "state {k}: {} sample rows but {} responses",
                        x.rows(),
                        y.len()
                    ),
                });
            }
            if x.cols() != d {
                return Err(CbmfError::InvalidInput {
                    what: format!("state {k}: dimension {} != {d}", x.cols()),
                });
            }
            if y.iter().any(|v| !v.is_finite()) {
                return Err(CbmfError::NonFiniteData {
                    state: k,
                    what: "response values",
                });
            }
            if !x.is_finite() {
                return Err(CbmfError::NonFiniteData {
                    state: k,
                    what: "sample values",
                });
            }
            let y_mean = describe::mean(y);
            let centered: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
            let (basis, basis_means) = center_columns(basis_spec.design_matrix(x));
            states.push(StateData {
                basis,
                y: centered,
                y_mean,
                basis_means,
                caches: StateCaches::default(),
            });
        }
        Ok(TunableProblem {
            states,
            basis_spec,
            num_basis: basis_spec.num_basis(d),
        })
    }

    /// Number of states K.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of basis functions M.
    pub fn num_basis(&self) -> usize {
        self.num_basis
    }

    /// The basis dictionary shared by all states.
    pub fn basis_spec(&self) -> BasisSpec {
        self.basis_spec
    }

    /// Per-state data, indexed by state.
    pub fn states(&self) -> &[StateData] {
        &self.states
    }

    /// Total sample count `Σ_k N_k`.
    pub fn total_samples(&self) -> usize {
        self.states.iter().map(StateData::len).sum()
    }

    /// Re-validates the assembled problem at the fitting boundary: every
    /// state must be non-empty with finite responses and basis values.
    ///
    /// [`TunableProblem::from_samples`] already rejects non-finite *raw*
    /// inputs; this re-check exists because (a) a finite sample can still
    /// overflow to infinity through a polynomial basis expansion, and (b) the
    /// robustness tests flag inputs as corrupted after construction through
    /// [`cbmf_linalg::faultinject`], which surfaces here as the same typed
    /// error a genuinely broken dataset would produce.
    ///
    /// # Errors
    ///
    /// * [`CbmfError::InvalidInput`] if a state holds no samples.
    /// * [`CbmfError::NonFiniteData`] naming the first offending state and
    ///   input.
    pub fn validate(&self) -> Result<(), CbmfError> {
        let y_corrupt = cbmf_linalg::faultinject::corrupted("dataset.y");
        let basis_corrupt = cbmf_linalg::faultinject::corrupted("dataset.basis");
        for (k, st) in self.states.iter().enumerate() {
            if st.is_empty() {
                return Err(CbmfError::InvalidInput {
                    what: format!("state {k} has no samples"),
                });
            }
            if y_corrupt || !st.y_mean.is_finite() || st.y.iter().any(|v| !v.is_finite()) {
                return Err(CbmfError::NonFiniteData {
                    state: k,
                    what: "response values",
                });
            }
            if basis_corrupt
                || !st.basis.is_finite()
                || st.basis_means.iter().any(|v| !v.is_finite())
            {
                return Err(CbmfError::NonFiniteData {
                    state: k,
                    what: "basis values",
                });
            }
        }
        Ok(())
    }

    /// Builds the sub-problem containing only the listed sample indices of
    /// each state (the cross-validation split of Algorithm 1 step 4).
    ///
    /// Intercepts are *recomputed* on the subset, as a real training split
    /// would do.
    ///
    /// # Errors
    ///
    /// Returns [`CbmfError::InvalidInput`] if `keep.len()` differs from the
    /// state count, any state keeps zero samples, or an index is out of
    /// range.
    pub fn subset(&self, keep: &[Vec<usize>]) -> Result<TunableProblem, CbmfError> {
        if keep.len() != self.states.len() {
            return Err(CbmfError::InvalidInput {
                what: format!(
                    "subset needs {} index lists, got {}",
                    self.states.len(),
                    keep.len()
                ),
            });
        }
        let mut states = Vec::with_capacity(self.states.len());
        for (k, (st, idx)) in self.states.iter().zip(keep).enumerate() {
            if idx.is_empty() {
                return Err(CbmfError::InvalidInput {
                    what: format!("state {k}: subset keeps zero samples"),
                });
            }
            let mut raw_basis = Matrix::zeros(idx.len(), self.num_basis);
            let mut raw_y = Vec::with_capacity(idx.len());
            for (row, &i) in idx.iter().enumerate() {
                if i >= st.len() {
                    return Err(CbmfError::InvalidInput {
                        what: format!("state {k}: sample index {i} out of range"),
                    });
                }
                // Restore raw values, then re-center on the subset.
                for (dst, (b, bm)) in raw_basis
                    .row_mut(row)
                    .iter_mut()
                    .zip(st.basis.row(i).iter().zip(&st.basis_means))
                {
                    *dst = b + bm;
                }
                raw_y.push(st.y[i] + st.y_mean);
            }
            let y_mean = describe::mean(&raw_y);
            let y = raw_y.iter().map(|v| v - y_mean).collect();
            let (basis, basis_means) = center_columns(raw_basis);
            states.push(StateData {
                basis,
                y,
                y_mean,
                basis_means,
                caches: StateCaches::default(),
            });
        }
        Ok(TunableProblem {
            states,
            basis_spec: self.basis_spec,
            num_basis: self.num_basis,
        })
    }

    /// Appends a chunk of raw per-state samples to a live problem, extending
    /// the per-state Gram/`Bᵀy` caches by rank-k updates instead of
    /// recomputing them on the grown data — the `O(n_chunk·M²)` step that
    /// makes streaming fits cheaper than refitting from scratch.
    ///
    /// The identity used: with raw accumulators `G = Σbᵢbᵢᵀ`, `s = Σbᵢ`,
    /// `q = Σyᵢbᵢ`, the centered products are `BcᵀBc = G − n·m̄m̄ᵀ` and
    /// `Bcᵀyc = q − ȳ·s` (`m̄ = s/n`). The old raw accumulators are
    /// recovered from the cached centered products by the inverse identity,
    /// the chunk contributes one rank-`n_chunk` update, and the grown caches
    /// are installed warm. The stored basis/response are re-centered at the
    /// grown means, so intercept reconstruction stays exact.
    ///
    /// Appending changes per-state means, so results of a fit on the grown
    /// problem are *numerically equal but not bitwise identical* to a batch
    /// fit of the same data; the streaming engine only claims bitwise parity
    /// for the degenerate one-chunk schedule, which never calls this.
    ///
    /// # Errors
    ///
    /// * [`CbmfError::InvalidInput`] if the state count differs, a chunk
    ///   state is empty, rows/values disagree, or the variable dimension
    ///   doesn't match the dictionary.
    /// * [`CbmfError::NonFiniteData`] if chunk samples, responses, or their
    ///   basis expansion are non-finite.
    pub fn append_samples(&mut self, xs: &[Matrix], ys: &[Vec<f64>]) -> Result<(), CbmfError> {
        if xs.len() != self.states.len() || ys.len() != self.states.len() {
            return Err(CbmfError::InvalidInput {
                what: format!(
                    "append needs {} state chunks, got {} x-blocks and {} y-blocks",
                    self.states.len(),
                    xs.len(),
                    ys.len()
                ),
            });
        }
        // Validate the whole chunk before mutating any state, so a bad
        // chunk leaves the problem untouched.
        let mut expansions = Vec::with_capacity(xs.len());
        for (k, (x, y)) in xs.iter().zip(ys).enumerate() {
            if x.rows() == 0 {
                return Err(CbmfError::InvalidInput {
                    what: format!("state {k}: appended chunk has no samples"),
                });
            }
            if x.rows() != y.len() {
                return Err(CbmfError::InvalidInput {
                    what: format!(
                        "state {k}: {} appended rows but {} responses",
                        x.rows(),
                        y.len()
                    ),
                });
            }
            if y.iter().any(|v| !v.is_finite()) {
                return Err(CbmfError::NonFiniteData {
                    state: k,
                    what: "response values",
                });
            }
            if !x.is_finite() {
                return Err(CbmfError::NonFiniteData {
                    state: k,
                    what: "sample values",
                });
            }
            let expanded = self.basis_spec.design_matrix(x);
            if expanded.cols() != self.num_basis {
                return Err(CbmfError::InvalidInput {
                    what: format!(
                        "state {k}: appended chunk expands to {} basis columns, dictionary has {}",
                        expanded.cols(),
                        self.num_basis
                    ),
                });
            }
            if !expanded.is_finite() {
                return Err(CbmfError::NonFiniteData {
                    state: k,
                    what: "basis values",
                });
            }
            expansions.push(expanded);
        }
        for ((st, raw_new), y_new) in self.states.iter_mut().zip(&expansions).zip(ys) {
            st.append_raw(raw_new, y_new);
            STREAM_APPENDED_ROWS.add(y_new.len() as u64);
        }
        Ok(())
    }

    /// Per-state column of raw (uncentered) responses, for evaluation code.
    pub fn raw_y(&self, state: usize) -> Vec<f64> {
        let st = &self.states[state];
        st.y.iter().map(|v| v + st.y_mean).collect()
    }

    /// The raw (uncentered) basis matrix of one state.
    pub fn raw_basis(&self, state: usize) -> Matrix {
        let st = &self.states[state];
        let mut raw = st.basis.clone();
        for i in 0..raw.rows() {
            for (v, bm) in raw.row_mut(i).iter_mut().zip(&st.basis_means) {
                *v += bm;
            }
        }
        raw
    }

    /// The intercept a fitted model needs so that predictions on *raw*
    /// basis values reproduce the centered fit:
    /// `intercept = ȳ − Σ_j c_j · b̄_{m_j}`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range, `support` and `coeffs` differ in
    /// length, or a support index exceeds the dictionary.
    pub fn intercept_for(&self, state: usize, support: &[usize], coeffs: &[f64]) -> f64 {
        let st = &self.states[state];
        assert_eq!(support.len(), coeffs.len(), "support/coefficient length");
        let mut intercept = st.y_mean;
        for (&m, c) in support.iter().zip(coeffs) {
            intercept -= c * st.basis_means[m];
        }
        intercept
    }
}

/// Centers each column of `m` at its mean; returns the centered matrix and
/// the removed means.
fn center_columns(mut m: Matrix) -> (Matrix, Vec<f64>) {
    let (rows, cols) = m.shape();
    let mut means = vec![0.0; cols];
    for i in 0..rows {
        for (s, v) in means.iter_mut().zip(m.row(i)) {
            *s += v;
        }
    }
    for s in &mut means {
        *s /= rows as f64;
    }
    for i in 0..rows {
        for (v, mu) in m.row_mut(i).iter_mut().zip(&means) {
            *v -= mu;
        }
    }
    (m, means)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_problem() -> TunableProblem {
        let x0 = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[1.0, 1.0], &[2.0, 0.0]]).unwrap();
        let y0 = vec![10.0, 20.0, 30.0, 40.0];
        let x1 = Matrix::from_rows(&[&[0.5, 0.5], &[1.5, -0.5], &[0.0, 0.0], &[1.0, 2.0]]).unwrap();
        let y1 = vec![1.0, 2.0, 3.0, 4.0];
        TunableProblem::from_samples(&[x0, x1], &[y0, y1], BasisSpec::Linear).unwrap()
    }

    #[test]
    fn centering_removes_state_means() {
        let p = toy_problem();
        assert_eq!(p.num_states(), 2);
        assert_eq!(p.total_samples(), 8);
        let s0 = &p.states()[0];
        assert!((s0.y_mean - 25.0).abs() < 1e-12);
        assert!(s0.y.iter().sum::<f64>().abs() < 1e-12);
        assert_eq!(p.raw_y(0), vec![10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn subset_recomputes_intercepts() {
        let p = toy_problem();
        let sub = p.subset(&[vec![0, 1], vec![2, 3]]).unwrap();
        assert_eq!(sub.states()[0].len(), 2);
        assert!((sub.states()[0].y_mean - 15.0).abs() < 1e-12);
        assert!((sub.states()[1].y_mean - 3.5).abs() < 1e-12);
        // Raw basis rows are carried over intact (centering differs because
        // the subset has its own column means).
        assert_eq!(sub.raw_basis(1).row(1), p.raw_basis(1).row(3));
    }

    #[test]
    fn subset_validation() {
        let p = toy_problem();
        assert!(p.subset(&[vec![0]]).is_err()); // wrong state count
        assert!(p.subset(&[vec![0], vec![]]).is_err()); // empty state
        assert!(p.subset(&[vec![0], vec![9]]).is_err()); // out of range
    }

    #[test]
    fn construction_validation() {
        let x = Matrix::zeros(2, 2);
        assert!(TunableProblem::from_samples(&[], &[], BasisSpec::Linear).is_err());
        assert!(TunableProblem::from_samples(
            std::slice::from_ref(&x),
            &[vec![1.0]],
            BasisSpec::Linear
        )
        .is_err());
        let bad_y = vec![f64::NAN, 0.0];
        assert!(TunableProblem::from_samples(
            std::slice::from_ref(&x),
            &[bad_y],
            BasisSpec::Linear
        )
        .is_err());
        let x3 = Matrix::zeros(2, 3);
        assert!(TunableProblem::from_samples(
            &[x, x3],
            &[vec![0.0; 2], vec![0.0; 2]],
            BasisSpec::Linear
        )
        .is_err());
    }

    #[test]
    fn non_finite_inputs_yield_typed_errors() {
        let x = Matrix::zeros(2, 2);
        let err = TunableProblem::from_samples(
            std::slice::from_ref(&x),
            &[vec![f64::NAN, 0.0]],
            BasisSpec::Linear,
        )
        .expect_err("NaN response");
        assert!(matches!(
            err,
            CbmfError::NonFiniteData {
                state: 0,
                what: "response values"
            }
        ));
        let bad_x = Matrix::from_rows(&[&[1.0, f64::INFINITY], &[0.0, 0.0]]).unwrap();
        let err = TunableProblem::from_samples(&[bad_x], &[vec![1.0, 2.0]], BasisSpec::Linear)
            .expect_err("Inf sample");
        assert!(matches!(
            err,
            CbmfError::NonFiniteData {
                state: 0,
                what: "sample values"
            }
        ));
    }

    // The corrupted-input path of `validate` arms process-global state, so
    // it is exercised by the serialized integration suite
    // (`tests/fault_injection.rs`), not here.
    #[test]
    fn validate_passes_clean_and_catches_overflowed_basis() {
        let p = toy_problem();
        p.validate().expect("clean problem validates");
        // A finite sample can still overflow through the basis expansion.
        let huge = Matrix::from_rows(&[&[1e200, 0.0], &[0.0, 2.0], &[1.0, 1.0]]).unwrap();
        let p =
            TunableProblem::from_samples(&[huge], &[vec![1.0, 2.0, 3.0]], BasisSpec::LinearSquares)
                .expect("raw samples are finite");
        assert!(matches!(
            p.validate(),
            Err(CbmfError::NonFiniteData {
                what: "basis values",
                ..
            })
        ));
    }

    #[test]
    fn append_samples_matches_from_scratch_construction() {
        // Grow the toy problem by a chunk and compare every piece — stored
        // centered data, means, and the rank-k-extended caches — against a
        // problem built from the concatenated raw data in one shot.
        let mut grown = toy_problem();
        // Warm the caches first so the append exercises the extension path.
        for st in grown.states() {
            let _ = st.t_gram();
            let _ = st.bty();
            let _ = st.col_norms();
        }
        let cx0 = Matrix::from_rows(&[&[3.0, 1.0], &[-1.0, 0.5]]).unwrap();
        let cy0 = vec![50.0, 60.0];
        let cx1 = Matrix::from_rows(&[&[2.0, 2.0], &[0.5, -1.0]]).unwrap();
        let cy1 = vec![5.0, 6.0];
        grown
            .append_samples(&[cx0.clone(), cx1.clone()], &[cy0.clone(), cy1.clone()])
            .unwrap();

        let x0 = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 2.0],
            &[1.0, 1.0],
            &[2.0, 0.0],
            &[3.0, 1.0],
            &[-1.0, 0.5],
        ])
        .unwrap();
        let y0 = vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0];
        let x1 = Matrix::from_rows(&[
            &[0.5, 0.5],
            &[1.5, -0.5],
            &[0.0, 0.0],
            &[1.0, 2.0],
            &[2.0, 2.0],
            &[0.5, -1.0],
        ])
        .unwrap();
        let y1 = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let scratch =
            TunableProblem::from_samples(&[x0, x1], &[y0, y1], BasisSpec::Linear).unwrap();

        assert_eq!(grown.total_samples(), scratch.total_samples());
        for (g, s) in grown.states().iter().zip(scratch.states()) {
            assert!((g.y_mean - s.y_mean).abs() < 1e-12);
            for (a, b) in g.basis_means.iter().zip(&s.basis_means) {
                assert!((a - b).abs() < 1e-12);
            }
            for (a, b) in g.y.iter().zip(&s.y) {
                assert!((a - b).abs() < 1e-12);
            }
            for (a, b) in g.basis.as_slice().iter().zip(s.basis.as_slice()) {
                assert!((a - b).abs() < 1e-12);
            }
            // The extended caches agree with a cold recomputation on the
            // concatenated data.
            for (a, b) in g.t_gram().as_slice().iter().zip(s.t_gram().as_slice()) {
                assert!((a - b).abs() < 1e-10);
            }
            for (a, b) in g.bty().iter().zip(s.bty()) {
                assert!((a - b).abs() < 1e-10);
            }
            for (a, b) in g.col_norms().iter().zip(s.col_norms()) {
                assert!((a - b).abs() < 1e-10);
            }
        }
        grown.validate().expect("grown problem validates");
    }

    #[test]
    fn append_samples_rejects_bad_chunks_without_mutating() {
        let mut p = toy_problem();
        let before = p.states()[0].y.clone();
        // Wrong state count.
        assert!(p
            .append_samples(&[Matrix::zeros(1, 2)], &[vec![1.0]])
            .is_err());
        // Empty chunk state.
        assert!(p
            .append_samples(
                &[Matrix::zeros(0, 2), Matrix::zeros(1, 2)],
                &[vec![], vec![1.0]]
            )
            .is_err());
        // Row/response mismatch.
        assert!(p
            .append_samples(
                &[Matrix::zeros(2, 2), Matrix::zeros(1, 2)],
                &[vec![1.0], vec![1.0]]
            )
            .is_err());
        // Wrong dimension.
        assert!(p
            .append_samples(
                &[Matrix::zeros(1, 3), Matrix::zeros(1, 2)],
                &[vec![1.0], vec![1.0]]
            )
            .is_err());
        // Non-finite response.
        assert!(p
            .append_samples(
                &[Matrix::zeros(1, 2), Matrix::zeros(1, 2)],
                &[vec![f64::NAN], vec![1.0]]
            )
            .is_err());
        assert_eq!(p.states()[0].y, before);
        assert_eq!(p.total_samples(), 8);
    }

    #[test]
    fn quadratic_basis_widens_dictionary() {
        let x0 = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0], &[2.0, 0.0]]).unwrap();
        let p =
            TunableProblem::from_samples(&[x0], &[vec![1.0, 2.0, 3.0]], BasisSpec::LinearSquares)
                .unwrap();
        assert_eq!(p.num_basis(), 4);
        assert_eq!(p.states()[0].basis.cols(), 4);
    }
}
