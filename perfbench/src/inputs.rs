//! Inputs shared by the workloads: the fit configuration, dataset-to-problem
//! conversion, and a testbench view restricted to a circuit's first knob
//! states.

use cbmf::{BasisSpec, CbmfConfig, TunableProblem};
use cbmf_circuits::{CircuitError, SimCostModel, Testbench, TunableDataset};

/// The `cbmf_report` operating point: the small-problem grid with θ ∈ {8,
/// 16} and 6 EM iterations.
pub fn config() -> CbmfConfig {
    let mut cfg = CbmfConfig::small_problem();
    cfg.grid.theta = vec![8, 16];
    cfg.em.max_iters = 6;
    cfg
}

/// One metric of a collected dataset as a fitting problem.
pub fn problem(ds: &TunableDataset, metric: usize) -> TunableProblem {
    let xs: Vec<_> = ds.states.iter().map(|s| s.x.clone()).collect();
    let ys: Vec<_> = ds.states.iter().map(|s| s.metric(metric)).collect();
    TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).expect("simulated data is valid")
}

/// A circuit restricted to its first `states` knob states. Simulation,
/// variables and cost model are the circuit's own.
pub struct FirstStates<T> {
    pub tb: T,
    pub states: usize,
}

impl<T: Testbench> Testbench for FirstStates<T> {
    fn name(&self) -> &str {
        self.tb.name()
    }
    fn num_states(&self) -> usize {
        self.states
    }
    fn num_variables(&self) -> usize {
        self.tb.num_variables()
    }
    fn metric_names(&self) -> &[&'static str] {
        self.tb.metric_names()
    }
    fn simulate(&self, state: usize, x: &[f64]) -> Result<Vec<f64>, CircuitError> {
        self.tb.simulate(state, x)
    }
    fn cost_model(&self) -> SimCostModel {
        self.tb.cost_model()
    }
}

/// Index of a metric a testbench models.
pub fn metric_index(tb: &impl Testbench, name: &str) -> usize {
    tb.metric_names()
        .iter()
        .position(|m| *m == name)
        .unwrap_or_else(|| panic!("{} models no metric {name}", tb.name()))
}
