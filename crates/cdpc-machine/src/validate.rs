//! Prediction-versus-simulation diffing.
//!
//! The static conflict prover (in `cdpc-analyze`) claims a set of hot
//! `(attribution row, color)` cells; the simulator's
//! [`AttributionProbe`] records where conflict misses actually landed.
//! This module diffs the two so benches and CI can state the prover's
//! guarantee numerically: **zero false negatives** (every simulated
//! conflict cell was predicted) with measured precision. It deliberately
//! speaks only plain types — `BTreeSet<(usize, u64)>` in, counts out —
//! so `cdpc-machine` needs no dependency on the analyzer.

use std::collections::BTreeSet;

use cdpc_obs::{AttributionProbe, MissClassId};

/// Outcome of diffing predicted conflict cells against the simulator's
/// attribution tensor.
#[derive(Debug, Clone, Default)]
pub struct PredictionDiff {
    /// Cells with at least one simulated conflict miss, as
    /// `(attribution row, color)` — rows `0..arrays` are arrays, row
    /// `arrays` is the "(other)" row (code and stack pages).
    pub oracle_cells: BTreeSet<(usize, u64)>,
    /// Predicted cells confirmed by the oracle.
    pub hits: BTreeSet<(usize, u64)>,
    /// Oracle cells the prediction missed — false negatives; a sound
    /// prover keeps this empty.
    pub missed: BTreeSet<(usize, u64)>,
    /// Predicted cells the oracle never charged — false positives, the
    /// price of over-approximation.
    pub spurious: BTreeSet<(usize, u64)>,
}

impl PredictionDiff {
    /// Fraction of oracle cells predicted (1.0 on an empty oracle).
    pub fn recall(&self) -> f64 {
        if self.oracle_cells.is_empty() {
            1.0
        } else {
            self.hits.len() as f64 / self.oracle_cells.len() as f64
        }
    }

    /// Fraction of predictions confirmed (1.0 when nothing was predicted).
    pub fn precision(&self) -> f64 {
        let predicted = self.hits.len() + self.spurious.len();
        if predicted == 0 {
            1.0
        } else {
            self.hits.len() as f64 / predicted as f64
        }
    }

    /// `true` when every simulated conflict cell was predicted.
    pub fn sound(&self) -> bool {
        self.missed.is_empty()
    }
}

/// Diffs `predicted` hot cells against the conflict misses `probe`
/// attributed during measurement.
pub fn diff_prediction(
    predicted: &BTreeSet<(usize, u64)>,
    probe: &AttributionProbe,
) -> PredictionDiff {
    let (arrays, colors, _) = probe.dims();
    let mut oracle_cells = BTreeSet::new();
    for row in 0..=arrays {
        for color in 0..colors {
            if probe.array_color_class(row, color, MissClassId::Conflict) > 0 {
                oracle_cells.insert((row, color as u64));
            }
        }
    }
    let hits: BTreeSet<_> = predicted.intersection(&oracle_cells).copied().collect();
    let missed: BTreeSet<_> = oracle_cells.difference(predicted).copied().collect();
    let spurious: BTreeSet<_> = predicted.difference(&oracle_cells).copied().collect();
    PredictionDiff {
        oracle_cells,
        hits,
        missed,
        spurious,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_with(cells: &[(u32, u32)]) -> AttributionProbe {
        use cdpc_obs::Probe;
        let mut p = AttributionProbe::new(2, 8, 2, 1);
        p.on_phase_start(0, 1);
        for &(array, color) in cells {
            p.on_classified_miss(0, 0x1000, MissClassId::Conflict, 50, || (array, color));
        }
        p.on_phase_end(0, 0x2000);
        p
    }

    #[test]
    fn exact_prediction_scores_perfectly() {
        let probe = probe_with(&[(0, 3), (1, 5)]);
        let predicted: BTreeSet<_> = [(0, 3), (1, 5)].into();
        let diff = diff_prediction(&predicted, &probe);
        assert_eq!(diff.oracle_cells.len(), 2);
        assert!(diff.sound());
        assert_eq!(diff.recall(), 1.0);
        assert_eq!(diff.precision(), 1.0);
    }

    #[test]
    fn over_approximation_costs_precision_not_recall() {
        let probe = probe_with(&[(0, 3)]);
        let predicted: BTreeSet<_> = [(0, 3), (0, 4), (1, 0)].into();
        let diff = diff_prediction(&predicted, &probe);
        assert!(diff.sound());
        assert_eq!(diff.recall(), 1.0);
        assert!((diff.precision() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(diff.spurious.len(), 2);
    }

    #[test]
    fn a_missed_cell_breaks_soundness() {
        let probe = probe_with(&[(0, 3), (1, 5)]);
        let predicted: BTreeSet<_> = [(0, 3)].into();
        let diff = diff_prediction(&predicted, &probe);
        assert!(!diff.sound());
        assert_eq!(diff.missed.iter().copied().collect::<Vec<_>>(), [(1, 5)]);
        assert!((diff.recall() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn other_row_misses_land_on_the_trailing_row() {
        // Array id 999 exceeds the declared 2 arrays → "(other)" row 2.
        let probe = probe_with(&[(999, 7)]);
        let predicted: BTreeSet<_> = [(2, 7)].into();
        let diff = diff_prediction(&predicted, &probe);
        assert!(diff.sound());
        assert_eq!(diff.precision(), 1.0);
    }

    #[test]
    fn empty_oracle_is_vacuously_sound() {
        let probe = probe_with(&[]);
        let diff = diff_prediction(&BTreeSet::new(), &probe);
        assert!(diff.sound());
        assert_eq!(diff.recall(), 1.0);
        assert_eq!(diff.precision(), 1.0);
    }
}
