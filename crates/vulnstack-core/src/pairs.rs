//! Opposite relative-vulnerability pair analysis (paper Table III).
//!
//! Two estimation methods *disagree on a pair* of benchmarks when one
//! orders the pair `A < B` and the other orders it `A > B`. The paper
//! counts such pairs between PVF↔AVF, SVF↔AVF and SVF↔PVF, both for the
//! total vulnerability and for the dominant fault-effect class.

/// Outcome of comparing two methods over the same benchmark set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairComparison {
    /// Pairs ordered oppositely by the two methods.
    pub opposite: u32,
    /// Pairs ordered identically.
    pub agreeing: u32,
    /// Pairs tied under either method (excluded from both counts).
    pub tied: u32,
}

impl PairComparison {
    /// Total comparable pairs.
    pub fn total(&self) -> u32 {
        self.opposite + self.agreeing + self.tied
    }
}

/// Compares the per-benchmark values of two methods pairwise.
///
/// Values closer than `epsilon` are treated as tied (fault sampling
/// noise).
pub fn compare_orderings(a: &[f64], b: &[f64], epsilon: f64) -> PairComparison {
    assert_eq!(a.len(), b.len(), "methods must cover the same benchmarks");
    let mut out = PairComparison::default();
    for i in 0..a.len() {
        for j in i + 1..a.len() {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            if da.abs() <= epsilon || db.abs() <= epsilon {
                out.tied += 1;
            } else if (da > 0.0) == (db > 0.0) {
                out.agreeing += 1;
            } else {
                out.opposite += 1;
            }
        }
    }
    out
}

/// Counts benchmarks whose *dominant effect class* differs between two
/// methods (paper Table III "Effect" columns): method A says SDC dominates
/// while method B says Crash dominates, or vice versa.
pub fn dominant_effect_flips(
    a: &[(f64, f64)], // (sdc, crash) per benchmark under method A
    b: &[(f64, f64)],
) -> u32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .filter(|((sa, ca), (sb, cb))| (sa > ca) != (sb > cb))
        .count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_correlated_methods_agree() {
        let a = [0.1, 0.2, 0.3, 0.4];
        let b = [0.2, 0.4, 0.6, 0.8];
        let c = compare_orderings(&a, &b, 1e-9);
        assert_eq!(c.opposite, 0);
        assert_eq!(c.agreeing, 6);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn reversed_methods_disagree_everywhere() {
        let a = [0.1, 0.2, 0.3];
        let b = [0.3, 0.2, 0.1];
        let c = compare_orderings(&a, &b, 1e-9);
        assert_eq!(c.opposite, 3);
        assert_eq!(c.agreeing, 0);
    }

    #[test]
    fn ties_are_excluded() {
        let a = [0.1, 0.1, 0.5];
        let b = [0.9, 0.1, 0.5];
        let c = compare_orderings(&a, &b, 0.01);
        // Pair (0,1): tied under A. Pair (1,2): comparable. Pair (0,2):
        // comparable.
        assert_eq!(c.tied, 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn dominant_effect_flip_counting() {
        // Benchmark 0: A says SDC-dominated, B says Crash-dominated.
        // Benchmark 1: both say SDC.
        let a = [(0.6, 0.1), (0.5, 0.2)];
        let b = [(0.1, 0.6), (0.7, 0.1)];
        assert_eq!(dominant_effect_flips(&a, &b), 1);
    }

    #[test]
    #[should_panic(expected = "same benchmarks")]
    fn mismatched_lengths_panic() {
        compare_orderings(&[1.0], &[1.0, 2.0], 0.0);
    }
}
