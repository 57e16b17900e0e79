//! The system vulnerability stack: per-structure AVF, size-weighted
//! aggregation (≡ FIT-rate weighting), HVF with fault-propagation-model
//! distributions, and the refined PVF (rPVF).

use std::collections::BTreeMap;

use vulnstack_microarch::ooo::{Fpm, HwStructure};

use crate::effects::{Tally, VulnFactor};

/// Per-structure AVF measurement: the structure, its bit population (the
/// weighting factor), and the observed effect tally.
#[derive(Debug, Clone)]
pub struct StructureAvf {
    /// Injected structure.
    pub structure: HwStructure,
    /// Bit population of the structure (its size).
    pub bits: u64,
    /// Observed effects.
    pub tally: Tally,
}

impl StructureAvf {
    /// The structure's AVF.
    pub fn avf(&self) -> VulnFactor {
        self.tally.vf()
    }
}

/// Size-weighted AVF across structures — equivalent to the processor FIT
/// rate divided by `FIT(bit) × total bits` (see the paper's footnote on
/// FIT computation).
#[derive(Debug, Clone)]
pub struct WeightedAvf {
    /// The per-structure measurements.
    pub structures: Vec<StructureAvf>,
}

impl WeightedAvf {
    /// Builds from per-structure measurements.
    pub fn new(structures: Vec<StructureAvf>) -> WeightedAvf {
        WeightedAvf { structures }
    }

    /// Total bits across structures.
    pub fn total_bits(&self) -> u64 {
        self.structures.iter().map(|s| s.bits).sum()
    }

    /// The size-weighted AVF.
    pub fn weighted(&self) -> VulnFactor {
        let total = self.total_bits();
        if total == 0 {
            return VulnFactor::default();
        }
        let mut acc = VulnFactor::default();
        for s in &self.structures {
            let w = s.bits as f64 / total as f64;
            acc = acc.plus(&s.avf().scaled(w));
        }
        acc
    }

    /// FIT rate of the modelled structures given a per-bit FIT rate
    /// (`FIT(s) = AVF(s) × FIT(bit) × bits(s)`, summed).
    pub fn fit(&self, fit_per_bit: f64) -> f64 {
        self.structures
            .iter()
            .map(|s| s.avf().total() * fit_per_bit * s.bits as f64)
            .sum()
    }
}

/// A distribution over fault propagation models, from an HVF campaign.
///
/// `masked` counts faults that never became architecturally visible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FpmDist {
    counts: BTreeMap<Fpm, u64>,
    masked: u64,
}

impl FpmDist {
    /// Creates an empty distribution.
    pub fn new() -> FpmDist {
        FpmDist::default()
    }

    /// Records one observation.
    pub fn add(&mut self, fpm: Option<Fpm>) {
        match fpm {
            Some(f) => *self.counts.entry(f).or_insert(0) += 1,
            None => self.masked += 1,
        }
    }

    /// Count for one model.
    pub fn count(&self, fpm: Fpm) -> u64 {
        self.counts.get(&fpm).copied().unwrap_or(0)
    }

    /// Faults that stayed invisible to the architecture.
    pub fn masked(&self) -> u64 {
        self.masked
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.masked + self.counts.values().sum::<u64>()
    }

    /// The HVF: fraction of faults activated or exposed to a higher layer.
    pub fn hvf(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        (t - self.masked) as f64 / t as f64
    }

    /// Share of `fpm` among *all* injections (HVF-scaled).
    pub fn share(&self, fpm: Fpm) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        self.count(fpm) as f64 / t as f64
    }

    /// Share of `fpm` among faults that reached the software layer
    /// (WD/WI/WOI only — ESC by definition bypasses software).
    pub fn software_share(&self, fpm: Fpm) -> f64 {
        let sw: u64 = [Fpm::Wd, Fpm::Wi, Fpm::Woi]
            .iter()
            .map(|&f| self.count(f))
            .sum();
        if sw == 0 {
            return 0.0;
        }
        self.count(fpm) as f64 / sw as f64
    }

    /// Merges another distribution.
    pub fn merge(&mut self, other: &FpmDist) {
        for (&f, &c) in &other.counts {
            *self.counts.entry(f).or_insert(0) += c;
        }
        self.masked += other.masked;
    }

    /// Size-weighted combination across structures: each distribution is
    /// weighted by its structure's bit count (paper Fig. 6).
    pub fn weighted_combine(parts: &[(u64, &FpmDist)]) -> BTreeMap<Fpm, f64> {
        let total_bits: u64 = parts.iter().map(|(b, _)| *b).sum();
        let mut out = BTreeMap::new();
        if total_bits == 0 {
            return out;
        }
        for fpm in Fpm::ALL {
            let mut v = 0.0;
            for (bits, dist) in parts {
                v += (*bits as f64 / total_bits as f64) * dist.share(fpm);
            }
            out.insert(fpm, v);
        }
        out
    }
}

/// Computes the refined PVF (paper §V): per-FPM PVF measurements combined
/// using the HVF-measured FPM distribution. ESC is excluded (it cannot be
/// modelled above the hardware layer); the remaining shares are taken
/// *conditional on reaching software*.
pub fn rpvf(
    dist: &FpmDist,
    pvf_wd: VulnFactor,
    pvf_woi: VulnFactor,
    pvf_wi: VulnFactor,
) -> VulnFactor {
    let mut acc = VulnFactor::default();
    for (fpm, pvf) in [(Fpm::Wd, pvf_wd), (Fpm::Woi, pvf_woi), (Fpm::Wi, pvf_wi)] {
        acc = acc.plus(&pvf.scaled(dist.software_share(fpm)));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::FaultEffect;

    fn tally(masked: u64, sdc: u64, crash: u64) -> Tally {
        let mut t = Tally::default();
        for _ in 0..masked {
            t.add(FaultEffect::Masked);
        }
        for _ in 0..sdc {
            t.add(FaultEffect::Sdc);
        }
        for _ in 0..crash {
            t.add(FaultEffect::Crash);
        }
        t
    }

    #[test]
    fn weighting_favours_large_structures() {
        // Small structure very vulnerable, large structure robust.
        let small = StructureAvf {
            structure: HwStructure::RegisterFile,
            bits: 100,
            tally: tally(0, 10, 0), // AVF 1.0
        };
        let large = StructureAvf {
            structure: HwStructure::L2,
            bits: 9900,
            tally: tally(10, 0, 0), // AVF 0.0
        };
        let w = WeightedAvf::new(vec![small, large]);
        let v = w.weighted();
        assert!((v.total() - 0.01).abs() < 1e-12, "{v:?}");
    }

    #[test]
    fn weighted_equals_fit_normalisation() {
        let a = StructureAvf {
            structure: HwStructure::L1d,
            bits: 1000,
            tally: tally(5, 3, 2),
        };
        let b = StructureAvf {
            structure: HwStructure::L2,
            bits: 3000,
            tally: tally(8, 1, 1),
        };
        let w = WeightedAvf::new(vec![a, b]);
        let fit_bit = 1e-4;
        let fit = w.fit(fit_bit);
        let norm = fit / (fit_bit * w.total_bits() as f64);
        assert!((norm - w.weighted().total()).abs() < 1e-12);
    }

    #[test]
    fn fpm_shares_and_hvf() {
        let mut d = FpmDist::new();
        for _ in 0..50 {
            d.add(None);
        }
        for _ in 0..30 {
            d.add(Some(Fpm::Wd));
        }
        for _ in 0..10 {
            d.add(Some(Fpm::Wi));
        }
        for _ in 0..10 {
            d.add(Some(Fpm::Esc));
        }
        assert_eq!(d.total(), 100);
        assert!((d.hvf() - 0.5).abs() < 1e-12);
        assert!((d.share(Fpm::Wd) - 0.3).abs() < 1e-12);
        assert!((d.software_share(Fpm::Wd) - 0.75).abs() < 1e-12);
        assert!((d.software_share(Fpm::Wi) - 0.25).abs() < 1e-12);
        // ESC participates in shares but not software shares.
        assert!((d.share(Fpm::Esc) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rpvf_mixes_by_software_share() {
        let mut d = FpmDist::new();
        for _ in 0..60 {
            d.add(Some(Fpm::Wd));
        }
        for _ in 0..40 {
            d.add(Some(Fpm::Wi));
        }
        let wd = VulnFactor {
            sdc: 0.5,
            crash: 0.0,
            detected: 0.0,
        };
        let wi = VulnFactor {
            sdc: 0.0,
            crash: 0.5,
            detected: 0.0,
        };
        let woi = VulnFactor::default();
        let r = rpvf(&d, wd, woi, wi);
        assert!((r.sdc - 0.3).abs() < 1e-12);
        assert!((r.crash - 0.2).abs() < 1e-12);
    }

    #[test]
    fn weighted_combine_respects_bits() {
        let mut a = FpmDist::new();
        a.add(Some(Fpm::Wd));
        let mut b = FpmDist::new();
        b.add(Some(Fpm::Esc));
        let out = FpmDist::weighted_combine(&[(1, &a), (3, &b)]);
        assert!((out[&Fpm::Wd] - 0.25).abs() < 1e-12);
        assert!((out[&Fpm::Esc] - 0.75).abs() < 1e-12);
    }
}

#[cfg(test)]
mod rpvf_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// rPVF is a convex combination of the per-FPM PVFs: its total can
        /// never exceed the largest component nor drop below the smallest
        /// (over the software-visible FPMs actually present).
        #[test]
        fn rpvf_is_convex(
            wd_n in 0u64..50, wi_n in 0u64..50, woi_n in 0u64..50,
            pvf_wd in 0.0f64..1.0, pvf_wi in 0.0f64..1.0, pvf_woi in 0.0f64..1.0,
        ) {
            prop_assume!(wd_n + wi_n + woi_n > 0);
            let mut d = FpmDist::new();
            for _ in 0..wd_n { d.add(Some(Fpm::Wd)); }
            for _ in 0..wi_n { d.add(Some(Fpm::Wi)); }
            for _ in 0..woi_n { d.add(Some(Fpm::Woi)); }
            let mk = |t: f64| VulnFactor { sdc: t, crash: 0.0, detected: 0.0 };
            let r = rpvf(&d, mk(pvf_wd), mk(pvf_woi), mk(pvf_wi));
            let mut present = Vec::new();
            if wd_n > 0 { present.push(pvf_wd); }
            if woi_n > 0 { present.push(pvf_woi); }
            if wi_n > 0 { present.push(pvf_wi); }
            let lo = present.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = present.iter().cloned().fold(0.0, f64::max);
            prop_assert!(r.total() <= hi + 1e-9);
            prop_assert!(r.total() >= lo - 1e-9);
        }

        /// Size-weighted AVF lies within the per-structure extremes.
        #[test]
        fn weighted_avf_is_bounded_by_extremes(
            parts in prop::collection::vec((1u64..10_000, 0u64..30, 0u64..30, 0u64..30), 1..6)
        ) {
            let structures: Vec<StructureAvf> = parts.iter().map(|&(bits, m, s, c)| {
                let mut t = crate::effects::Tally::default();
                for _ in 0..m { t.add(crate::effects::FaultEffect::Masked); }
                for _ in 0..s { t.add(crate::effects::FaultEffect::Sdc); }
                for _ in 0..c { t.add(crate::effects::FaultEffect::Crash); }
                StructureAvf { structure: HwStructure::L1d, bits, tally: t }
            }).collect();
            let totals: Vec<f64> = structures.iter().map(|s| s.avf().total()).collect();
            let w = WeightedAvf::new(structures).weighted().total();
            let lo = totals.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = totals.iter().cloned().fold(0.0, f64::max);
            prop_assert!(w <= hi + 1e-9, "{w} > {hi}");
            prop_assert!(w >= lo - 1e-9, "{w} < {lo}");
        }
    }
}
