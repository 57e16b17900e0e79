//! Fault-effect classes and tallies.

use vulnstack_microarch::RunStatus;

/// Effect of one injected fault on program execution (paper §III.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultEffect {
    /// No observable deviation from the fault-free run.
    Masked,
    /// Silent data corruption: the run finished but the output (or exit
    /// code) differs.
    Sdc,
    /// Process/system crash, kernel panic, deadlock or livelock (timeout).
    Crash,
    /// A software fault-tolerance check caught the fault (case-study runs
    /// only; excluded from vulnerability like the paper does).
    Detected,
}

impl FaultEffect {
    /// All classes.
    pub const ALL: [FaultEffect; 4] = [
        FaultEffect::Masked,
        FaultEffect::Sdc,
        FaultEffect::Crash,
        FaultEffect::Detected,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            FaultEffect::Masked => "Masked",
            FaultEffect::Sdc => "SDC",
            FaultEffect::Crash => "Crash",
            FaultEffect::Detected => "Detected",
        }
    }

    /// Inverse of [`FaultEffect::name`] (used to decode journaled
    /// campaign records).
    pub fn from_name(s: &str) -> Option<FaultEffect> {
        FaultEffect::ALL.into_iter().find(|e| e.name() == s)
    }

    /// Classifies a faulty run against the golden run.
    ///
    /// `golden_status` is compared for exit-code changes; outputs are
    /// compared byte-for-byte.
    pub fn classify(
        status: RunStatus,
        output: &[u8],
        golden_status: RunStatus,
        golden_output: &[u8],
    ) -> FaultEffect {
        match status {
            RunStatus::Detected(_) => FaultEffect::Detected,
            RunStatus::Crashed(_) | RunStatus::KernelPanic | RunStatus::Timeout => {
                FaultEffect::Crash
            }
            RunStatus::Exited(code) => {
                let golden_code = match golden_status {
                    RunStatus::Exited(c) => c,
                    _ => return FaultEffect::Sdc,
                };
                if code == golden_code && output == golden_output {
                    FaultEffect::Masked
                } else {
                    FaultEffect::Sdc
                }
            }
        }
    }
}

impl std::fmt::Display for FaultEffect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Counts of fault effects over a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Masked runs.
    pub masked: u64,
    /// Silent data corruptions.
    pub sdc: u64,
    /// Crashes.
    pub crash: u64,
    /// Detections.
    pub detected: u64,
}

impl Tally {
    /// Adds one observation.
    pub fn add(&mut self, e: FaultEffect) {
        match e {
            FaultEffect::Masked => self.masked += 1,
            FaultEffect::Sdc => self.sdc += 1,
            FaultEffect::Crash => self.crash += 1,
            FaultEffect::Detected => self.detected += 1,
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.masked + self.sdc + self.crash + self.detected
    }

    /// The vulnerability factor (SDC and Crash rates). Detected faults are
    /// excluded from the vulnerability, matching the paper's case-study
    /// accounting (a detected fault can be recovered).
    pub fn vf(&self) -> VulnFactor {
        let n = self.total();
        if n == 0 {
            return VulnFactor::default();
        }
        VulnFactor {
            sdc: self.sdc as f64 / n as f64,
            crash: self.crash as f64 / n as f64,
            detected: self.detected as f64 / n as f64,
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.masked += other.masked;
        self.sdc += other.sdc;
        self.crash += other.crash;
        self.detected += other.detected;
    }
}

impl std::iter::FromIterator<FaultEffect> for Tally {
    fn from_iter<T: IntoIterator<Item = FaultEffect>>(iter: T) -> Self {
        let mut t = Tally::default();
        for e in iter {
            t.add(e);
        }
        t
    }
}

/// A vulnerability factor split by fault-effect class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VulnFactor {
    /// Probability of silent data corruption.
    pub sdc: f64,
    /// Probability of a crash.
    pub crash: f64,
    /// Probability of detection (case studies).
    pub detected: f64,
}

impl VulnFactor {
    /// Total vulnerability (SDC + Crash; detected excluded).
    pub fn total(&self) -> f64 {
        self.sdc + self.crash
    }

    /// Scales both components (used for HVF×PVF compositions).
    pub fn scaled(&self, k: f64) -> VulnFactor {
        VulnFactor {
            sdc: self.sdc * k,
            crash: self.crash * k,
            detected: self.detected * k,
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &VulnFactor) -> VulnFactor {
        VulnFactor {
            sdc: self.sdc + other.sdc,
            crash: self.crash + other.crash,
            detected: self.detected + other.detected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_against_golden() {
        let golden = RunStatus::Exited(0);
        let out = b"hello".to_vec();
        assert_eq!(
            FaultEffect::classify(RunStatus::Exited(0), &out, golden, &out),
            FaultEffect::Masked
        );
        assert_eq!(
            FaultEffect::classify(RunStatus::Exited(0), b"hellX", golden, &out),
            FaultEffect::Sdc
        );
        assert_eq!(
            FaultEffect::classify(RunStatus::Exited(1), &out, golden, &out),
            FaultEffect::Sdc
        );
        assert_eq!(
            FaultEffect::classify(RunStatus::Crashed(3), &out, golden, &out),
            FaultEffect::Crash
        );
        assert_eq!(
            FaultEffect::classify(RunStatus::Timeout, &out, golden, &out),
            FaultEffect::Crash
        );
        assert_eq!(
            FaultEffect::classify(RunStatus::KernelPanic, &out, golden, &out),
            FaultEffect::Crash
        );
        assert_eq!(
            FaultEffect::classify(RunStatus::Detected(1), &out, golden, &out),
            FaultEffect::Detected
        );
    }

    #[test]
    fn tally_rates() {
        let t: Tally = [
            FaultEffect::Masked,
            FaultEffect::Masked,
            FaultEffect::Sdc,
            FaultEffect::Crash,
            FaultEffect::Detected,
        ]
        .into_iter()
        .collect();
        assert_eq!(t.total(), 5);
        let vf = t.vf();
        assert!((vf.sdc - 0.2).abs() < 1e-12);
        assert!((vf.crash - 0.2).abs() < 1e-12);
        assert!((vf.detected - 0.2).abs() < 1e-12);
        assert!((vf.total() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_tally_is_zero() {
        let t = Tally::default();
        assert_eq!(t.vf().total(), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a: Tally = [FaultEffect::Sdc].into_iter().collect();
        let b: Tally = [FaultEffect::Crash, FaultEffect::Masked]
            .into_iter()
            .collect();
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.crash, 1);
    }
}
