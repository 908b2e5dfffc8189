//! Shared substrate cache.
//!
//! The experiment harness rebuilds the same physical substrates over and
//! over: every `Product::build` sweeps a full impedance profile to size its
//! guardband, every figure builds the same two Skylake PDNs, and every
//! transient run compiles the same ladder into chain-model coefficients.
//! These quantities are pure functions of the circuit values, so they are
//! cached process-wide, keyed by *content* (an FNV-1a hash over the exact
//! `f64` bit patterns of every component value). Two ladders with
//! identical element values share one cache entry no matter how they were
//! built; perturbing any value produces a new key and a fresh computation.
//!
//! Only work that costs more than a lookup is cached, and only in memory:
//! a default impedance profile computes in about 0.1 ms and a ladder's
//! coefficients in less, too little to be worth a file, so neither has a
//! disk tier. A lane's DC operating point (2n multiply-subtracts) is not
//! cached at all: the kernel computes it in place.
//!
//! All entries are wrapped in [`Arc`], so a cache hit is a pointer bump and
//! results can be shared freely across the worker threads of
//! [`dg_engine`]'s pool.

use crate::impedance::{ImpedanceAnalyzer, ImpedanceProfile};
use crate::ladder::Ladder;
use crate::skylake::{PdnVariant, SkylakePdn};
use crate::transient::LadderCoeffs;
use dg_engine::sync::TrackedMutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Incremental FNV-1a hasher over 64-bit words. Collision quality is ample
/// for the handful of distinct substrates an experiment run touches, and
/// the hash is stable across platforms (unlike `DefaultHasher`).
#[derive(Debug, Clone, Copy)]
pub struct ContentKey(u64);

impl ContentKey {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a new key.
    pub fn new() -> Self {
        ContentKey(Self::OFFSET)
    }

    /// Folds a raw 64-bit word into the key.
    pub fn word(mut self, w: u64) -> Self {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds an `f64` by exact bit pattern (so `-0.0 != 0.0`, and NaNs with
    /// different payloads differ — exactness matters more than canonic
    /// equality for a cache key).
    pub fn f64(self, v: f64) -> Self {
        self.word(v.to_bits())
    }

    /// Folds a byte string (names participate in the key only through
    /// [`Self::bytes`]; the numeric content is what matters, but names are
    /// cheap and keep logically distinct substrates distinct).
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// The finished key value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for ContentKey {
    fn default() -> Self {
        Self::new()
    }
}

/// Content key of a ladder: VR model plus every stage's series R/L and
/// shunt C/ESR/ESL/count, in order.
fn ladder_key(ladder: &Ladder) -> u64 {
    let vr = ladder.vr();
    let mut k = ContentKey::new()
        .f64(vr.loadline.value())
        .f64(vr.bandwidth.value());
    for stage in ladder.stages() {
        k = k
            .bytes(stage.name.as_bytes())
            .f64(stage.series.resistance.value())
            .f64(stage.series.inductance.value());
        match &stage.shunt {
            Some(bank) => {
                k = k
                    .word(1)
                    .f64(bank.capacitance.value())
                    .f64(bank.esr.value())
                    .f64(bank.esl.value())
                    .word(bank.count as u64);
            }
            None => k = k.word(0),
        }
    }
    k.finish()
}

fn analyzer_key(analyzer: &ImpedanceAnalyzer) -> ContentKey {
    ContentKey::new()
        .f64(analyzer.start.value())
        .f64(analyzer.stop.value())
        .word(analyzer.points as u64)
}

type ProfileMap = TrackedMutex<HashMap<u64, Arc<ImpedanceProfile>>>;

fn profile_map() -> &'static ProfileMap {
    static MAP: OnceLock<ProfileMap> = OnceLock::new();
    MAP.get_or_init(|| TrackedMutex::new("pdn.cache.profiles", HashMap::new()))
}

/// The impedance profile of `ladder` under `analyzer`, computed once per
/// distinct (sweep, circuit) content and shared thereafter.
pub fn impedance_profile(analyzer: &ImpedanceAnalyzer, ladder: &Ladder) -> Arc<ImpedanceProfile> {
    let key = analyzer_key(analyzer).word(ladder_key(ladder)).finish();
    if let Some(hit) = profile_map().lock().get(&key) {
        return Arc::clone(hit);
    }
    // Compute outside the lock: other threads may want unrelated entries
    // meanwhile. A racing miss on the same key computes twice and the
    // entries are identical.
    let fresh = Arc::new(analyzer.profile(ladder));
    let mut map = profile_map().lock();
    Arc::clone(map.entry(key).or_insert(fresh))
}

/// The default-sweep impedance profile of the calibrated Skylake PDN of
/// `variant` — the hottest substrate in the workspace (two of these back
/// every product build). A dedicated `OnceLock` per variant skips even the
/// hashing of the general cache.
pub fn skylake_profile(variant: PdnVariant) -> Arc<ImpedanceProfile> {
    static GATED: OnceLock<Arc<ImpedanceProfile>> = OnceLock::new();
    static BYPASSED: OnceLock<Arc<ImpedanceProfile>> = OnceLock::new();
    let slot = match variant {
        PdnVariant::Gated => &GATED,
        PdnVariant::Bypassed => &BYPASSED,
    };
    Arc::clone(slot.get_or_init(|| {
        let pdn = SkylakePdn::build(variant);
        impedance_profile(&ImpedanceAnalyzer::default(), &pdn.ladder)
    }))
}

/// `ladder_key` of the calibrated Skylake PDN of `variant`, computed
/// once per variant: the serve tier folds it into every request key, so
/// deriving a key never builds a ladder.
pub fn skylake_ladder_key(variant: PdnVariant) -> u64 {
    static GATED: OnceLock<u64> = OnceLock::new();
    static BYPASSED: OnceLock<u64> = OnceLock::new();
    let slot = match variant {
        PdnVariant::Gated => &GATED,
        PdnVariant::Bypassed => &BYPASSED,
    };
    *slot.get_or_init(|| ladder_key(&SkylakePdn::build(variant).ladder))
}

type CoeffsMap = TrackedMutex<HashMap<u64, Arc<LadderCoeffs>>>;

fn coeffs_map() -> &'static CoeffsMap {
    static MAP: OnceLock<CoeffsMap> = OnceLock::new();
    MAP.get_or_init(|| TrackedMutex::new("pdn.cache.coeffs", HashMap::new()))
}

/// The precompiled transient chain-model coefficients of `ladder`, computed
/// once per distinct ladder content and shared thereafter. Every transient
/// run — scalar or batched — starts here; the memory entry is what lets a
/// warm [`crate::batch::BatchWorkspace`] run allocate nothing. There is no
/// disk tier: the `from_ladder` walk costs less than reading a file.
pub fn ladder_coeffs(ladder: &Ladder) -> Arc<LadderCoeffs> {
    let key = ladder_key(ladder);
    if let Some(hit) = coeffs_map().lock().get(&key) {
        return Arc::clone(hit);
    }
    let fresh = Arc::new(LadderCoeffs::from_ladder(ladder));
    let mut map = coeffs_map().lock();
    Arc::clone(map.entry(key).or_insert(fresh))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Hertz;

    #[test]
    fn skylake_profiles_are_shared_and_stable() {
        let a = skylake_profile(PdnVariant::Gated);
        let b = skylake_profile(PdnVariant::Gated);
        assert!(Arc::ptr_eq(&a, &b), "same variant must share one profile");
        let c = skylake_profile(PdnVariant::Bypassed);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn skylake_ladder_keys_match_a_fresh_build() {
        for variant in [PdnVariant::Gated, PdnVariant::Bypassed] {
            let fresh = ladder_key(&SkylakePdn::build(variant).ladder);
            assert_eq!(skylake_ladder_key(variant), fresh, "{variant:?}");
        }
        assert_ne!(
            skylake_ladder_key(PdnVariant::Gated),
            skylake_ladder_key(PdnVariant::Bypassed)
        );
    }

    #[test]
    fn cached_profile_matches_cold_computation_bitwise() {
        let pdn = SkylakePdn::build(PdnVariant::Bypassed);
        let analyzer = ImpedanceAnalyzer::default();
        let cold = analyzer.profile(&pdn.ladder);
        let cached = impedance_profile(&analyzer, &pdn.ladder);
        assert_eq!(cold.points().len(), cached.points().len());
        for (a, b) in cold.points().iter().zip(cached.points()) {
            assert_eq!(a.0.value().to_bits(), b.0.value().to_bits());
            assert_eq!(a.1.value().to_bits(), b.1.value().to_bits());
        }
    }

    #[test]
    fn perturbed_ladder_gets_its_own_entry() {
        let pdn = SkylakePdn::build(PdnVariant::Gated);
        let base_key = ladder_key(&pdn.ladder);
        let mut b = Ladder::builder(pdn.ladder.name(), *pdn.ladder.vr());
        for stage in pdn.ladder.stages() {
            let mut stage = stage.clone();
            if stage.name == "power-gate" {
                stage.series.resistance = stage.series.resistance * 1.01;
            }
            b.stage(stage);
        }
        let perturbed = b.build().expect("perturbed gated ladder builds");
        assert_ne!(base_key, ladder_key(&perturbed));
        // And the same content always produces the same key.
        assert_eq!(
            base_key,
            ladder_key(&SkylakePdn::build(PdnVariant::Gated).ladder)
        );
    }

    #[test]
    fn distinct_sweeps_do_not_collide() {
        let pdn = SkylakePdn::build(PdnVariant::Gated);
        let narrow = ImpedanceAnalyzer::new(Hertz::new(1e5), Hertz::new(1e7), 16).unwrap();
        let p = impedance_profile(&narrow, &pdn.ladder);
        let q = impedance_profile(&ImpedanceAnalyzer::default(), &pdn.ladder);
        assert_ne!(p.points().len(), q.points().len());
    }

    #[test]
    fn ladder_coeffs_shared_per_ladder_content() {
        let pdn = SkylakePdn::build(PdnVariant::Gated);
        let a = ladder_coeffs(&pdn.ladder);
        let b = ladder_coeffs(&SkylakePdn::build(PdnVariant::Gated).ladder);
        assert!(
            Arc::ptr_eq(&a, &b),
            "identical ladder content must share one coefficient set"
        );
        assert_eq!(*a, LadderCoeffs::from_ladder(&pdn.ladder));
        let c = ladder_coeffs(&SkylakePdn::build(PdnVariant::Bypassed).ladder);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
