//! Serial VID (SVID) bus model.
//!
//! The central PMU talks to the motherboard VR over the SVID bus
//! (paper Sec. 2.1): `SetVID` commands program a new voltage as an 8-bit
//! VID code; the VR then slews its output at a bounded rate. DVFS
//! transitions must wait for the rail to settle before raising frequency
//! (raise-voltage-then-frequency; lower-frequency-then-voltage).

use dg_pdn::units::{Seconds, Volts};

/// Voltage of VID code 0 (codes below the offset are "off").
const VID_OFFSET_V: f64 = 0.245;

/// Voltage per VID step (Intel SVID: 5 mV).
const VID_STEP_V: f64 = 0.005;

/// An 8-bit VID code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VidCode(pub u8);

impl VidCode {
    /// VID code 0 turns the rail off.
    const OFF: VidCode = VidCode(0);

    /// Encodes a voltage into the nearest VID code (rounding up, so the
    /// delivered voltage is never below the request).
    ///
    /// # Panics
    ///
    /// Panics if the voltage is above the encodable range
    /// (`VID_OFFSET_V + 255 × VID_STEP_V` ≈ 1.52 V).
    pub fn encode(v: Volts) -> VidCode {
        if v.value() <= 0.0 {
            return VidCode::OFF;
        }
        let steps = ((v.value() - VID_OFFSET_V) / VID_STEP_V).ceil();
        assert!(
            (0.0..=255.0).contains(&steps),
            "voltage {v} outside the VID range"
        );
        VidCode(steps as u8)
    }

    /// Decodes the code back into volts (0 decodes to 0 V: rail off).
    // dg-analyze: allow(unreached-pub, reason = "live (the SVID bus decodes every SetVid); crates/pmu/tests/properties.rs names it")
    pub fn decode(self) -> Volts {
        if self.0 == 0 {
            return Volts::ZERO;
        }
        Volts::new(VID_OFFSET_V + self.0 as f64 * VID_STEP_V)
    }
}

/// Commands carried by the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvidCommand {
    /// Program a new output voltage.
    SetVid(VidCode),
    /// Put the VR into a low-power state (phase shedding level 0–2).
    SetPs(u8),
    /// Turn the rail off entirely (package C8: core VR off).
    VrOff,
}

/// The SVID bus plus the VR's slewing output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvidBus {
    /// Command latency (serial protocol overhead).
    pub command_latency: Seconds,
    /// Output slew rate in volts/second (typical: 10–25 mV/µs).
    pub slew_rate: f64,
    output: Volts,
    target: Volts,
    busy_until: f64,
    now: f64,
    /// Current power-state (phase shedding) level.
    ps_level: u8,
    commands_issued: u64,
}

impl SvidBus {
    /// A Skylake-class bus: 1 µs command latency, 15 mV/µs slew.
    pub fn skylake() -> Self {
        SvidBus {
            command_latency: Seconds::from_us(1.0),
            slew_rate: 15.0e3, // 15 mV/µs in V/s
            output: Volts::ZERO,
            target: Volts::ZERO,
            busy_until: 0.0,
            now: 0.0,
            ps_level: 0,
            commands_issued: 0,
        }
    }

    /// The rail's present output voltage.
    pub fn output(&self) -> Volts {
        self.output
    }

    /// The programmed target.
    pub fn target(&self) -> Volts {
        self.target
    }

    /// The current phase-shedding level.
    // dg-analyze: allow(unreached-pub, reason = "only svid::tests calls it; deleting it retires phase_shedding_level_clamped (ROADMAP item 4)")
    pub fn ps_level(&self) -> u8 {
        self.ps_level
    }

    /// Total commands issued (telemetry).
    pub fn commands_issued(&self) -> u64 {
        self.commands_issued
    }

    /// `true` once the output has reached the target.
    // dg-analyze: allow(unreached-pub, reason = "only tests call it (svid::tests, crates/pmu/tests/properties.rs); deleting it retires those tests (ROADMAP item 4)")
    pub fn is_settled(&self) -> bool {
        (self.output - self.target).abs().value() < 1e-9 && self.now >= self.busy_until
    }

    /// Issues a command. Takes effect after the command latency; voltage
    /// then slews toward the new target.
    pub fn issue(&mut self, cmd: SvidCommand) {
        self.commands_issued += 1;
        self.busy_until = self.now + self.command_latency.value();
        match cmd {
            SvidCommand::SetVid(code) => self.target = code.decode(),
            SvidCommand::VrOff => self.target = Volts::ZERO,
            SvidCommand::SetPs(level) => self.ps_level = level.min(2),
        }
    }

    /// Advances time by `dt`, slewing the output toward the target.
    pub fn step(&mut self, dt: Seconds) {
        let mut remaining = dt.value();
        self.now += dt.value();
        // Spend the command-latency dead time first.
        if self.now - remaining < self.busy_until {
            let dead = (self.busy_until - (self.now - remaining)).min(remaining);
            remaining -= dead;
        }
        if remaining <= 0.0 {
            return;
        }
        let max_move = self.slew_rate * remaining;
        let delta = (self.target - self.output).value();
        if delta.abs() <= max_move {
            self.output = self.target;
        } else {
            self.output += Volts::new(max_move * delta.signum());
        }
    }

    /// Time to settle at `target` from the present output (latency + slew).
    pub fn settle_time(&self, target: Volts) -> Seconds {
        let slew = (target - self.output).abs().value() / self.slew_rate;
        Seconds::new(self.command_latency.value() + slew)
    }
}

impl Default for SvidBus {
    fn default() -> Self {
        SvidBus::skylake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vid_round_trip_never_undershoots() {
        for mv in [600.0, 850.0, 1000.0, 1234.0, 1350.0] {
            let v = Volts::from_mv(mv);
            let code = VidCode::encode(v);
            let decoded = code.decode();
            assert!(decoded >= v, "{v} -> {decoded}");
            assert!((decoded - v).value() < VID_STEP_V + 1e-12);
        }
    }

    #[test]
    fn vid_zero_is_off() {
        assert_eq!(VidCode::encode(Volts::ZERO), VidCode::OFF);
        assert_eq!(VidCode::OFF.decode(), Volts::ZERO);
    }

    #[test]
    #[should_panic(expected = "outside the VID range")]
    fn vid_overrange_panics() {
        VidCode::encode(Volts::new(2.0));
    }

    #[test]
    fn slewing_takes_finite_time() {
        let mut bus = SvidBus::skylake();
        bus.issue(SvidCommand::SetVid(VidCode::encode(Volts::new(1.0))));
        assert!(!bus.is_settled());
        // 1 µs latency + 1.0 V / 15 mV/µs ≈ 67.7 µs.
        bus.step(Seconds::from_us(30.0));
        assert!(!bus.is_settled());
        assert!(bus.output() > Volts::ZERO);
        bus.step(Seconds::from_us(50.0));
        assert!(bus.is_settled());
        assert!(
            (bus.output() - VidCode::encode(Volts::new(1.0)).decode())
                .abs()
                .value()
                < 1e-9
        );
    }

    #[test]
    fn settle_time_estimate_matches_stepping() {
        let mut bus = SvidBus::skylake();
        let target = VidCode::encode(Volts::new(0.9)).decode();
        let estimate = bus.settle_time(target);
        bus.issue(SvidCommand::SetVid(VidCode::encode(Volts::new(0.9))));
        bus.step(estimate);
        assert!(bus.is_settled());
    }

    #[test]
    fn vr_off_command() {
        let mut bus = SvidBus::skylake();
        bus.issue(SvidCommand::SetVid(VidCode::encode(Volts::new(0.85))));
        bus.step(Seconds::from_us(100.0));
        bus.issue(SvidCommand::VrOff);
        bus.step(Seconds::from_us(100.0));
        assert_eq!(bus.output(), Volts::ZERO);
        assert_eq!(bus.commands_issued(), 2);
    }

    #[test]
    fn phase_shedding_level_clamped() {
        let mut bus = SvidBus::skylake();
        bus.issue(SvidCommand::SetPs(7));
        assert_eq!(bus.ps_level(), 2);
    }

    #[test]
    fn downward_slew_symmetrical() {
        let mut bus = SvidBus::skylake();
        bus.issue(SvidCommand::SetVid(VidCode::encode(Volts::new(1.2))));
        bus.step(Seconds::from_us(200.0));
        let high = bus.output();
        bus.issue(SvidCommand::SetVid(VidCode::encode(Volts::new(0.7))));
        bus.step(Seconds::from_us(10.0));
        assert!(bus.output() < high);
        bus.step(Seconds::from_us(100.0));
        assert!(bus.is_settled());
    }
}
