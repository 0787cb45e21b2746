//! DVFS states, power and sleep models.
//!
//! Dynamic voltage and frequency scaling is the primary energy-management
//! knob on heterogeneous devices. A device exposes a sorted list of
//! [`DvfsState`]s; its [`PowerModel`] maps a state to dissipated power with
//! the standard CMOS model `P = P_static + C_eff · V² · f`, and its
//! [`SleepModel`] covers dynamic resource sleep (DRS): a deep low-power
//! state with a wake-up latency.

use serde::{Deserialize, Serialize};

use helios_sim::SimDuration;

use crate::error::{non_negative, positive, PlatformError};

/// Index of a DVFS state within a device's state table (0 = slowest).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct DvfsLevel(pub usize);

impl std::fmt::Display for DvfsLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// One voltage/frequency operating point.
///
/// # Examples
///
/// ```
/// use helios_platform::DvfsState;
///
/// let s = DvfsState::new(1.5, 1.0)?;
/// assert_eq!(s.frequency_ghz(), 1.5);
/// # Ok::<(), helios_platform::PlatformError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DvfsState {
    frequency_ghz: f64,
    voltage_v: f64,
}

impl DvfsState {
    /// Creates an operating point at `frequency_ghz` GHz and `voltage_v`
    /// volts.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] if either value is not
    /// positive and finite.
    pub fn new(frequency_ghz: f64, voltage_v: f64) -> Result<DvfsState, PlatformError> {
        Ok(DvfsState {
            frequency_ghz: positive("frequency_ghz", frequency_ghz)?,
            voltage_v: positive("voltage_v", voltage_v)?,
        })
    }

    /// Clock frequency in GHz.
    #[must_use]
    pub fn frequency_ghz(&self) -> f64 {
        self.frequency_ghz
    }

    /// Supply voltage in volts.
    #[must_use]
    pub fn voltage_v(&self) -> f64 {
        self.voltage_v
    }
}

/// CMOS-style device power model.
///
/// Active power at state `s` is `static_w + ceff · V(s)² · f(s)`, with `f`
/// in GHz — `ceff` therefore carries units of W/(V²·GHz). Idle power is
/// dissipated whenever the device is powered but not executing; sleep power
/// (see [`SleepModel`]) applies only when DRS has parked the device.
///
/// # Examples
///
/// ```
/// use helios_platform::{DvfsState, PowerModel};
///
/// let pm = PowerModel::new(10.0, 20.0, 5.0)?;
/// let hi = DvfsState::new(2.0, 1.2)?;
/// let lo = DvfsState::new(1.0, 0.8)?;
/// assert!(pm.active_power(&hi) > pm.active_power(&lo));
/// # Ok::<(), helios_platform::PlatformError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    static_w: f64,
    ceff: f64,
    idle_w: f64,
}

impl PowerModel {
    /// Creates a power model.
    ///
    /// * `static_w` — leakage power drawn at any active state, in watts,
    /// * `ceff` — effective switched capacitance coefficient, W/(V²·GHz),
    /// * `idle_w` — power when powered-on but idle, in watts.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] if any value is negative
    /// or not finite.
    pub fn new(static_w: f64, ceff: f64, idle_w: f64) -> Result<PowerModel, PlatformError> {
        Ok(PowerModel {
            static_w: non_negative("static_w", static_w)?,
            ceff: non_negative("ceff", ceff)?,
            idle_w: non_negative("idle_w", idle_w)?,
        })
    }

    /// Power dissipated while executing at `state`, in watts.
    #[must_use]
    pub fn active_power(&self, state: &DvfsState) -> f64 {
        self.static_w + self.ceff * state.voltage_v.powi(2) * state.frequency_ghz
    }

    /// Power dissipated while powered but idle, in watts.
    #[must_use]
    pub fn idle_power(&self) -> f64 {
        self.idle_w
    }

    /// Energy in joules for executing for `duration` at `state`.
    #[must_use]
    pub fn active_energy(&self, state: &DvfsState, duration: SimDuration) -> f64 {
        self.active_power(state) * duration.as_secs()
    }

    /// Energy in joules for idling for `duration`.
    #[must_use]
    pub fn idle_energy(&self, duration: SimDuration) -> f64 {
        self.idle_w * duration.as_secs()
    }
}

/// Dynamic-resource-sleep (DRS) model: deep sleep power and wake latency.
///
/// # Examples
///
/// ```
/// use helios_platform::SleepModel;
/// use helios_sim::SimDuration;
///
/// let drs = SleepModel::new(0.5, SimDuration::from_secs(0.002))?;
/// assert_eq!(drs.sleep_power_w(), 0.5);
/// # Ok::<(), helios_platform::PlatformError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SleepModel {
    sleep_power_w: f64,
    wake_latency: SimDuration,
}

impl SleepModel {
    /// Creates a sleep model drawing `sleep_power_w` watts while parked and
    /// requiring `wake_latency` to resume execution.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] if `sleep_power_w` is
    /// negative or not finite.
    pub fn new(sleep_power_w: f64, wake_latency: SimDuration) -> Result<SleepModel, PlatformError> {
        Ok(SleepModel {
            sleep_power_w: non_negative("sleep_power_w", sleep_power_w)?,
            wake_latency,
        })
    }

    /// Power drawn while sleeping, in watts.
    #[must_use]
    pub fn sleep_power_w(&self) -> f64 {
        self.sleep_power_w
    }

    /// Latency to wake from sleep.
    #[must_use]
    pub fn wake_latency(&self) -> SimDuration {
        self.wake_latency
    }

    /// Energy in joules spent sleeping for `duration`.
    #[must_use]
    pub fn sleep_energy(&self, duration: SimDuration) -> f64 {
        self.sleep_power_w * duration.as_secs()
    }

    /// The minimum idle span for which sleeping beats idling, given the
    /// device's idle power: below this break-even the wake latency and the
    /// idle/sleep delta do not pay off. Returns `None` when sleeping never
    /// saves energy (sleep power ≥ idle power).
    #[must_use]
    pub fn break_even(&self, idle_power_w: f64) -> Option<SimDuration> {
        if self.sleep_power_w >= idle_power_w {
            return None;
        }
        // Sleeping for span T costs sleep_power·T; idling costs idle·T.
        // Waking costs an extra wake_latency at (approximated) idle power.
        let delta = idle_power_w - self.sleep_power_w;
        let overhead_j = idle_power_w * self.wake_latency.as_secs();
        Some(SimDuration::from_secs(overhead_j / delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_validates() {
        assert!(DvfsState::new(0.0, 1.0).is_err());
        assert!(DvfsState::new(1.0, -1.0).is_err());
        assert!(DvfsState::new(f64::INFINITY, 1.0).is_err());
        let s = DvfsState::new(2.5, 1.1).unwrap();
        assert_eq!(s.frequency_ghz(), 2.5);
        assert_eq!(s.voltage_v(), 1.1);
    }

    #[test]
    fn power_is_monotone_in_frequency_and_voltage() {
        let pm = PowerModel::new(5.0, 10.0, 2.0).unwrap();
        let base = DvfsState::new(1.0, 1.0).unwrap();
        let faster = DvfsState::new(2.0, 1.0).unwrap();
        let hotter = DvfsState::new(1.0, 1.3).unwrap();
        assert!(pm.active_power(&faster) > pm.active_power(&base));
        assert!(pm.active_power(&hotter) > pm.active_power(&base));
        assert_eq!(pm.active_power(&base), 5.0 + 10.0);
        assert_eq!(pm.idle_power(), 2.0);
    }

    #[test]
    fn energies() {
        let pm = PowerModel::new(0.0, 10.0, 2.0).unwrap();
        let s = DvfsState::new(1.0, 1.0).unwrap();
        let d = SimDuration::from_secs(3.0);
        assert_eq!(pm.active_energy(&s, d), 30.0);
        assert_eq!(pm.idle_energy(d), 6.0);
    }

    #[test]
    fn sleep_break_even() {
        let drs = SleepModel::new(1.0, SimDuration::from_secs(0.1)).unwrap();
        // idle 5 W, sleep 1 W, wake costs 5 W × 0.1 s = 0.5 J, delta 4 W:
        // break-even = 0.125 s.
        let be = drs.break_even(5.0).unwrap();
        assert!((be.as_secs() - 0.125).abs() < 1e-12);
        // Sleeping that draws more than idle never pays.
        assert!(drs.break_even(0.5).is_none());
        assert_eq!(drs.sleep_energy(SimDuration::from_secs(2.0)), 2.0);
        assert_eq!(drs.wake_latency(), SimDuration::from_secs(0.1));
    }

    #[test]
    fn dvfs_level_display() {
        assert_eq!(DvfsLevel(2).to_string(), "P2");
    }
}
