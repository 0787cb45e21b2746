//! The [`Platform`] aggregate: devices + interconnect.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use helios_sim::SimDuration;

use crate::cost::ComputeCost;
use crate::device::{Device, DeviceId, DeviceKind};
use crate::error::PlatformError;
use crate::interconnect::{mean_over_pairs, Interconnect, TransferTable};

/// A complete heterogeneous computing platform.
///
/// Construct with [`PlatformBuilder`] or one of the
/// [`presets`](crate::presets).
///
/// # Examples
///
/// ```
/// use helios_platform::{DeviceBuilder, DeviceKind, Interconnect, PlatformBuilder};
/// use helios_sim::SimDuration;
///
/// let mut b = PlatformBuilder::new("two-device");
/// b.add_device(DeviceBuilder::new("cpu0", DeviceKind::Cpu).build()?);
/// b.add_device(DeviceBuilder::new("gpu0", DeviceKind::Gpu).build()?);
/// b.interconnect(Interconnect::shared_bus(16.0, SimDuration::from_secs(5e-6))?);
/// let platform = b.build()?;
/// assert_eq!(platform.num_devices(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    name: String,
    devices: Vec<Device>,
    interconnect: Interconnect,
}

impl Platform {
    /// The platform's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All devices, in id order.
    #[must_use]
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Number of devices.
    #[must_use]
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Looks up a device by id.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownDevice`] for an out-of-range id.
    pub fn device(&self, id: DeviceId) -> Result<&Device, PlatformError> {
        self.devices
            .get(id.0)
            .ok_or(PlatformError::UnknownDevice(id.0))
    }

    /// Looks up a device by name.
    #[must_use]
    pub fn device_by_name(&self, name: &str) -> Option<&Device> {
        self.devices.iter().find(|d| d.name() == name)
    }

    /// All devices of a given kind, in id order.
    pub fn devices_of_kind(&self, kind: DeviceKind) -> impl Iterator<Item = &Device> {
        self.devices.iter().filter(move |d| d.kind() == kind)
    }

    /// Count of devices per kind (for reporting).
    #[must_use]
    pub fn kind_census(&self) -> BTreeMap<DeviceKind, usize> {
        let mut census = BTreeMap::new();
        for d in &self.devices {
            *census.entry(d.kind()).or_insert(0) += 1;
        }
        census
    }

    /// The communication topology.
    #[must_use]
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// Returns a copy of the platform with a different interconnect
    /// (used by bandwidth-sensitivity experiments).
    #[must_use]
    pub fn with_interconnect(&self, interconnect: Interconnect) -> Platform {
        Platform {
            name: self.name.clone(),
            devices: self.devices.clone(),
            interconnect,
        }
    }

    /// Builds the platform that remains after every device *not* in
    /// `keep` has failed permanently.
    ///
    /// Surviving devices are re-indexed densely in the order given (pass
    /// ascending original ids to keep relative order), so the new id of
    /// `keep[i]` is `DeviceId(i)`. Links are copied verbatim and every
    /// surviving route — including routes that were served by the default
    /// link — is materialized explicitly; pairs that had no route keep
    /// having none.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Empty`] if `keep` is empty and
    /// [`PlatformError::UnknownDevice`] for an out-of-range id.
    pub fn survivors(&self, keep: &[DeviceId]) -> Result<Platform, PlatformError> {
        if keep.is_empty() {
            return Err(PlatformError::Empty);
        }
        let mut builder = PlatformBuilder::new(format!("{}+survivors", self.name));
        for &id in keep {
            builder.add_device(self.device(id)?.clone());
        }
        let mut ic = crate::interconnect::InterconnectBuilder::new();
        for link in self.interconnect.links() {
            ic.add_link(link.clone());
        }
        for (new_from, &from) in keep.iter().enumerate() {
            for (new_to, &to) in keep.iter().enumerate() {
                if from == to {
                    continue;
                }
                if let Ok(route) = self.interconnect.route(from, to) {
                    ic.route(DeviceId(new_from), DeviceId(new_to), route);
                }
            }
        }
        builder.interconnect(ic.build());
        builder.build()
    }

    /// Time to move `bytes` between two devices.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoRoute`] if the pair has no route.
    pub fn transfer_time(
        &self,
        bytes: f64,
        from: DeviceId,
        to: DeviceId,
    ) -> Result<SimDuration, PlatformError> {
        self.interconnect.transfer_time(bytes, from, to)
    }

    /// Mean nominal execution time of `cost` across all devices — the
    /// quantity HEFT-family schedulers use for upward ranks.
    ///
    /// # Errors
    ///
    /// Propagates device model errors (none occur for valid platforms).
    pub fn mean_execution_time(&self, cost: &ComputeCost) -> Result<SimDuration, PlatformError> {
        let mut total = SimDuration::ZERO;
        for d in &self.devices {
            total += d.execution_time(cost, d.nominal_level())?;
        }
        Ok(total / self.devices.len() as f64)
    }

    /// Mean transfer time for `bytes` over all ordered device pairs with
    /// distinct endpoints — the communication analogue of
    /// [`Platform::mean_execution_time`].
    ///
    /// Returns zero for single-device platforms.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoRoute`] if any pair has no route.
    pub fn mean_transfer_time(&self, bytes: f64) -> Result<SimDuration, PlatformError> {
        mean_over_pairs(self.devices.len(), |from, to| {
            self.transfer_time(bytes, from, to)
        })
    }

    /// [`Platform::mean_transfer_time`] of every size in `bytes`, through
    /// one [`TransferTable`]: bit-identical, without re-walking routes per
    /// size. An empty `bytes` never touches a route, so it succeeds even
    /// on a platform with an unroutable pair.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoRoute`] if any pair has no route.
    pub fn mean_transfer_times(&self, bytes: &[f64]) -> Result<Vec<SimDuration>, PlatformError> {
        let table = self.transfer_table();
        bytes.iter().map(|&b| table.mean_transfer_time(b)).collect()
    }

    /// Memoizes the transfer terms of every device pair; see
    /// [`TransferTable`].
    #[must_use]
    pub fn transfer_table(&self) -> TransferTable<'_> {
        TransferTable::new(&self.interconnect, self.devices.len())
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} devices:", self.name, self.devices.len())?;
        for (kind, count) in self.kind_census() {
            write!(f, " {count}×{kind}")?;
        }
        write!(f, ")")
    }
}

/// Builder for [`Platform`].
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    name: String,
    devices: Vec<Device>,
    interconnect: Option<Interconnect>,
}

impl PlatformBuilder {
    /// Starts building a platform named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> PlatformBuilder {
        PlatformBuilder {
            name: name.into(),
            devices: Vec::new(),
            interconnect: None,
        }
    }

    /// Adds a device, assigning and returning its id.
    pub fn add_device(&mut self, mut device: Device) -> DeviceId {
        let id = DeviceId(self.devices.len());
        device.id = id;
        self.devices.push(device);
        id
    }

    /// Sets the interconnect. Without one, `build` falls back to a shared
    /// 16 GB/s bus with 5 µs latency.
    pub fn interconnect(&mut self, interconnect: Interconnect) -> &mut Self {
        self.interconnect = Some(interconnect);
        self
    }

    /// Finalizes the platform.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Empty`] if no devices were added, or
    /// [`PlatformError::DuplicateName`] if two devices share a name.
    pub fn build(self) -> Result<Platform, PlatformError> {
        if self.devices.is_empty() {
            return Err(PlatformError::Empty);
        }
        let mut names = std::collections::BTreeSet::new();
        for d in &self.devices {
            if !names.insert(d.name().to_owned()) {
                return Err(PlatformError::DuplicateName(d.name().to_owned()));
            }
        }
        let interconnect = match self.interconnect {
            Some(ic) => ic,
            None => Interconnect::shared_bus(16.0, SimDuration::from_secs(5e-6))
                .expect("fallback bus parameters are valid"),
        };
        Ok(Platform {
            name: self.name,
            devices: self.devices,
            interconnect,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelClass;
    use crate::device::DeviceBuilder;

    fn two_device() -> Platform {
        let mut b = PlatformBuilder::new("test");
        b.add_device(DeviceBuilder::new("cpu0", DeviceKind::Cpu).build().unwrap());
        b.add_device(DeviceBuilder::new("gpu0", DeviceKind::Gpu).build().unwrap());
        b.build().unwrap()
    }

    #[test]
    fn ids_are_assigned_in_order() {
        let p = two_device();
        assert_eq!(p.device(DeviceId(0)).unwrap().name(), "cpu0");
        assert_eq!(p.device(DeviceId(1)).unwrap().name(), "gpu0");
        assert_eq!(p.device(DeviceId(1)).unwrap().id(), DeviceId(1));
        assert!(matches!(
            p.device(DeviceId(9)),
            Err(PlatformError::UnknownDevice(9))
        ));
    }

    #[test]
    fn lookup_by_name_and_kind() {
        let p = two_device();
        assert!(p.device_by_name("gpu0").is_some());
        assert!(p.device_by_name("nope").is_none());
        assert_eq!(p.devices_of_kind(DeviceKind::Gpu).count(), 1);
        assert_eq!(p.devices_of_kind(DeviceKind::Fpga).count(), 0);
        let census = p.kind_census();
        assert_eq!(census[&DeviceKind::Cpu], 1);
    }

    #[test]
    fn empty_platform_rejected() {
        assert!(matches!(
            PlatformBuilder::new("e").build(),
            Err(PlatformError::Empty)
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = PlatformBuilder::new("d");
        b.add_device(DeviceBuilder::new("x", DeviceKind::Cpu).build().unwrap());
        b.add_device(DeviceBuilder::new("x", DeviceKind::Gpu).build().unwrap());
        assert!(matches!(
            b.build(),
            Err(PlatformError::DuplicateName(n)) if n == "x"
        ));
    }

    #[test]
    fn mean_execution_time_averages() {
        let p = two_device();
        let cost = ComputeCost::new(450.0, 0.0, KernelClass::DenseLinearAlgebra);
        let nominal = |d| {
            let d = p.device(DeviceId(d)).unwrap();
            d.execution_time(&cost, d.nominal_level()).unwrap()
        };
        let (t_cpu, t_gpu) = (nominal(0), nominal(1));
        let mean = p.mean_execution_time(&cost).unwrap();
        let expect = (t_cpu.as_secs() + t_gpu.as_secs()) / 2.0;
        assert!((mean.as_secs() - expect).abs() < 1e-12);
    }

    #[test]
    fn mean_transfer_time_symmetric_bus() {
        let p = two_device();
        let one = p.transfer_time(1e9, DeviceId(0), DeviceId(1)).unwrap();
        let mean = p.mean_transfer_time(1e9).unwrap();
        assert_eq!(one, mean);

        let mut single = PlatformBuilder::new("s");
        single.add_device(DeviceBuilder::new("c", DeviceKind::Cpu).build().unwrap());
        let single = single.build().unwrap();
        assert_eq!(single.mean_transfer_time(1e9).unwrap(), SimDuration::ZERO);
    }

    /// Three devices with routes 0→1 (one real link) and 1→0 (a dangling
    /// link id) only, and no default link.
    fn partly_routed() -> Platform {
        use crate::interconnect::{InterconnectBuilder, Link, LinkId};
        let mut b = PlatformBuilder::new("partly-routed");
        for name in ["cpu0", "gpu0", "gpu1"] {
            b.add_device(DeviceBuilder::new(name, DeviceKind::Gpu).build().unwrap());
        }
        let mut ic = InterconnectBuilder::new();
        let l = ic.add_link(Link::new("l", 8.0, SimDuration::from_secs(2e-6)).unwrap());
        ic.route(DeviceId(0), DeviceId(1), vec![l]);
        ic.route(DeviceId(1), DeviceId(0), vec![LinkId(9)]);
        b.interconnect(ic.build());
        b.build().unwrap()
    }

    #[test]
    fn transfer_table_is_bit_equal_to_uncached_means() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut bytes = vec![0.0, 1.0, 1e3, 1e12];
        bytes.extend((0..200).map(|_| 10f64.powf(rng.gen_range(0.0..12.0))));
        let mut platforms = crate::presets::all();
        platforms.push(crate::presets::hpc_node_with_gpus(3));
        platforms.push(crate::presets::heterogeneous_node(6, 0.5, 3));
        for p in &platforms {
            let means = p.mean_transfer_times(&bytes).unwrap();
            assert_eq!(means.len(), bytes.len());
            for (&b, got) in bytes.iter().zip(&means) {
                let want = p.mean_transfer_time(b).unwrap();
                assert_eq!(
                    got.as_secs().to_bits(),
                    want.as_secs().to_bits(),
                    "{}: {b} bytes",
                    p.name()
                );
            }
            // Per pair too, including ids past the table, which replay
            // the interconnect call.
            let table = p.transfer_table();
            let n = p.num_devices() + 1;
            for (from, to) in (0..n).flat_map(|f| (0..n).map(move |t| (DeviceId(f), DeviceId(t)))) {
                for &b in &bytes[..8] {
                    assert_eq!(
                        table
                            .transfer_time(b, from, to)
                            .map(|t| t.as_secs().to_bits()),
                        p.transfer_time(b, from, to).map(|t| t.as_secs().to_bits()),
                        "{}: {from}→{to}, {b} bytes",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn transfer_table_edge_cases_match_uncached() {
        let mut single = PlatformBuilder::new("s");
        single.add_device(DeviceBuilder::new("c", DeviceKind::Cpu).build().unwrap());
        let single = single.build().unwrap();
        assert_eq!(
            single.mean_transfer_times(&[0.0, 1e9]).unwrap(),
            vec![SimDuration::ZERO; 2]
        );

        let p = partly_routed();
        let err = p.mean_transfer_time(1e6).unwrap_err();
        assert_eq!(p.mean_transfer_times(&[1e6]).unwrap_err(), err);
        // The first failing pair in (from, to) order names the error.
        assert_eq!(err, PlatformError::NoRoute { from: 0, to: 2 });
        let table = p.transfer_table();
        for (from, to) in [(1, 0), (0, 2), (2, 1)] {
            let (from, to) = (DeviceId(from), DeviceId(to));
            assert_eq!(
                table.transfer_time(1e6, from, to).unwrap_err(),
                p.transfer_time(1e6, from, to).unwrap_err()
            );
        }
        assert_eq!(
            table.transfer_time(1e6, DeviceId(0), DeviceId(1)),
            p.transfer_time(1e6, DeviceId(0), DeviceId(1))
        );
        // Routes are only walked for sizes actually asked about.
        assert_eq!(p.mean_transfer_times(&[]).unwrap(), Vec::new());
    }

    #[test]
    fn with_interconnect_swaps_topology() {
        let p = two_device();
        let slow = Interconnect::shared_bus(1.0, SimDuration::ZERO).unwrap();
        let p2 = p.with_interconnect(slow);
        let t1 = p.transfer_time(8e9, DeviceId(0), DeviceId(1)).unwrap();
        let t2 = p2.transfer_time(8e9, DeviceId(0), DeviceId(1)).unwrap();
        assert!(t2 > t1);
        assert_eq!(p2.name(), p.name());
    }

    #[test]
    fn survivors_reindexes_and_keeps_routes() {
        let mut b = PlatformBuilder::new("tri");
        b.add_device(DeviceBuilder::new("cpu0", DeviceKind::Cpu).build().unwrap());
        b.add_device(DeviceBuilder::new("gpu0", DeviceKind::Gpu).build().unwrap());
        b.add_device(DeviceBuilder::new("gpu1", DeviceKind::Gpu).build().unwrap());
        let p = b.build().unwrap();

        let sub = p.survivors(&[DeviceId(0), DeviceId(2)]).unwrap();
        assert_eq!(sub.num_devices(), 2);
        assert_eq!(sub.device(DeviceId(0)).unwrap().name(), "cpu0");
        assert_eq!(sub.device(DeviceId(1)).unwrap().name(), "gpu1");
        assert_eq!(sub.device(DeviceId(1)).unwrap().id(), DeviceId(1));
        // The shared-bus default route must survive re-indexing, with the
        // same transfer time the pair had on the full platform.
        let full = p.transfer_time(1e9, DeviceId(0), DeviceId(2)).unwrap();
        let kept = sub.transfer_time(1e9, DeviceId(0), DeviceId(1)).unwrap();
        assert_eq!(full, kept);

        assert!(matches!(p.survivors(&[]), Err(PlatformError::Empty)));
        assert!(matches!(
            p.survivors(&[DeviceId(7)]),
            Err(PlatformError::UnknownDevice(7))
        ));
    }

    #[test]
    fn display_shows_census() {
        let p = two_device();
        let s = p.to_string();
        assert!(s.contains("1×cpu") && s.contains("1×gpu"), "{s}");
    }
}
