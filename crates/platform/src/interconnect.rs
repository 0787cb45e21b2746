//! Interconnect topology and data-transfer cost model.
//!
//! Devices exchange data products over named [`Link`]s (PCIe, NVLink,
//! network fabric, on-chip bus). A [`Route`] is the ordered list of links a
//! transfer crosses; its cost is the sum of link latencies plus the payload
//! size divided by the bottleneck (minimum) bandwidth — the standard
//! wormhole/cut-through approximation used by workflow simulators.
//!
//! Transfers between a device and itself are free: the data product is
//! already resident.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use helios_sim::SimDuration;

use crate::device::DeviceId;
use crate::error::{positive, PlatformError};

/// Index of a link within an [`Interconnect`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct LinkId(pub usize);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// A physical communication link.
///
/// # Examples
///
/// ```
/// use helios_platform::Link;
/// use helios_sim::SimDuration;
///
/// let pcie = Link::new("pcie4-x16", 32.0, SimDuration::from_secs(5e-6))?;
/// assert_eq!(pcie.bandwidth_gbs(), 32.0);
/// # Ok::<(), helios_platform::PlatformError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    name: String,
    bandwidth_gbs: f64,
    latency: SimDuration,
}

impl Link {
    /// Creates a link with `bandwidth_gbs` GB/s and one-way `latency`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] if the bandwidth is not
    /// positive and finite.
    pub fn new(
        name: impl Into<String>,
        bandwidth_gbs: f64,
        latency: SimDuration,
    ) -> Result<Link, PlatformError> {
        Ok(Link {
            name: name.into(),
            bandwidth_gbs: positive("bandwidth_gbs", bandwidth_gbs)?,
            latency,
        })
    }

    /// The link's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bandwidth in GB/s.
    #[must_use]
    pub fn bandwidth_gbs(&self) -> f64 {
        self.bandwidth_gbs
    }

    /// One-way latency.
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        self.latency
    }
}

/// An ordered sequence of links a transfer traverses.
pub type Route = Vec<LinkId>;

/// The complete communication topology of a platform.
///
/// Build with [`InterconnectBuilder`]. Pairs without an explicit route fall
/// back to the builder's default link, if one was set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Interconnect {
    links: Vec<Link>,
    #[serde(with = "route_map")]
    routes: BTreeMap<(usize, usize), Route>,
    default_link: Option<LinkId>,
}

/// Serde adapter: JSON object keys must be strings, so the route table
/// is flattened to a list of `(from, to, route)` entries on disk.
mod route_map {
    use std::collections::BTreeMap;

    use serde::de::Deserializer;
    use serde::ser::Serializer;
    use serde::{Deserialize, Serialize};

    use super::Route;

    pub fn serialize<S: Serializer>(
        map: &BTreeMap<(usize, usize), Route>,
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        let entries: Vec<(usize, usize, &Route)> =
            map.iter().map(|(&(a, b), r)| (a, b, r)).collect();
        entries.serialize(serializer)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        deserializer: D,
    ) -> Result<BTreeMap<(usize, usize), Route>, D::Error> {
        let entries: Vec<(usize, usize, Route)> = Vec::deserialize(deserializer)?;
        Ok(entries.into_iter().map(|(a, b, r)| ((a, b), r)).collect())
    }
}

impl Interconnect {
    /// An interconnect with a single shared link used for every pair.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] for an invalid bandwidth.
    pub fn shared_bus(
        bandwidth_gbs: f64,
        latency: SimDuration,
    ) -> Result<Interconnect, PlatformError> {
        let mut b = InterconnectBuilder::new();
        let bus = b.add_link(Link::new("bus", bandwidth_gbs, latency)?);
        b.default_link(bus);
        Ok(b.build())
    }

    /// All links.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Looks up a link by id.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownLink`] for an out-of-range id.
    pub fn link(&self, id: LinkId) -> Result<&Link, PlatformError> {
        self.links.get(id.0).ok_or(PlatformError::UnknownLink(id.0))
    }

    /// Looks up every link carrying `name` (preset link names may be
    /// shared, e.g. one PCIe link per cluster node), in id order.
    #[must_use]
    pub fn links_by_name(&self, name: &str) -> Vec<LinkId> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.name == name)
            .map(|(i, _)| LinkId(i))
            .collect()
    }

    /// The fallback link used for pairs without an explicit route, if
    /// one was configured.
    #[must_use]
    pub fn default_link(&self) -> Option<LinkId> {
        self.default_link
    }

    /// The route a transfer from `from` to `to` takes. Same-device routes
    /// are empty.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoRoute`] if the pair has no explicit route
    /// and no default link was configured, and
    /// [`PlatformError::UnknownLink`] if the stored route references a
    /// link id that does not exist (a malformed topology would otherwise
    /// surface as NaN transfer times or an out-of-bounds panic much
    /// later, inside the engine's contention bookkeeping).
    pub fn route(&self, from: DeviceId, to: DeviceId) -> Result<Route, PlatformError> {
        self.route_links(from, to).map(<[LinkId]>::to_vec)
    }

    /// [`Interconnect::route`] borrowed from the topology instead of
    /// cloned, with the same errors.
    fn route_links(&self, from: DeviceId, to: DeviceId) -> Result<&[LinkId], PlatformError> {
        if from == to {
            return Ok(&[]);
        }
        if let Some(route) = self.routes.get(&(from.0, to.0)) {
            for &id in route {
                if id.0 >= self.links.len() {
                    return Err(PlatformError::UnknownLink(id.0));
                }
            }
            return Ok(route);
        }
        match &self.default_link {
            Some(link) => {
                if link.0 >= self.links.len() {
                    return Err(PlatformError::UnknownLink(link.0));
                }
                Ok(std::slice::from_ref(link))
            }
            None => Err(PlatformError::NoRoute {
                from: from.0,
                to: to.0,
            }),
        }
    }

    /// The bottleneck bandwidth (GB/s) between two devices, or `None` for
    /// same-device transfers (infinite).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoRoute`] if no route exists.
    pub fn bottleneck_bandwidth_gbs(
        &self,
        from: DeviceId,
        to: DeviceId,
    ) -> Result<Option<f64>, PlatformError> {
        let route = self.route(from, to)?;
        let mut min_bw: Option<f64> = None;
        for id in route {
            let bw = self.link(id)?.bandwidth_gbs();
            min_bw = Some(min_bw.map_or(bw, |m: f64| m.min(bw)));
        }
        Ok(min_bw)
    }

    /// Time to move `bytes` from `from` to `to`: route latencies plus
    /// `bytes / bottleneck_bandwidth`. Zero for same-device transfers.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::NoRoute`] if no route exists.
    pub fn transfer_time(
        &self,
        bytes: f64,
        from: DeviceId,
        to: DeviceId,
    ) -> Result<SimDuration, PlatformError> {
        Ok(self.pair_cost(from, to)?.time(bytes))
    }

    /// The size-independent terms of a transfer from `from` to `to`: the
    /// route's summed link latency and its bottleneck bandwidth in
    /// bytes/s. [`Interconnect::transfer_time`] and [`TransferTable`]
    /// both finish from these, so the cached and uncached times are the
    /// same f64 operations in the same order.
    fn pair_cost(&self, from: DeviceId, to: DeviceId) -> Result<PairCost, PlatformError> {
        let route = self.route_links(from, to)?;
        if route.is_empty() {
            return Ok(PairCost::Free);
        }
        let mut latency = SimDuration::ZERO;
        let mut min_bw = f64::INFINITY;
        for &id in route {
            let link = self.link(id)?;
            latency += link.latency();
            min_bw = min_bw.min(link.bandwidth_gbs());
        }
        Ok(PairCost::Link {
            latency,
            denom: min_bw * 1e9,
        })
    }

    /// Returns a copy with every link's bandwidth multiplied by `factor`
    /// (used by the bandwidth-sensitivity experiment).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] if `factor` is not
    /// positive and finite, and [`PlatformError::UnknownLink`] if any
    /// stored route references a link that does not exist (scaling would
    /// otherwise bake the dangling reference into a fresh topology).
    pub fn scaled_bandwidth(&self, factor: f64) -> Result<Interconnect, PlatformError> {
        positive("bandwidth scale factor", factor)?;
        for route in self.routes.values() {
            for &id in route {
                if id.0 >= self.links.len() {
                    return Err(PlatformError::UnknownLink(id.0));
                }
            }
        }
        let links = self
            .links
            .iter()
            .map(|l| Link::new(l.name.clone(), l.bandwidth_gbs * factor, l.latency))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Interconnect {
            links,
            routes: self.routes.clone(),
            default_link: self.default_link,
        })
    }
}

/// The size-independent terms of one device pair's transfer.
#[derive(Debug, Clone, Copy)]
enum PairCost {
    /// Empty route (same device): transfers are free at any size.
    Free,
    /// Routed pair: summed latency and bottleneck bandwidth in bytes/s.
    Link { latency: SimDuration, denom: f64 },
}

impl PairCost {
    fn time(self, bytes: f64) -> SimDuration {
        match self {
            PairCost::Free => SimDuration::ZERO,
            PairCost::Link { latency, denom } => latency + SimDuration::from_secs(bytes / denom),
        }
    }
}

/// Every ordered device pair's transfer terms, computed once from the
/// interconnect so hot loops (EFT probes, mean edge costs) never re-walk
/// routes or links. Build it with
/// [`Platform::transfer_table`](crate::Platform::transfer_table).
///
/// Times are bit-identical to [`Interconnect::transfer_time`]. A pair
/// whose route fails (no route, dangling link), or that lies outside
/// the table, replays the interconnect call, so the caller sees the
/// identical error, and only when it asks for that pair.
#[derive(Debug, Clone)]
pub struct TransferTable<'a> {
    interconnect: &'a Interconnect,
    devices: usize,
    /// `pairs[from * devices + to]`; `None` replays the interconnect call.
    pairs: Vec<Option<PairCost>>,
}

impl<'a> TransferTable<'a> {
    pub(crate) fn new(interconnect: &'a Interconnect, devices: usize) -> TransferTable<'a> {
        let mut pairs = Vec::with_capacity(devices * devices);
        for from in 0..devices {
            for to in 0..devices {
                pairs.push(interconnect.pair_cost(DeviceId(from), DeviceId(to)).ok());
            }
        }
        TransferTable {
            interconnect,
            devices,
            pairs,
        }
    }

    /// Time to move `bytes` from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Same as [`Interconnect::transfer_time`].
    pub fn transfer_time(
        &self,
        bytes: f64,
        from: DeviceId,
        to: DeviceId,
    ) -> Result<SimDuration, PlatformError> {
        let cached = if from.0 < self.devices && to.0 < self.devices {
            self.pairs[from.0 * self.devices + to.0]
        } else {
            None
        };
        match cached {
            Some(cost) => Ok(cost.time(bytes)),
            None => self.interconnect.transfer_time(bytes, from, to),
        }
    }

    /// Mean transfer time for `bytes` over all ordered pairs of distinct
    /// devices, bit-identical to
    /// [`Platform::mean_transfer_time`](crate::Platform::mean_transfer_time).
    ///
    /// # Errors
    ///
    /// Returns the first pair's routing error, in (from, to) order.
    pub fn mean_transfer_time(&self, bytes: f64) -> Result<SimDuration, PlatformError> {
        mean_over_pairs(self.devices, |from, to| self.transfer_time(bytes, from, to))
    }
}

/// The mean of `transfer` over the ordered pairs of `devices` distinct
/// devices, summed in (from, to) order; zero below two devices.
pub(crate) fn mean_over_pairs(
    devices: usize,
    mut transfer: impl FnMut(DeviceId, DeviceId) -> Result<SimDuration, PlatformError>,
) -> Result<SimDuration, PlatformError> {
    if devices < 2 {
        return Ok(SimDuration::ZERO);
    }
    let mut total = SimDuration::ZERO;
    let mut pairs = 0u32;
    for from in 0..devices {
        for to in 0..devices {
            if from != to {
                total += transfer(DeviceId(from), DeviceId(to))?;
                pairs += 1;
            }
        }
    }
    Ok(total / f64::from(pairs))
}

/// Builder for [`Interconnect`].
///
/// # Examples
///
/// ```
/// use helios_platform::{DeviceId, InterconnectBuilder, Link};
/// use helios_sim::SimDuration;
///
/// let mut b = InterconnectBuilder::new();
/// let pcie = b.add_link(Link::new("pcie", 32.0, SimDuration::from_secs(5e-6))?);
/// b.route_symmetric(DeviceId(0), DeviceId(1), vec![pcie]);
/// let ic = b.build();
/// assert!(ic.transfer_time(1e9, DeviceId(0), DeviceId(1))?.as_secs() > 0.03);
/// # Ok::<(), helios_platform::PlatformError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct InterconnectBuilder {
    links: Vec<Link>,
    routes: BTreeMap<(usize, usize), Route>,
    default_link: Option<LinkId>,
}

impl InterconnectBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> InterconnectBuilder {
        InterconnectBuilder::default()
    }

    /// Registers a link, returning its id.
    pub fn add_link(&mut self, link: Link) -> LinkId {
        let id = LinkId(self.links.len());
        self.links.push(link);
        id
    }

    /// Sets the one-directional route from `from` to `to`.
    pub fn route(&mut self, from: DeviceId, to: DeviceId, route: Route) -> &mut Self {
        self.routes.insert((from.0, to.0), route);
        self
    }

    /// Sets the same route in both directions.
    pub fn route_symmetric(&mut self, a: DeviceId, b: DeviceId, route: Route) -> &mut Self {
        self.routes.insert((a.0, b.0), route.clone());
        self.routes.insert((b.0, a.0), route);
        self
    }

    /// Sets a fallback link used for any pair without an explicit route.
    pub fn default_link(&mut self, link: LinkId) -> &mut Self {
        self.default_link = Some(link);
        self
    }

    /// Finalizes the interconnect.
    #[must_use]
    pub fn build(self) -> Interconnect {
        Interconnect {
            links: self.links,
            routes: self.routes,
            default_link: self.default_link,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn link_validates() {
        assert!(Link::new("bad", 0.0, ms(0.0)).is_err());
        assert!(Link::new("bad", f64::NAN, ms(0.0)).is_err());
        let l = Link::new("ok", 16.0, ms(1e-6)).unwrap();
        assert_eq!(l.name(), "ok");
        assert_eq!(l.latency(), ms(1e-6));
    }

    #[test]
    fn same_device_transfer_is_free() {
        let ic = Interconnect::shared_bus(10.0, ms(1e-6)).unwrap();
        let t = ic.transfer_time(1e12, DeviceId(3), DeviceId(3)).unwrap();
        assert_eq!(t, SimDuration::ZERO);
        assert_eq!(ic.route(DeviceId(3), DeviceId(3)).unwrap(), Vec::new());
        assert_eq!(
            ic.bottleneck_bandwidth_gbs(DeviceId(1), DeviceId(1))
                .unwrap(),
            None
        );
    }

    #[test]
    fn shared_bus_costs_latency_plus_serialization() {
        let ic = Interconnect::shared_bus(10.0, ms(1e-3)).unwrap();
        // 10 GB over a 10 GB/s bus = 1 s, plus 1 ms latency.
        let t = ic.transfer_time(10e9, DeviceId(0), DeviceId(1)).unwrap();
        assert!((t.as_secs() - 1.001).abs() < 1e-12);
    }

    #[test]
    fn multi_hop_uses_bottleneck_and_sums_latency() {
        let mut b = InterconnectBuilder::new();
        let fast = b.add_link(Link::new("fast", 100.0, ms(1e-6)).unwrap());
        let slow = b.add_link(Link::new("slow", 1.0, ms(2e-6)).unwrap());
        b.route(DeviceId(0), DeviceId(1), vec![fast, slow]);
        let ic = b.build();
        let t = ic.transfer_time(1e9, DeviceId(0), DeviceId(1)).unwrap();
        // bottleneck 1 GB/s → 1 s, latencies 3 µs.
        assert!((t.as_secs() - (1.0 + 3e-6)).abs() < 1e-12);
        assert_eq!(
            ic.bottleneck_bandwidth_gbs(DeviceId(0), DeviceId(1))
                .unwrap(),
            Some(1.0)
        );
        // No reverse route and no default link.
        assert!(matches!(
            ic.transfer_time(1.0, DeviceId(1), DeviceId(0)),
            Err(PlatformError::NoRoute { from: 1, to: 0 })
        ));
    }

    #[test]
    fn symmetric_routes() {
        let mut b = InterconnectBuilder::new();
        let l = b.add_link(Link::new("l", 5.0, ms(0.0)).unwrap());
        b.route_symmetric(DeviceId(0), DeviceId(2), vec![l]);
        let ic = b.build();
        let fwd = ic.transfer_time(5e9, DeviceId(0), DeviceId(2)).unwrap();
        let rev = ic.transfer_time(5e9, DeviceId(2), DeviceId(0)).unwrap();
        assert_eq!(fwd, rev);
        assert!((fwd.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_bandwidth() {
        let ic = Interconnect::shared_bus(10.0, ms(0.0)).unwrap();
        let double = ic.scaled_bandwidth(2.0).unwrap();
        let t1 = ic.transfer_time(20e9, DeviceId(0), DeviceId(1)).unwrap();
        let t2 = double
            .transfer_time(20e9, DeviceId(0), DeviceId(1))
            .unwrap();
        assert!((t1.as_secs() / t2.as_secs() - 2.0).abs() < 1e-12);
        assert!(ic.scaled_bandwidth(0.0).is_err());
    }

    #[test]
    fn unknown_link_is_error() {
        let ic = Interconnect::shared_bus(1.0, ms(0.0)).unwrap();
        assert!(matches!(
            ic.link(LinkId(7)),
            Err(PlatformError::UnknownLink(7))
        ));
    }

    #[test]
    fn dangling_route_links_are_typed_errors() {
        let mut b = InterconnectBuilder::new();
        let l = b.add_link(Link::new("real", 8.0, ms(0.0)).unwrap());
        b.route(DeviceId(0), DeviceId(1), vec![l, LinkId(9)]);
        let ic = b.build();
        assert!(matches!(
            ic.route(DeviceId(0), DeviceId(1)),
            Err(PlatformError::UnknownLink(9))
        ));
        assert!(matches!(
            ic.transfer_time(1e9, DeviceId(0), DeviceId(1)),
            Err(PlatformError::UnknownLink(9))
        ));
        assert!(matches!(
            ic.scaled_bandwidth(2.0),
            Err(PlatformError::UnknownLink(9))
        ));
    }

    #[test]
    fn links_by_name_and_default_link() {
        let mut b = InterconnectBuilder::new();
        let a = b.add_link(Link::new("pcie", 32.0, ms(0.0)).unwrap());
        let _ = b.add_link(Link::new("eth", 12.5, ms(0.0)).unwrap());
        let c = b.add_link(Link::new("pcie", 32.0, ms(0.0)).unwrap());
        b.default_link(a);
        let ic = b.build();
        assert_eq!(ic.links_by_name("pcie"), vec![a, c]);
        assert_eq!(ic.links_by_name("missing"), Vec::<LinkId>::new());
        assert_eq!(ic.default_link(), Some(a));
    }
}
