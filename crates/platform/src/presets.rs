//! Ready-made platform configurations (evaluation Table T1).
//!
//! Four presets span the deployment spectrum the paper targets, from a
//! two-socket accelerator-dense HPC node down to an embedded SoC:
//!
//! | preset | devices | interconnect |
//! |---|---|---|
//! | [`workstation`] | 2×CPU, 1×GPU | DRAM + PCIe 3.0 |
//! | [`hpc_node`] | 2×CPU, 4×GPU, 1×FPGA, 1×ASIC | DRAM + PCIe 4.0 + NVLink |
//! | [`cluster`] | n×(CPU+GPU) nodes | PCIe intra-node, 100 GbE inter-node |
//! | [`edge_soc`] | 1×CPU, 1×DSP, 1×NPU | shared on-chip bus |
//!
//! Parameters are ballpark public-datasheet figures; scheduling results
//! depend on their *ratios*, which match real 2021-era hardware.

use helios_sim::{KnobRange, SimDuration};

use crate::cost::KernelClass;
use crate::device::{DeviceBuilder, DeviceId, DeviceKind};
use crate::interconnect::{InterconnectBuilder, Link};
use crate::platform::{Platform, PlatformBuilder};

fn us(micros: f64) -> SimDuration {
    SimDuration::from_secs(micros * 1e-6)
}

/// A developer workstation: two CPU sockets and one discrete GPU on
/// PCIe 3.0 x16 (16 GB/s).
#[must_use]
pub fn workstation() -> Platform {
    let mut b = PlatformBuilder::new("workstation");
    let cpu0 = b.add_device(
        DeviceBuilder::new("cpu0", DeviceKind::Cpu)
            .build()
            .expect("preset device parameters are valid"),
    );
    let cpu1 = b.add_device(
        DeviceBuilder::new("cpu1", DeviceKind::Cpu)
            .build()
            .expect("preset device parameters are valid"),
    );
    let gpu0 = b.add_device(
        DeviceBuilder::new("gpu0", DeviceKind::Gpu)
            .peak_gflops(7_000.0)
            .mem_bandwidth_gbs(450.0)
            .build()
            .expect("preset device parameters are valid"),
    );

    let mut ic = InterconnectBuilder::new();
    let dram = ic.add_link(Link::new("dram", 50.0, us(0.2)).expect("valid link"));
    let pcie = ic.add_link(Link::new("pcie3-x16", 16.0, us(5.0)).expect("valid link"));
    ic.route_symmetric(cpu0, cpu1, vec![dram]);
    ic.route_symmetric(cpu0, gpu0, vec![pcie]);
    ic.route_symmetric(cpu1, gpu0, vec![pcie]);
    b.interconnect(ic.build());
    b.build().expect("preset platform is valid")
}

/// An accelerator-dense HPC node: 2 CPU sockets, 4 GPUs (NVLink mesh),
/// one FPGA and one ML ASIC, all hanging off PCIe 4.0.
#[must_use]
pub fn hpc_node() -> Platform {
    hpc_node_with_gpus(4)
}

/// [`hpc_node`] with a configurable GPU count (speedup experiment F4).
/// `gpus` may be zero.
#[must_use]
pub fn hpc_node_with_gpus(gpus: usize) -> Platform {
    let mut b = PlatformBuilder::new("hpc_node");
    let mut cpus = Vec::new();
    for i in 0..2 {
        cpus.push(
            b.add_device(
                DeviceBuilder::new(format!("cpu{i}"), DeviceKind::Cpu)
                    .peak_gflops(800.0)
                    .mem_bandwidth_gbs(100.0)
                    .build()
                    .expect("preset device parameters are valid"),
            ),
        );
    }
    let mut gpu_ids = Vec::new();
    for i in 0..gpus {
        gpu_ids.push(
            b.add_device(
                DeviceBuilder::new(format!("gpu{i}"), DeviceKind::Gpu)
                    .build()
                    .expect("preset device parameters are valid"),
            ),
        );
    }
    let fpga = b.add_device(
        DeviceBuilder::new("fpga0", DeviceKind::Fpga)
            .build()
            .expect("preset device parameters are valid"),
    );
    let asic = b.add_device(
        DeviceBuilder::new("asic0", DeviceKind::Asic)
            .build()
            .expect("preset device parameters are valid"),
    );

    let mut ic = InterconnectBuilder::new();
    let dram = ic.add_link(Link::new("dram", 80.0, us(0.2)).expect("valid link"));
    let pcie = ic.add_link(Link::new("pcie4-x16", 32.0, us(5.0)).expect("valid link"));
    let nvlink = ic.add_link(Link::new("nvlink", 300.0, us(1.0)).expect("valid link"));
    ic.route_symmetric(cpus[0], cpus[1], vec![dram]);
    let accels: Vec<DeviceId> = gpu_ids.iter().copied().chain([fpga, asic]).collect();
    for &cpu in &cpus {
        for &acc in &accels {
            ic.route_symmetric(cpu, acc, vec![pcie]);
        }
    }
    // GPU↔GPU over NVLink; every other accelerator pair bounces through
    // host PCIe (two hops).
    for (i, &a) in accels.iter().enumerate() {
        for &bdev in &accels[i + 1..] {
            let both_gpu = gpu_ids.contains(&a) && gpu_ids.contains(&bdev);
            if both_gpu {
                ic.route_symmetric(a, bdev, vec![nvlink]);
            } else {
                ic.route_symmetric(a, bdev, vec![pcie, pcie]);
            }
        }
    }
    b.interconnect(ic.build());
    b.build().expect("preset platform is valid")
}

/// A small cluster of `nodes` identical CPU+GPU nodes connected by
/// 100 GbE (12.5 GB/s, 50 µs).
///
/// # Panics
///
/// Panics if `nodes` is zero.
#[must_use]
pub fn cluster(nodes: usize) -> Platform {
    assert!(nodes > 0, "cluster needs at least one node");
    let mut b = PlatformBuilder::new(format!("cluster{nodes}"));
    let mut node_devs = Vec::new();
    for n in 0..nodes {
        let cpu = b.add_device(
            DeviceBuilder::new(format!("node{n}-cpu"), DeviceKind::Cpu)
                .build()
                .expect("preset device parameters are valid"),
        );
        let gpu = b.add_device(
            DeviceBuilder::new(format!("node{n}-gpu"), DeviceKind::Gpu)
                .build()
                .expect("preset device parameters are valid"),
        );
        node_devs.push((cpu, gpu));
    }
    let mut ic = InterconnectBuilder::new();
    let pcie = ic.add_link(Link::new("pcie4-x16", 32.0, us(5.0)).expect("valid link"));
    let eth = ic.add_link(Link::new("100gbe", 12.5, us(50.0)).expect("valid link"));
    for (i, &(cpu_a, gpu_a)) in node_devs.iter().enumerate() {
        ic.route_symmetric(cpu_a, gpu_a, vec![pcie]);
        for &(cpu_b, gpu_b) in &node_devs[i + 1..] {
            ic.route_symmetric(cpu_a, cpu_b, vec![eth]);
            ic.route_symmetric(cpu_a, gpu_b, vec![eth, pcie]);
            ic.route_symmetric(gpu_a, cpu_b, vec![pcie, eth]);
            ic.route_symmetric(gpu_a, gpu_b, vec![pcie, eth, pcie]);
        }
    }
    b.interconnect(ic.build());
    b.build().expect("preset platform is valid")
}

/// An embedded discovery-instrument SoC: a small CPU, a DSP and a tiny
/// NPU on a shared 10 GB/s on-chip bus.
#[must_use]
pub fn edge_soc() -> Platform {
    let mut b = PlatformBuilder::new("edge_soc");
    let cpu = b.add_device(
        DeviceBuilder::new("cpu0", DeviceKind::Cpu)
            .peak_gflops(20.0)
            .mem_bandwidth_gbs(8.0)
            .memory_gb(4.0)
            .build()
            .expect("preset device parameters are valid"),
    );
    let dsp = b.add_device(
        DeviceBuilder::new("dsp0", DeviceKind::Dsp)
            .build()
            .expect("preset device parameters are valid"),
    );
    let npu = b.add_device(
        DeviceBuilder::new("npu0", DeviceKind::Asic)
            .peak_gflops(4_000.0)
            .mem_bandwidth_gbs(30.0)
            .memory_gb(1.0)
            // An NPU has no scalar pipeline to speak of; emulating branchy
            // control flow on it is slower than the SoC's small CPU.
            .affinity(KernelClass::BranchyScalar, 0.001)
            .build()
            .expect("preset device parameters are valid"),
    );
    let mut ic = InterconnectBuilder::new();
    let bus = ic.add_link(Link::new("soc-bus", 10.0, us(0.5)).expect("valid link"));
    ic.default_link(bus);
    let _ = (cpu, dsp, npu);
    b.interconnect(ic.build());
    b.build().expect("preset platform is valid")
}

/// A synthetic node of `devices` CPU-class devices whose peak rates are
/// drawn log-uniformly from `[500/(1+h), 500·(1+h)]` GFLOP/s — the
/// *machine heterogeneity* knob of the list-scheduling literature.
/// `h = 0` yields a homogeneous node; larger `h` widens the speed
/// spread (and with it, the gap between placement-aware schedulers and
/// naive ones). Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `devices == 0` or `h` is negative/non-finite.
#[must_use]
pub fn heterogeneous_node(devices: usize, h: f64, seed: u64) -> Platform {
    assert!(devices > 0, "need at least one device");
    assert!(h.is_finite() && h >= 0.0, "heterogeneity {h} must be >= 0");
    let mut rng = helios_sim::SimRng::seed_from(seed ^ 0x4E7E);
    let mut b = PlatformBuilder::new(format!("hetero-h{h}"));
    for i in 0..devices {
        let factor = if h == 0.0 {
            1.0
        } else {
            let lo = (1.0 / (1.0 + h)).ln();
            let hi = (1.0 + h).ln();
            rng.uniform(lo, hi).exp()
        };
        b.add_device(
            DeviceBuilder::new(format!("dev{i}"), DeviceKind::Cpu)
                .peak_gflops(500.0 * factor)
                .mem_bandwidth_gbs(80.0 * factor)
                .build()
                .expect("parameters are valid"),
        );
    }
    let mut ic = InterconnectBuilder::new();
    let bus = ic.add_link(Link::new("bus", 32.0, us(1.0)).expect("valid link"));
    ic.default_link(bus);
    b.interconnect(ic.build());
    b.build().expect("platform is valid")
}

/// All presets paired with their names, for tables and sweeps.
#[must_use]
pub fn all() -> Vec<Platform> {
    vec![workstation(), hpc_node(), cluster(16), edge_soc()]
}

/// Legal node counts `N` of a `cluster<N>` name. [`cluster`] adds four
/// routes per node pair, so the build grows with `N²`; the largest
/// cluster in use is [`all`]'s `cluster16`.
pub const CLUSTER_NODES: KnobRange<usize> = KnobRange::closed(1, 64);

/// The names [`by_name`] resolves, for refusal messages.
pub const NAMES: &str = "workstation, hpc_node, cluster<N>, edge_soc";

/// Resolves a preset by its CLI/spec-file name: `workstation`,
/// `hpc_node`, `cluster<N>` with `N` in [`CLUSTER_NODES`] (e.g.
/// `cluster4`) or `edge_soc`. Returns `None` for anything else,
/// including `cluster0` and `cluster65`.
#[must_use]
pub fn by_name(name: &str) -> Option<Platform> {
    match name {
        "workstation" => Some(workstation()),
        "hpc_node" => Some(hpc_node()),
        "edge_soc" => Some(edge_soc()),
        other => other
            .strip_prefix("cluster")
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|&nodes| CLUSTER_NODES.contains(nodes))
            .map(cluster),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ComputeCost;

    #[test]
    fn by_name_resolves_presets() {
        assert_eq!(by_name("workstation").unwrap().name(), "workstation");
        assert_eq!(by_name("hpc_node").unwrap().name(), "hpc_node");
        assert_eq!(by_name("edge_soc").unwrap().name(), "edge_soc");
        let cluster = by_name("cluster3").unwrap();
        assert_eq!(cluster.num_devices(), super::cluster(3).num_devices());
        assert!(by_name("cluster64").is_some());
        for bad in ["cluster0", "cluster65", "cluster", "clusterx", "laptop", ""] {
            assert!(by_name(bad).is_none(), "{bad:?} must not resolve");
        }
    }

    #[test]
    fn all_presets_build_and_route() {
        for p in all() {
            assert!(p.num_devices() > 0, "{}", p.name());
            // Every ordered pair must have a route.
            for a in 0..p.num_devices() {
                for b in 0..p.num_devices() {
                    let t = p
                        .transfer_time(1e6, DeviceId(a), DeviceId(b))
                        .unwrap_or_else(|e| panic!("{}: no route {a}->{b}: {e}", p.name()));
                    if a == b {
                        assert_eq!(t, SimDuration::ZERO);
                    } else {
                        assert!(t.as_secs() > 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn hpc_node_census() {
        let p = hpc_node();
        assert_eq!(p.devices_of_kind(DeviceKind::Cpu).count(), 2);
        assert_eq!(p.devices_of_kind(DeviceKind::Gpu).count(), 4);
        assert_eq!(p.devices_of_kind(DeviceKind::Fpga).count(), 1);
        assert_eq!(p.devices_of_kind(DeviceKind::Asic).count(), 1);
        assert_eq!(p.num_devices(), 8);
    }

    #[test]
    fn hpc_node_gpu_count_configurable() {
        assert_eq!(
            hpc_node_with_gpus(0)
                .devices_of_kind(DeviceKind::Gpu)
                .count(),
            0
        );
        assert_eq!(
            hpc_node_with_gpus(8)
                .devices_of_kind(DeviceKind::Gpu)
                .count(),
            8
        );
    }

    #[test]
    fn nvlink_beats_pcie_between_gpus() {
        let p = hpc_node();
        let gpu0 = p.device_by_name("gpu0").unwrap().id();
        let gpu1 = p.device_by_name("gpu1").unwrap().id();
        let fpga = p.device_by_name("fpga0").unwrap().id();
        let bytes = 1e9;
        let gg = p.transfer_time(bytes, gpu0, gpu1).unwrap();
        let gf = p.transfer_time(bytes, gpu0, fpga).unwrap();
        assert!(gg < gf, "NVLink route must beat double-PCIe route");
    }

    #[test]
    fn cluster_scales_in_devices() {
        let p = cluster(4);
        assert_eq!(p.num_devices(), 8);
        // Cross-node transfer pays the ethernet latency.
        let a = p.device_by_name("node0-cpu").unwrap().id();
        let b = p.device_by_name("node1-cpu").unwrap().id();
        let t = p.transfer_time(0.0, a, b).unwrap();
        assert!(t.as_secs() >= 49e-6);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn cluster_zero_panics() {
        let _ = cluster(0);
    }

    #[test]
    fn edge_npu_dominates_dense_but_not_branchy() {
        let p = edge_soc();
        let cpu = p.device_by_name("cpu0").unwrap();
        let npu = p.device_by_name("npu0").unwrap();
        let dense = ComputeCost::new(10.0, 0.0, KernelClass::DenseLinearAlgebra);
        let branchy = ComputeCost::new(10.0, 0.0, KernelClass::BranchyScalar);
        assert!(
            npu.execution_time(&dense, npu.nominal_level()).unwrap()
                < cpu.execution_time(&dense, cpu.nominal_level()).unwrap()
        );
        assert!(
            npu.execution_time(&branchy, npu.nominal_level()).unwrap()
                > cpu.execution_time(&branchy, cpu.nominal_level()).unwrap()
        );
    }
}

#[cfg(test)]
mod hetero_tests {
    use super::*;

    #[test]
    fn heterogeneity_knob_controls_speed_spread() {
        let homo = heterogeneous_node(8, 0.0, 1);
        let speeds: Vec<f64> = homo.devices().iter().map(|d| d.peak_gflops()).collect();
        assert!(speeds.iter().all(|&s| (s - 500.0).abs() < 1e-9));

        let hetero = heterogeneous_node(8, 7.0, 1);
        let speeds: Vec<f64> = hetero.devices().iter().map(|d| d.peak_gflops()).collect();
        let max = speeds.iter().copied().fold(0.0f64, f64::max);
        let min = speeds.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max / min > 2.0, "spread {}..{}", min, max);
        assert!(speeds
            .iter()
            .all(|&s| (500.0 / 8.0 - 1e-6..=4000.0 + 1e-6).contains(&s)));
        // Deterministic.
        let again = heterogeneous_node(8, 7.0, 1);
        assert_eq!(hetero, again);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_panics() {
        let _ = heterogeneous_node(0, 1.0, 0);
    }
}
