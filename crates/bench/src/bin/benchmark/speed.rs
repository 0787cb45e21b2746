//! The host's speed, measured between operations, and timings scaled
//! to a host of fixed speed.
//!
//! The benchmark shares a host whose CPU speed drifts by up to 2x over
//! minutes: when other tenants load the machine, every instruction
//! takes longer. Its disk has slow episodes of half a minute of its
//! own, in which an fsync takes up to twice as long. Runs compared across
//! commits are minutes or hours apart, so raw wall time measures the
//! neighbours as much as the program. Fixed kernels of the benchmark's
//! own, timed right before and right after each call, slow by the same
//! factor (the CPU kernel's time tracks a `paper_grid` pass with
//! correlation 0.97 on a 2-core Xeon VM). Dividing by them leaves the
//! program's share.

use std::fs::OpenOptions;
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Each kernel's time on the nominal host, in seconds. Every scaled
/// time reads as if the kernels had taken this long around it; it is
/// about their time on a 2-core Xeon VM.
pub const NOMINAL_S: f64 = 2.0e-3;

/// Elements the CPU kernel sorts and searches.
const CPU_KERNEL_LEN: u64 = 40_000;

/// Bytes of the disk kernel's header record, and of the attempt and
/// cell records it then appends in turn: about a journal's sizes.
const DISK_KERNEL_HEADER: usize = 40;
const DISK_KERNEL_RECORDS: [usize; 2] = [30, 640];

/// Attempt-and-cell record pairs the disk kernel appends.
const DISK_KERNEL_PAIRS: u8 = 10;

/// The resources a timed call spends its time on, and so the kernels
/// that scale it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uses {
    Cpu,
    /// The call also makes writes durable with fsync. Its reference is
    /// the mean of both kernels: about half of a journaled shard job's
    /// time is journal appends.
    CpuAndDisk,
}

/// Times calls together with the kernels around them.
#[derive(Debug)]
pub struct Speed {
    /// The file the disk kernel rewrites.
    probe: PathBuf,
    /// The CPU kernel's time right after the previous call.
    last_cpu_s: Option<f64>,
    /// The disk kernel's time right after the previous call, if that
    /// call used the disk.
    last_disk_s: Option<f64>,
    cpu_s: Vec<f64>,
    disk_s: Vec<f64>,
}

impl Speed {
    /// The disk kernel writes `probe`, which should sit on the disk the
    /// workload writes to.
    pub fn new(probe: PathBuf) -> Speed {
        Speed {
            probe,
            last_cpu_s: None,
            last_disk_s: None,
            cpu_s: Vec::new(),
            disk_s: Vec::new(),
        }
    }

    /// Runs `f` between two runs of the kernels for `uses`. Returns its
    /// output, its wall time and that time scaled to the nominal host,
    /// in seconds.
    pub fn time<T>(&mut self, uses: Uses, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let cpu_before = match self.last_cpu_s {
            Some(s) => s,
            None => self.cpu_kernel(),
        };
        let disk_before = match (uses, self.last_disk_s) {
            (Uses::Cpu, _) => None,
            (Uses::CpuAndDisk, Some(s)) => Some(s),
            (Uses::CpuAndDisk, None) => Some(self.disk_kernel()),
        };
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed().as_secs_f64();
        let cpu_after = self.cpu_kernel();
        let (before, after) = match disk_before {
            Some(disk_before) => {
                let disk_after = self.disk_kernel();
                self.last_disk_s = Some(disk_after);
                (
                    (cpu_before + disk_before) / 2.0,
                    (cpu_after + disk_after) / 2.0,
                )
            }
            None => {
                self.last_disk_s = None;
                (cpu_before, cpu_after)
            }
        };
        (out, wall, scale(wall, before, after))
    }

    /// The host's speed over the run relative to the nominal host, for
    /// the CPU and, if any call used it, the disk: the nominal kernel
    /// time over the median measured one.
    ///
    /// # Panics
    ///
    /// Before the first timed call.
    pub fn factors(&self) -> (f64, Option<f64>) {
        let factor = |s: &[f64]| NOMINAL_S / crate::stats::median(s);
        let disk = (!self.disk_s.is_empty()).then(|| factor(&self.disk_s));
        (factor(&self.cpu_s), disk)
    }

    /// Times one run of the CPU kernel: sort pseudo-random keys, then
    /// look keys up by binary search. It allocates, branches and walks
    /// memory, like the program's own hot loops.
    fn cpu_kernel(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x1234;
        let mut keys: Vec<u64> = (0..CPU_KERNEL_LEN)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z ^ (z >> 27)
            })
            .collect();
        keys.sort_unstable();
        let hits = (0..CPU_KERNEL_LEN)
            .filter(|i| {
                keys.binary_search(&i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    .is_ok()
            })
            .count();
        black_box(hits);
        let secs = start.elapsed().as_secs_f64();
        self.last_cpu_s = Some(secs);
        self.cpu_s.push(secs);
        secs
    }

    /// Times one run of the disk kernel: empty the probe file, then
    /// write a header and append records to it, each made durable
    /// before the next, as a shard job writes its journal.
    ///
    /// # Panics
    ///
    /// If the probe file cannot be written: the workload could not
    /// write its own files on that disk either.
    fn disk_kernel(&mut self) -> f64 {
        let start = Instant::now();
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&self.probe)
            .expect("the disk kernel creates its probe file");
        let mut append = |len: usize, byte: u8| {
            file.write_all(&[byte; DISK_KERNEL_RECORDS[1]][..len])
                .and_then(|()| file.sync_data())
                .expect("the disk kernel appends to its probe file");
        };
        append(DISK_KERNEL_HEADER, 0);
        for i in 0..DISK_KERNEL_PAIRS {
            for len in DISK_KERNEL_RECORDS {
                append(len, i);
            }
        }
        drop(file);
        let secs = start.elapsed().as_secs_f64();
        self.disk_s.push(secs);
        secs
    }
}

/// `wall` seconds scaled to the nominal host, given the reference
/// kernels' time just before and just after them.
#[must_use]
pub fn scale(wall: f64, before: f64, after: f64) -> f64 {
    wall * NOMINAL_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_bracketing_kernel_times() {
        // A host at half the nominal speed doubles the kernels' time.
        assert_eq!(scale(0.5, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.25);
        assert_eq!(scale(0.5, NOMINAL_S, NOMINAL_S), 0.5);
        assert_eq!(scale(0.3, 0.5 * NOMINAL_S, 1.5 * NOMINAL_S), 0.3);
    }

    #[test]
    fn calls_are_bracketed_by_the_kernels_they_use() {
        let dir = std::env::temp_dir().join(format!("helios-speed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut speed = Speed::new(dir.join("probe"));
        let (out, wall, scaled) = speed.time(Uses::Cpu, || 7);
        assert_eq!(out, 7);
        assert!(wall >= 0.0 && scaled >= 0.0);
        assert_eq!((speed.cpu_s.len(), speed.disk_s.len()), (2, 0));
        speed.time(Uses::Cpu, || ());
        assert_eq!(
            speed.cpu_s.len(),
            3,
            "the previous call's last run is reused"
        );
        speed.time(Uses::CpuAndDisk, || ());
        assert_eq!((speed.cpu_s.len(), speed.disk_s.len()), (4, 2));
        speed.time(Uses::CpuAndDisk, || ());
        assert_eq!(speed.disk_s.len(), 3, "the previous disk run is reused");
        speed.time(Uses::Cpu, || ());
        speed.time(Uses::CpuAndDisk, || ());
        assert_eq!(
            speed.disk_s.len(),
            5,
            "a CPU-only call leaves no disk run to reuse"
        );
        let (cpu, disk) = speed.factors();
        assert!(cpu > 0.0 && disk.is_some_and(|d| d > 0.0));
        std::fs::remove_dir_all(&dir).expect("temp dir removed");
    }
}
