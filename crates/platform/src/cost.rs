//! Task compute costs and kernel classes.
//!
//! The orchestrator never executes real kernels; a task is characterized by
//! *how much* work it does ([`ComputeCost`]) and *what kind* of work it is
//! ([`KernelClass`]). Devices translate a cost into an execution time using
//! their class-specific affinity — e.g. an ML ASIC runs dense linear algebra
//! near its peak but executes branchy scalar code very poorly.

use serde::{Deserialize, Serialize};

use crate::error::{non_negative, PlatformError};

/// The computational character of a task's dominant kernel.
///
/// Classes follow the Berkeley "dwarfs" taxonomy, reduced to the categories
/// that discriminate between heterogeneous device types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum KernelClass {
    /// Dense matrix/tensor operations (BLAS-3, convolutions).
    DenseLinearAlgebra,
    /// Sparse matrix operations (SpMV, graph kernels).
    SparseLinearAlgebra,
    /// Fast Fourier transforms and other spectral methods.
    Fft,
    /// Structured-grid stencils (finite difference/volume).
    Stencil,
    /// Particle–particle interaction (N-body, molecular dynamics).
    NBody,
    /// Reductions, scans, histogramming.
    Reduction,
    /// Irregular, branch-heavy scalar code (parsers, tree search).
    BranchyScalar,
    /// Signal processing pipelines (filters, codecs).
    SignalProcessing,
    /// I/O- or data-movement-dominated stages (staging, archiving).
    DataMovement,
}

impl KernelClass {
    /// All kernel classes, for exhaustive iteration in tables and tests.
    pub const ALL: [KernelClass; 9] = [
        KernelClass::DenseLinearAlgebra,
        KernelClass::SparseLinearAlgebra,
        KernelClass::Fft,
        KernelClass::Stencil,
        KernelClass::NBody,
        KernelClass::Reduction,
        KernelClass::BranchyScalar,
        KernelClass::SignalProcessing,
        KernelClass::DataMovement,
    ];

    /// A short stable identifier used in reports and serialized files.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            KernelClass::DenseLinearAlgebra => "dense-la",
            KernelClass::SparseLinearAlgebra => "sparse-la",
            KernelClass::Fft => "fft",
            KernelClass::Stencil => "stencil",
            KernelClass::NBody => "nbody",
            KernelClass::Reduction => "reduction",
            KernelClass::BranchyScalar => "branchy",
            KernelClass::SignalProcessing => "dsp",
            KernelClass::DataMovement => "io",
        }
    }
}

impl std::fmt::Display for KernelClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The work performed by one task, independent of any device.
///
/// # Examples
///
/// ```
/// use helios_platform::{ComputeCost, KernelClass};
///
/// let c = ComputeCost::new(120.0, 4e9, KernelClass::Fft);
/// assert_eq!(c.gflop(), 120.0);
/// assert_eq!(c.kernel_class(), KernelClass::Fft);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeCost {
    gflop: f64,
    bytes_touched: f64,
    kernel_class: KernelClass,
}

impl ComputeCost {
    /// Creates a cost of `gflop` billion floating-point operations touching
    /// `bytes_touched` bytes of memory, dominated by `kernel_class`.
    ///
    /// # Panics
    ///
    /// Panics if `gflop` or `bytes_touched` is negative or not finite. Use
    /// [`ComputeCost::try_new`] for fallible construction.
    #[must_use]
    pub fn new(gflop: f64, bytes_touched: f64, kernel_class: KernelClass) -> ComputeCost {
        match Self::try_new(gflop, bytes_touched, kernel_class) {
            Ok(c) => c,
            Err(e) => panic!("invalid ComputeCost: {e}"),
        }
    }

    /// Fallible version of [`ComputeCost::new`].
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] if either magnitude is
    /// negative or not finite.
    pub fn try_new(
        gflop: f64,
        bytes_touched: f64,
        kernel_class: KernelClass,
    ) -> Result<ComputeCost, PlatformError> {
        Ok(ComputeCost {
            gflop: non_negative("gflop", gflop)?,
            bytes_touched: non_negative("bytes_touched", bytes_touched)?,
            kernel_class,
        })
    }

    /// Billions of floating-point operations.
    #[must_use]
    pub fn gflop(&self) -> f64 {
        self.gflop
    }

    /// Bytes of memory traffic generated by the task.
    #[must_use]
    pub fn bytes_touched(&self) -> f64 {
        self.bytes_touched
    }

    /// Dominant kernel class.
    #[must_use]
    pub fn kernel_class(&self) -> KernelClass {
        self.kernel_class
    }

    /// Returns this cost scaled by `factor` (work and traffic together).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> ComputeCost {
        ComputeCost::new(
            self.gflop * factor,
            self.bytes_touched * factor,
            self.kernel_class,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(ComputeCost::try_new(-1.0, 0.0, KernelClass::Fft).is_err());
        assert!(ComputeCost::try_new(1.0, f64::NAN, KernelClass::Fft).is_err());
        assert!(ComputeCost::try_new(0.0, 0.0, KernelClass::Fft).is_ok());
    }

    #[test]
    fn scaling() {
        let c = ComputeCost::new(2.0, 10.0, KernelClass::NBody).scaled(3.0);
        assert_eq!(c.gflop(), 6.0);
        assert_eq!(c.bytes_touched(), 30.0);
    }

    #[test]
    fn class_names_unique_and_stable() {
        let mut names: Vec<_> = KernelClass::ALL.iter().map(|k| k.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KernelClass::ALL.len());
        assert_eq!(KernelClass::Fft.to_string(), "fft");
    }
}
