//! The eight evaluation kernels with their inputs drawn from the
//! benchmark seed.
//!
//! Each kernel's public `seed` field picks its input data; seed 0 keeps
//! every kernel's stock seed, so the default benchmark run simulates
//! exactly the inputs the paper figures use. Sizes mirror
//! [`aladdin_workloads::evaluation_kernels`] (default scale) and
//! [`aladdin_workloads::paper_scale_kernels`] (MachSuite's published
//! sizes); a test pins both correspondences.

use aladdin_workloads::{
    Aes, FftTranspose, GemmNCubed, Kernel, MdKnn, NeedlemanWunsch, SpmvCrs, Stencil2d, Stencil3d,
};

/// Problem sizes to build the kernels at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The scaled-down sizes every figure sweeps.
    Default,
    /// MachSuite's published sizes.
    Paper,
}

/// A kernel's input seed under benchmark seed `seed`.
fn input_seed(stock: u64, seed: u64) -> u64 {
    stock ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The evaluation kernels, in the paper's order, with seed-chosen inputs.
#[must_use]
pub fn evaluation_kernels(seed: u64, scale: Scale) -> Vec<Box<dyn Kernel>> {
    let s = |k: u64| input_seed(k, seed);
    let paper = scale == Scale::Paper;
    vec![
        Box::new(Aes {
            blocks: 1,
            seed: s(37),
        }),
        Box::new(NeedlemanWunsch {
            seq_len: if paper { 128 } else { 64 },
            seed: s(31),
        }),
        Box::new(GemmNCubed {
            n: if paper { 64 } else { 32 },
            seed: s(7),
        }),
        Box::new(Stencil2d {
            rows: 64,
            cols: if paper { 128 } else { 64 },
            seed: s(11),
        }),
        Box::new(if paper {
            Stencil3d {
                height: 32,
                rows: 32,
                cols: 16,
                seed: s(13),
            }
        } else {
            Stencil3d {
                height: 16,
                rows: 16,
                cols: 16,
                seed: s(13),
            }
        }),
        Box::new(MdKnn {
            atoms: if paper { 256 } else { 64 },
            neighbors: 16,
            seed: s(17),
        }),
        Box::new(if paper {
            SpmvCrs {
                n: 494,
                nnz_per_row: 4,
                seed: s(23),
            }
        } else {
            SpmvCrs {
                n: 128,
                nnz_per_row: 10,
                seed: s(23),
            }
        }),
        Box::new(FftTranspose {
            units: 64,
            seed: s(29),
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprints(kernels: &[Box<dyn Kernel>]) -> Vec<(&'static str, u128)> {
        kernels
            .iter()
            .map(|k| (k.name(), k.run().trace.fingerprint()))
            .collect()
    }

    #[test]
    fn seed_zero_is_the_stock_kernel_set_at_both_scales() {
        assert_eq!(
            fingerprints(&evaluation_kernels(0, Scale::Default)),
            fingerprints(&aladdin_workloads::evaluation_kernels())
        );
        assert_eq!(
            fingerprints(&evaluation_kernels(0, Scale::Paper)),
            fingerprints(&aladdin_workloads::paper_scale_kernels())
        );
    }

    #[test]
    fn another_seed_changes_data_dependent_traces() {
        let stock = fingerprints(&evaluation_kernels(0, Scale::Default));
        let other = fingerprints(&evaluation_kernels(7, Scale::Default));
        assert_ne!(stock, other);
    }
}
