//! The host-speed calibration kernel.
//!
//! On the shared two-vCPU host the ledger runs on, everything slows down
//! together for minutes at a time: the same `Vm::run` takes 1.3x as long,
//! the same two-thread `execute` 1.4-1.8x, while a register-only spin loop
//! does not move. A regime outlasts a run, so no statistic of one run's
//! samples can see through it. This kernel is what the ledger measures the
//! host with instead: a small synthetic interpreter — a fixed pseudo-random
//! instruction stream over registers and hashed 4 KiB pages, the same mix
//! of dispatch, hashing and memory traffic the programs under test have —
//! that shares no code with `janus`, so no change to the product can move
//! it. Samples are taken between the repetitions. `wall_s` is the lower
//! quartile of a run's repetitions, so the host reading it is divided by is
//! the same statistic of the same run: the lower quartile of the samples
//! over [`REFERENCE_S`]. The README has the evidence.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What one sample takes on the reference box when the host is quiet: the
/// unit conversion that turns "kernel passes" back into seconds, so that
/// `wall_s` reads close to raw seconds there. It cancels in every comparison
/// of two commits on one box; on another box `wall_s` reads in the reference
/// box's seconds, and `wall_s` x `bench.host_slowdown` (both in the ledger,
/// beside the raw median and quartiles) is the raw lower quartile in that
/// box's own.
pub const REFERENCE_S: f64 = 0.0104;

/// How much slower than the reference the host ran during the run the
/// `samples` were taken in: their lower quartile over the reference.
pub fn slowdown(samples: &[f64]) -> f64 {
    crate::stats::quartiles(samples)[0] / REFERENCE_S
}

const PAGES: u64 = 1024;
const PROGRAM: usize = 512;
const STEPS: usize = 1_500_000;

pub struct Calibrator {
    pages: HashMap<u64, Box<[u8; 4096]>>,
    program: Vec<(u8, u32, u32)>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let pages = (0..PAGES).map(|p| (p, Box::new([p as u8; 4096]))).collect();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let program = (0..PROGRAM)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x % 6) as u8, (x >> 8) as u32, (x >> 40) as u32)
            })
            .collect();
        Calibrator { pages, program }
    }

    /// Wall seconds of one fixed pass of the kernel.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        black_box(self.run(black_box(STEPS)));
        start.elapsed().as_secs_f64()
    }

    fn run(&mut self, steps: usize) -> u64 {
        let mut regs = [1u64; 16];
        let mut acc = 1.0f64;
        let mut pc = 0usize;
        let span = PAGES * 4096 - 8;
        for _ in 0..steps {
            let (op, a, b) = self.program[pc];
            let (ra, rb) = ((a % 16) as usize, (b % 16) as usize);
            match op {
                0 => {
                    let addr = regs[ra].wrapping_add(u64::from(a)) % span;
                    let page = &self.pages[&(addr >> 12)];
                    let at = (addr & 4095) as usize & !7;
                    regs[rb] = u64::from_le_bytes(page[at..at + 8].try_into().expect("8 bytes"));
                }
                1 => {
                    let addr = regs[ra].wrapping_add(u64::from(b)) % span;
                    let page = self.pages.get_mut(&(addr >> 12)).expect("page is mapped");
                    let at = (addr & 4095) as usize & !7;
                    page[at..at + 8].copy_from_slice(&regs[rb].to_le_bytes());
                }
                2 => {
                    regs[ra] = regs[ra]
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(regs[rb])
                }
                3 => {
                    acc = acc * 1.000_000_1 + (regs[rb] & 0xff) as f64;
                    regs[ra] ^= acc.to_bits();
                }
                4 => {
                    if regs[ra] & 1 == 0 {
                        pc = (pc + b as usize) % PROGRAM;
                    }
                }
                _ => regs[ra] = regs[ra].rotate_left(b % 63) ^ regs[rb],
            }
            pc = (pc + 1) % PROGRAM;
        }
        regs.iter().fold(0, |a, b| a ^ b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        let (mut a, mut b) = (Calibrator::new(), Calibrator::new());
        assert_eq!(a.run(10_000), b.run(10_000));
        assert!(a.sample() > 0.0);
    }
}
