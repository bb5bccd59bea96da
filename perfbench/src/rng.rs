//! The benchmark's own seeded generator. Inputs come from here, never from
//! the library's trace or init helpers, so a change to those helpers cannot
//! move a workload.

use gpa_tensor::Matrix;

/// SplitMix64: small, fast, and good enough for workload generation.
pub struct Rng(u64);

impl Rng {
    /// A generator for an independent stream of `seed`.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }

    /// `n` stratified uniforms: one in each of the `n` equal slices of
    /// `[0, 1)`, in random order. A stratified sample keeps the spread of
    /// request lengths the same on every seed, so seed-to-seed differences
    /// in the workload stay small while every value still comes from the
    /// seed.
    pub fn stratified(&mut self, n: usize) -> Vec<f64> {
        self.permutation(n)
            .into_iter()
            .map(|slot| (slot as f64 + self.uniform()) / n as f64)
            .collect()
    }

    /// Fill `out` with standard normal values (Box–Muller).
    pub fn fill_gaussian(&mut self, out: &mut [f32]) {
        for pair in out.chunks_mut(2) {
            let u1 = self.uniform().max(f64::MIN_POSITIVE);
            let u2 = self.uniform();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            pair[0] = (r * theta.cos()) as f32;
            if let Some(second) = pair.get_mut(1) {
                *second = (r * theta.sin()) as f32;
            }
        }
    }

    /// A `rows × cols` matrix of standard normal values.
    pub fn gaussian_matrix(&mut self, rows: usize, cols: usize) -> Matrix<f32> {
        let mut data = vec![0.0f32; rows * cols];
        self.fill_gaussian(&mut data);
        Matrix::from_vec(rows, cols, data)
    }
}

/// A large standard normal matrix filled on `threads` threads, each block
/// from its own stream of `seed`, so the values do not depend on the thread
/// count.
pub fn gaussian_matrix_par(rows: usize, cols: usize, seed: u64, threads: usize) -> Matrix<f32> {
    const BLOCK: usize = 1 << 16;
    let mut data = vec![0.0f32; rows * cols];
    let blocks: Vec<(usize, &mut [f32])> = data.chunks_mut(BLOCK).enumerate().collect();
    let per = blocks.len().div_ceil(threads.max(1)).max(1);
    let mut blocks = blocks.into_iter();
    std::thread::scope(|scope| loop {
        let share: Vec<(usize, &mut [f32])> = blocks.by_ref().take(per).collect();
        if share.is_empty() {
            break;
        }
        scope.spawn(move || {
            for (b, chunk) in share {
                Rng::stream(seed, b as u64).fill_gaussian(chunk);
            }
        });
    });
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_values() {
        let a = Rng::stream(7, 0).gaussian_matrix(5, 3);
        let b = Rng::stream(7, 0).gaussian_matrix(5, 3);
        assert_eq!(a, b);
        assert_ne!(a, Rng::stream(8, 0).gaussian_matrix(5, 3));
    }

    #[test]
    fn parallel_fill_is_thread_count_invariant() {
        let a = gaussian_matrix_par(300, 700, 3, 1);
        let b = gaussian_matrix_par(300, 700, 3, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn stratified_covers_every_slice() {
        let mut u = Rng::stream(1, 0).stratified(16);
        u.sort_by(f64::total_cmp);
        for (i, x) in u.iter().enumerate() {
            assert!((i as f64 / 16.0..(i + 1) as f64 / 16.0).contains(x));
        }
    }
}
