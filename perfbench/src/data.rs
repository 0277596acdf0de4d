//! Input generation. Everything the program under test sees is derived
//! from the workload seed, so one seed always gives the same inputs.

use climber_core::series::gen::{gauss, Domain, SeriesGenerator, SIFT_LEN};
use climber_core::series::znorm::znormalize_in_place;
use climber_core::series::Dataset;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The indexed rows plus held-out queries drawn from the same generator.
pub struct Inputs {
    /// The first `n` generated series: what the index is built from.
    pub data: Dataset,
    /// The next `q` generated series: never indexed, so a query cannot
    /// trivially find itself.
    pub queries: Vec<Vec<f32>>,
}

/// Generates `n + q` series of `domain` and splits them into indexed
/// data and held-out queries.
pub fn generate(domain: Domain, n: usize, q: usize, seed: u64) -> Inputs {
    let all = rows(domain, n + q, seed);
    let len = all.series_len();
    let data = Dataset::from_raw(len, all.raw()[..n * len].to_vec());
    let queries = (n..n + q).map(|i| all.get(i as u64).to_vec()).collect();
    Inputs { data, queries }
}

/// `count` fresh series of `domain` for appends, disjoint from the
/// indexed rows and the queries because the stream seed differs.
pub fn fresh_rows(domain: Domain, count: usize, seed: u64, stream: u64) -> Vec<Vec<f32>> {
    let seed = seed ^ 0x005E_ED0F_A99E_4D00 ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let ds = rows(domain, count, seed);
    ds.iter().map(|(_, v)| v.to_vec()).collect()
}

fn rows(domain: Domain, count: usize, seed: u64) -> Dataset {
    match domain {
        Domain::TexMex => Sift::new().generate(count, seed),
        other => other.generate(count, seed),
    }
}

/// Number of latent clusters of the repository's SIFT-like generator.
const SIFT_CLUSTERS: usize = 64;
/// Fixed palette seed of the repository's SIFT-like generator.
const SIFT_PALETTE_SEED: u64 = 0xC1D0_5EED;
/// Intra-cluster spread of the repository's SIFT-like generator.
const SIFT_SPREAD: f64 = 0.35;

/// The TexMex/SIFT-like generator, producing the same series as
/// `Domain::TexMex.generate`, but drawing the cluster palette once per
/// dataset: the library draws it once per series, which makes 200k rows
/// take about a minute. The smoke test checks the two agree bit for bit.
pub struct Sift {
    centres: Vec<Vec<f64>>,
}

impl Sift {
    pub fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(SIFT_PALETTE_SEED);
        let centres = (0..SIFT_CLUSTERS)
            .map(|_| {
                (0..SIFT_LEN)
                    .map(|_| {
                        let g = gauss(&mut rng);
                        g * g
                    })
                    .collect()
            })
            .collect();
        Self { centres }
    }
}

impl SeriesGenerator for Sift {
    fn series_len(&self) -> usize {
        SIFT_LEN
    }

    fn fill(&self, rng: &mut StdRng, out: &mut [f32]) {
        let c = rng.random_range(0..self.centres.len());
        for (v, &mu) in out.iter_mut().zip(self.centres[c].iter()) {
            let noisy = mu + SIFT_SPREAD * mu.max(0.05) * gauss(rng);
            *v = noisy.max(0.0) as f32;
        }
        znormalize_in_place(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sift_matches_the_library_generator() {
        let fast = Sift::new().generate(300, 42);
        let lib = Domain::TexMex.generate(300, 42);
        assert_eq!(fast.raw(), lib.raw());
    }

    #[test]
    fn queries_are_held_out_and_seeded() {
        let a = generate(Domain::RandomWalk, 500, 20, 7);
        let b = generate(Domain::RandomWalk, 500, 20, 7);
        assert_eq!(a.data.raw(), b.data.raw());
        assert_eq!(a.queries, b.queries);
        for q in &a.queries {
            assert!(a.data.iter().all(|(_, row)| row != q.as_slice()));
        }
        let fresh = fresh_rows(Domain::RandomWalk, 20, 7, 0);
        assert!(fresh.iter().all(|r| !a.queries.contains(r)));
    }
}
