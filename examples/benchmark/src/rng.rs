//! A small seeded generator: every input the benchmark builds depends on
//! `--seed` alone.

/// SplitMix64 (Steele, Lea and Flood, 2014).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` for `n > 0`. The modulo bias is below 2^-40 for
    /// the small ranges drawn here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// `n` values in `[0, 1)`, one in each stratum of width `1/n`, in seeded
/// random order. The distribution is the same for every seed; only the
/// order and the jitter inside each stratum change, which keeps the
/// simulated-cycle metrics steady from seed to seed.
pub fn stratified(n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|j| (j as f64 + rng.unit()) / n as f64).collect();
    rng.shuffle(&mut v);
    v
}

/// `n` labels of the classes `0..classes`, each class `n / classes`
/// times give or take one, in seeded random order.
pub fn quotas(n: usize, classes: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).map(|i| i * classes / n).collect();
    rng.shuffle(&mut v);
    v
}

/// A Zipf(1) distribution over the keys `0..keys`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(keys: u32) -> Zipf {
        let h: f64 = (1..=keys).map(|k| 1.0 / f64::from(k)).sum();
        let mut acc = 0.0;
        let cdf = (1..=keys)
            .map(|k| {
                acc += 1.0 / (f64::from(k) * h);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn keys(&self) -> u32 {
        self.cdf.len() as u32
    }

    /// One key, popular keys more often.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        (self.cdf.partition_point(|&c| c <= u) as u32).min(self.keys() - 1)
    }

    /// A column of `rows` values in which key `k` appears exactly
    /// `floor(rows * p_k)` times (the remainder goes to the most popular
    /// keys), in seeded random row order. Posting-list lengths therefore
    /// do not depend on the seed.
    pub fn column(&self, rows: usize, rng: &mut Rng) -> Vec<u32> {
        let mut col = Vec::with_capacity(rows);
        let mut prev = 0.0;
        for (k, &c) in self.cdf.iter().enumerate() {
            let n = (rows as f64 * (c - prev)).floor() as usize;
            col.extend(std::iter::repeat_n(k as u32, n));
            prev = c;
        }
        let mut k = 0;
        while col.len() < rows {
            col.push(k % self.keys());
            k += 1;
        }
        col.truncate(rows);
        rng.shuffle(&mut col);
        col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_for_a_seed_and_differ_between_seeds() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let z = Zipf::new(16);
            (
                (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>(),
                stratified(32, &mut rng),
                z.column(100, &mut rng),
            )
        };
        assert_eq!(draw(1), draw(1));
        let (a, b) = (draw(1), draw(2));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
    }

    #[test]
    fn stratified_samples_cover_every_stratum_once() {
        let mut v = stratified(10, &mut Rng::new(7));
        v.sort_by(f64::total_cmp);
        for (j, x) in v.iter().enumerate() {
            assert!((j as f64 / 10.0..(j + 1) as f64 / 10.0).contains(x), "{x}");
        }
    }

    #[test]
    fn quotas_give_every_class_its_share() {
        let q = quotas(25, 10, &mut Rng::new(1));
        let mut counts = [0; 10];
        q.iter().for_each(|&c| counts[c] += 1);
        assert!(counts.iter().all(|&c| c == 2 || c == 3), "{counts:?}");
        assert_ne!(q, quotas(25, 10, &mut Rng::new(2)));
    }

    #[test]
    fn zipf_columns_have_seed_independent_key_counts() {
        let z = Zipf::new(8);
        let counts = |seed| {
            let col = z.column(1000, &mut Rng::new(seed));
            assert_eq!(col.len(), 1000);
            let mut c = [0usize; 8];
            col.iter().for_each(|&k| c[k as usize] += 1);
            c
        };
        let c = counts(3);
        assert_eq!(c, counts(4));
        assert!(c.windows(2).all(|w| w[0] >= w[1]), "{c:?}");
        assert!(c[0] > 3 * c[7]);
        assert!((0..200).all(|_| z.sample(&mut Rng::new(9)) < 8));
    }
}
