//! Seeded input generation. Everything the program is handed — serving
//! traces, the shared-prefix assignment, collective buffer contents and
//! message sizes — is drawn here from the `--seed` argument, so the same
//! seed always gives the same inputs.

use inference::Request;

/// SplitMix64: a small, well-mixed generator owned by the benchmark so
/// that no randomness comes from the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (trace, buffers, sizes).
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng(self.next_u64() ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Prompts that share a cached prefix.
#[derive(Debug, Clone, Copy)]
pub struct SharedPrefixes {
    /// Share of requests that carry one of the shared prefixes.
    pub share: f64,
    /// Number of distinct prefixes.
    pub prefixes: u64,
    /// Tokens each prefix covers.
    pub prefix_tokens: usize,
}

/// The shape of an open-loop serving trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceShape {
    pub requests: usize,
    pub mean_prompt: usize,
    pub mean_generate: usize,
    pub mean_interarrival_us: f64,
    pub shared: Option<SharedPrefixes>,
}

/// Open-loop Poisson arrivals. Arrival instants are exact points on the
/// serving clock, so the generator can never run late.
///
/// Every per-request quantity is stratified. Interarrival gaps are the
/// `n` mid-quantiles of the exponential distribution. Prompt and output
/// lengths are the mid-quantiles of U(0.5, 1.5) x mean. Exactly
/// `round(share * n)` requests carry a prefix, spread evenly over the
/// prefixes. The seed shuffles each list. So every seed offers the same
/// load in a different order, and seeds differ only by what order does.
pub fn trace(shape: &TraceShape, rng: &mut Rng) -> Vec<Request> {
    let n = shape.requests;
    let gaps = stratified(n, rng, |u| -shape.mean_interarrival_us * (1.0 - u).ln());
    let generate = stratified(n, rng, |u| around(shape.mean_generate, u));
    let (shared, prefixes, prefix_tokens) = match shape.shared {
        Some(p) => (
            (p.share * n as f64).round() as usize,
            p.prefixes,
            p.prefix_tokens,
        ),
        None => (0, 1, 0),
    };
    let mut prefix_of: Vec<Option<u64>> = (0..n)
        .map(|i| (i < shared).then_some(i as u64 % prefixes))
        .collect();
    shuffle(&mut prefix_of, rng);
    // A shared prompt is the prefix plus a private suffix, with the same
    // mean length as an unshared prompt.
    let mut plain = stratified(n - shared, rng, |u| around(shape.mean_prompt, u)).into_iter();
    let mut suffix = stratified(shared, rng, |u| {
        around(shape.mean_prompt - prefix_tokens, u)
    })
    .into_iter();
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            t += gaps[i];
            let request = |prompt: f64| Request {
                prompt: prompt as usize,
                generate: generate[i] as usize,
                arrival_us: t,
                prefix: None,
            };
            match prefix_of[i] {
                Some(id) => {
                    let own = suffix.next().expect("one suffix per shared request");
                    request(prefix_tokens as f64 + own).with_prefix(id, prefix_tokens)
                }
                None => request(plain.next().expect("one prompt per unshared request")),
            }
        })
        .collect()
}

/// Uniform in `[0.5, 1.5) * mean` at quantile `u`, whole and at least 1.
fn around(mean: usize, u: f64) -> f64 {
    (mean as f64 * (0.5 + u)).floor().max(1.0)
}

/// The `n` mid-quantiles of the distribution with inverse CDF `inv`, in
/// seeded order.
fn stratified(n: usize, rng: &mut Rng, inv: impl Fn(f64) -> f64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|i| inv((i as f64 + 0.5) / n as f64)).collect();
    shuffle(&mut v, rng);
    v
}

/// Fisher-Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Integer element values in `0..8`: an FP16 sum over up to 256 ranks
/// stays an exact integer, so reference outputs are exact.
pub fn rank_values(rng: &mut Rng, elems: usize) -> Vec<u32> {
    (0..elems).map(|_| rng.below(8) as u32).collect()
}

/// IEEE binary16 encoding of a non-negative integer below 2048 (exact in
/// that range), written independently of the program's own codec.
pub fn f16_bits(n: u32) -> u16 {
    assert!(n < 2048, "{n} is not exact in binary16");
    if n == 0 {
        return 0;
    }
    let e = 31 - n.leading_zeros();
    let mantissa = (n << (10 - e)) & 0x3ff;
    (((e + 15) << 10) | mantissa) as u16
}

/// Little-endian FP16 bytes of integer values.
pub fn f16_bytes(values: &[u32]) -> Vec<u8> {
    values
        .iter()
        .flat_map(|&v| f16_bits(v).to_le_bytes())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_encodes_small_integers() {
        assert_eq!(f16_bits(1), 0x3c00);
        assert_eq!(f16_bits(2), 0x4000);
        assert_eq!(f16_bits(3), 0x4200);
        assert_eq!(f16_bits(448), 0x5f00);
        assert_eq!(f16_bits(1024), 0x6400);
    }

    #[test]
    fn traces_repeat_per_seed() {
        let shape = TraceShape {
            requests: 50,
            mean_prompt: 512,
            mean_generate: 8,
            mean_interarrival_us: 25_000.0,
            shared: Some(SharedPrefixes {
                share: 0.75,
                prefixes: 3,
                prefix_tokens: 384,
            }),
        };
        let a = trace(&shape, &mut Rng::new(3));
        assert_eq!(a, trace(&shape, &mut Rng::new(3)));
        assert!(a.windows(2).all(|w| w[0].arrival_us < w[1].arrival_us));
        assert_eq!(a.iter().filter(|r| r.prefix.is_some()).count(), 38);
        // Stratified: another seed reorders the same lengths.
        let b = trace(&shape, &mut Rng::new(4));
        assert_ne!(a, b);
        let sorted = |t: &[Request], f: fn(&Request) -> usize| {
            let mut v: Vec<usize> = t.iter().map(f).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&a, |r| r.prompt), sorted(&b, |r| r.prompt));
        assert_eq!(sorted(&a, |r| r.generate), sorted(&b, |r| r.generate));
    }
}
