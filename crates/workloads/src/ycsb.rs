//! The YCSB-like client (Section VI-A2): Zipfian key popularity over a
//! fixed key space, a configurable update/read mix, and fixed-size
//! payloads (100 B by default).

use pmnet_core::client::{AppRequest, RequestKind, RequestSource};
use pmnet_core::kvproto::KvFrame;
use pmnet_sim::SimRng;
use std::sync::{Mutex, PoisonError};

/// A Zipfian sampler over `[0, n)` (the YCSB `ZipfianGenerator`).
///
/// ```
/// use pmnet_workloads::Zipfian;
/// use pmnet_sim::SimRng;
/// let z = Zipfian::new(1000, 0.99);
/// let mut rng = SimRng::seed(1);
/// let x = z.sample(&mut rng);
/// assert!(x < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

/// Every law built in this process, one per `(n, theta.to_bits())`. The
/// normaliser of a 1e8-key law sums 2^22 powers (~0.1 s in release), and
/// callers build one sampler per client from the same few laws.
static LAWS: Mutex<Vec<Zipfian>> = Mutex::new(Vec::new());

impl Zipfian {
    /// Creates a sampler over `n` items with skew `theta` (YCSB default
    /// 0.99). The first call for a given `(n, theta)` computes the law;
    /// every later one returns a copy of it, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0, "empty key space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        // A push of a finished law is the only update, so a table poisoned
        // by a panicking caller is still whole.
        let mut laws = LAWS.lock().unwrap_or_else(PoisonError::into_inner);
        let known = laws
            .iter()
            .find(|z| z.n == n && z.theta.to_bits() == theta.to_bits());
        if let Some(z) = known {
            return z.clone();
        }
        let z = Self::law(n, theta);
        laws.push(z.clone());
        z
    }

    /// Computes the law of `new(n, theta)` without the process-wide table.
    fn law(n: u64, theta: f64) -> Zipfian {
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Exact-sum cutoff for the generalized harmonic number. Below it the
    /// O(n) loop runs (bit-identical to the original implementation for
    /// every existing caller); above it the tail is closed-form.
    const ZETA_EXACT_MAX: u64 = 1 << 22;

    fn zeta(n: u64, theta: f64) -> f64 {
        if n <= Self::ZETA_EXACT_MAX {
            return (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        }
        // Key spaces in the hundreds of millions (the open-loop traffic
        // engine's default is 1e8) make the exact sum the dominant cost of
        // constructing a sampler. Sum the head exactly and close the tail
        // with the Euler–Maclaurin expansion
        //   sum_{i=m+1}^{n} i^-t ≈ ∫_m^n x^-t dx + (n^-t - m^-t)/2
        //                        = (n^(1-t) - m^(1-t))/(1-t) + (n^-t - m^-t)/2,
        // whose error is O(m^-(1+t)) — below 1e-13 relative at m = 2^22,
        // far under the f64 noise the exact sum itself accumulates.
        let m = Self::ZETA_EXACT_MAX;
        let head: f64 = (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let (mf, nf) = (m as f64, n as f64);
        let integral = (nf.powf(1.0 - theta) - mf.powf(1.0 - theta)) / (1.0 - theta);
        let correction = (nf.powf(-theta) - mf.powf(-theta)) / 2.0;
        head + integral + correction
    }

    /// Draws one item index; item 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let idx = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        idx.min(self.n - 1)
    }

    /// The key-space size.
    pub fn n(&self) -> u64 {
        self.n
    }
}

/// The standard YCSB core workload mixes (minus E, whose scans the
/// GET/SET-style stores do not expose).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbMix {
    /// Workload A: 50% updates / 50% reads (session store).
    A,
    /// Workload B: 5% updates / 95% reads (photo tagging).
    B,
    /// Workload C: 100% reads (user-profile cache).
    C,
    /// Workload D: 5% inserts / 95% reads of *recent* keys.
    D,
    /// Workload F: read-modify-write — each logical op is a read followed
    /// by an update of the same key.
    F,
}

/// The YCSB-like request source: SET (update) / GET (bypass) over a
/// Zipfian-popular key space.
#[derive(Debug)]
pub struct YcsbSource {
    remaining: usize,
    zipf: Zipfian,
    update_ratio: f64,
    value_bytes: usize,
    /// For workload D: keys inserted so far (reads target the newest).
    inserted: u64,
    mix: Option<YcsbMix>,
    /// For workload F: the key read in the first half of an RMW, awaiting
    /// its write half.
    rmw_pending: Option<Key>,
}

impl YcsbSource {
    /// `n` requests over `keys` keys with the given update fraction and
    /// value size.
    pub fn new(n: usize, keys: u64, update_ratio: f64, value_bytes: usize) -> YcsbSource {
        YcsbSource {
            remaining: n,
            zipf: Zipfian::new(keys, 0.99),
            update_ratio,
            value_bytes,
            inserted: 0,
            mix: None,
            rmw_pending: None,
        }
    }

    /// `n` requests following a standard YCSB core workload.
    pub fn workload(mix: YcsbMix, n: usize, keys: u64) -> YcsbSource {
        let update_ratio = match mix {
            YcsbMix::A => 0.5,
            YcsbMix::B | YcsbMix::D => 0.05,
            YcsbMix::C => 0.0,
            YcsbMix::F => 0.5, // each RMW is one read + one write
        };
        YcsbSource {
            remaining: n,
            zipf: Zipfian::new(keys, 0.99),
            update_ratio,
            value_bytes: 80,
            inserted: 0,
            mix: Some(mix),
            rmw_pending: None,
        }
    }

    /// The key encoding used by all KV workloads.
    pub fn key_bytes(id: u64) -> Vec<u8> {
        Key::new(id).as_bytes().to_vec()
    }

    fn set(&self, key: &Key, rng: &mut SimRng) -> AppRequest {
        let value = |v: &mut [u8]| rng.fill_bytes(v);
        AppRequest {
            kind: RequestKind::Update,
            payload: KvFrame::encode_set_with(key.as_bytes(), self.value_bytes, value),
        }
    }

    fn get(key: &Key) -> AppRequest {
        AppRequest {
            kind: RequestKind::Bypass,
            payload: KvFrame::encode_get(key.as_bytes()),
        }
    }
}

/// `user{id:012}` formatted on the stack: the digits are written from the
/// right, so a request costs no `String` on the way to its frame.
#[derive(Debug, Clone, Copy)]
struct Key {
    buf: [u8; Key::CAP],
    at: usize,
}

impl Key {
    /// `"user"` and the twenty digits of `u64::MAX`.
    const CAP: usize = 4 + 20;
    /// Ids are zero-padded to at least this many digits.
    const MIN_DIGITS: usize = 12;

    fn new(id: u64) -> Key {
        let mut buf = [b'0'; Key::CAP];
        let (mut at, mut rest) = (Key::CAP, id);
        loop {
            at -= 1;
            buf[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        at = at.min(Key::CAP - Key::MIN_DIGITS) - 4;
        buf[at..at + 4].copy_from_slice(b"user");
        Key { buf, at }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.buf[self.at..]
    }
}

impl RequestSource for YcsbSource {
    fn next_request(&mut self, rng: &mut SimRng) -> Option<AppRequest> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Workload F: the write half of a read-modify-write reuses the key
        // the read half touched.
        if let Some(key) = self.rmw_pending.take() {
            return Some(self.set(&key, rng));
        }
        let key = match self.mix {
            // Workload D reads the latest inserted keys ("read latest"):
            // rank 0 of the popularity distribution is the newest insert.
            Some(YcsbMix::D) if self.inserted > 0 => {
                let back = self.zipf.sample(rng).min(self.inserted - 1);
                Key::new(self.inserted - 1 - back)
            }
            _ => Key::new(self.zipf.sample(rng)),
        };
        if let Some(YcsbMix::F) = self.mix {
            // First half of an RMW: the read.
            self.rmw_pending = Some(key);
            return Some(Self::get(&key));
        }
        if !rng.chance(self.update_ratio) {
            return Some(Self::get(&key));
        }
        if let Some(YcsbMix::D) = self.mix {
            // Workload D "updates" are inserts of fresh keys.
            let key = Key::new(self.inserted);
            self.inserted += 1;
            return Some(self.set(&key, rng));
        }
        Some(self.set(&key, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_is_skewed_toward_low_ranks() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = SimRng::seed(2);
        let n = 50_000;
        let top10 = (0..n).filter(|_| z.sample(&mut rng) < 10).count();
        let frac = top10 as f64 / n as f64;
        // YCSB zipfian(0.99) over 10k keys: top-10 keys get ~30% of draws.
        assert!(frac > 0.2 && frac < 0.45, "top-10 fraction {frac}");
    }

    #[test]
    fn zipfian_stays_in_range() {
        let z = Zipfian::new(100, 0.5);
        let mut rng = SimRng::seed(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
        assert_eq!(z.n(), 100);
    }

    #[test]
    fn zeta_tail_approximation_matches_exact_sum() {
        // Just past the cutoff the closed-form tail must agree with the
        // exact sum to within f64 accumulation noise.
        for theta in [0.5, 0.9, 0.99] {
            let n = Zipfian::ZETA_EXACT_MAX + 10_000;
            let exact: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let approx = Zipfian::zeta(n, theta);
            let rel = ((approx - exact) / exact).abs();
            assert!(rel < 1e-9, "theta={theta}: rel error {rel}");
        }
    }

    #[test]
    fn hundred_million_key_space_samples_in_range_and_favours_the_head() {
        // The traffic engine's key space, whose normaliser sums 2^22 terms
        // and closes the rest in closed form: samples stay in range with
        // the head still the hottest key.
        let z = Zipfian::new(100_000_000, 0.99);
        let mut rng = SimRng::seed(9);
        let n = 20_000;
        let head_hits = (0..n).filter(|_| z.sample(&mut rng) < 100).count();
        assert!(
            head_hits > n / 10,
            "zipf 0.99 must concentrate on the head (got {head_hits}/{n})"
        );
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < z.n());
        }
    }

    /// A law's fields as bits.
    fn bits(z: &Zipfian) -> [u64; 5] {
        [
            z.n,
            z.theta.to_bits(),
            z.alpha.to_bits(),
            z.zetan.to_bits(),
            z.eta.to_bits(),
        ]
    }

    #[test]
    fn the_law_table_returns_each_law_bit_for_bit() {
        let m = Zipfian::ZETA_EXACT_MAX;
        let laws: Vec<(u64, f64)> = [1, 2, 8_192, 100_000, m, m + 1, 100_000_000]
            .into_iter()
            .flat_map(|n| [(n, 0.5), (n, 0.99)])
            .collect();
        let fresh: Vec<[u64; 5]> = laws
            .iter()
            .map(|&(n, t)| bits(&Zipfian::law(n, t)))
            .collect();
        // Four threads start together and walk the pairs from different
        // offsets, so first builds and lookups of both skews of one key
        // space interleave.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (laws, fresh, start) = (&laws, &fresh, &start);
                s.spawn(move || {
                    start.wait();
                    for k in 0..laws.len() {
                        let i = (k + 3 * t) % laws.len();
                        let (n, theta) = laws[i];
                        let z = Zipfian::new(n, theta);
                        assert_eq!(bits(&z), fresh[i], "n {n} theta {theta}");
                    }
                });
            }
        });
    }

    #[test]
    fn the_benchmark_laws_are_pinned() {
        // `open_overload`'s, `apply_contended`'s and `kv_mixed`'s keys: a
        // change to the zeta rule fails here before it moves a digest.
        for (n, zetan) in [
            (100_000_000, 0x4034_cd8c_da43_9f41),
            (100_000, 0x4029_8e82_5397_c77a),
            (8_192, 0x4024_0308_765a_afb3),
        ] {
            let got = Zipfian::new(n, 0.99).zetan.to_bits();
            assert_eq!(got, zetan, "n {n}: {got:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "empty key space")]
    fn zero_keys_panics() {
        let _ = Zipfian::new(0, 0.9);
    }

    #[test]
    fn source_respects_count_and_ratio() {
        let mut s = YcsbSource::new(1000, 100, 0.75, 80);
        let mut rng = SimRng::seed(4);
        let mut updates = 0;
        let mut reads = 0;
        while let Some(r) = s.next_request(&mut rng) {
            match r.kind {
                RequestKind::Update => {
                    updates += 1;
                    assert!(matches!(
                        KvFrame::decode(&r.payload),
                        Some(KvFrame::Set { .. })
                    ));
                }
                RequestKind::Bypass => {
                    reads += 1;
                    assert!(matches!(
                        KvFrame::decode(&r.payload),
                        Some(KvFrame::Get { .. })
                    ));
                }
            }
        }
        assert_eq!(updates + reads, 1000);
        let ratio = updates as f64 / 1000.0;
        assert!((ratio - 0.75).abs() < 0.06, "update ratio {ratio}");
    }

    #[test]
    fn workload_a_is_half_updates() {
        let mut s = YcsbSource::workload(YcsbMix::A, 2000, 100);
        let mut rng = SimRng::seed(6);
        let mut updates = 0;
        while let Some(r) = s.next_request(&mut rng) {
            if r.kind == RequestKind::Update {
                updates += 1;
            }
        }
        let ratio = updates as f64 / 2000.0;
        assert!((ratio - 0.5).abs() < 0.05, "{ratio}");
    }

    #[test]
    fn workload_c_is_read_only() {
        let mut s = YcsbSource::workload(YcsbMix::C, 500, 100);
        let mut rng = SimRng::seed(7);
        while let Some(r) = s.next_request(&mut rng) {
            assert_eq!(r.kind, RequestKind::Bypass);
        }
    }

    #[test]
    fn workload_d_reads_skew_to_recent_inserts() {
        let mut s = YcsbSource::workload(YcsbMix::D, 5000, 1000);
        let mut rng = SimRng::seed(8);
        let mut reads_of_latest_decile = 0;
        let mut reads = 0;
        let mut newest: Option<bytes::Bytes> = None;
        let mut inserted: Vec<bytes::Bytes> = Vec::new();
        while let Some(r) = s.next_request(&mut rng) {
            match KvFrame::decode(&r.payload) {
                Some(KvFrame::Set { key, .. }) => {
                    newest = Some(key.clone());
                    inserted.push(key);
                }
                Some(KvFrame::Get { key }) => {
                    if inserted.is_empty() {
                        continue;
                    }
                    reads += 1;
                    let tail = &inserted[inserted.len().saturating_sub(10)..];
                    if tail.contains(&key) {
                        reads_of_latest_decile += 1;
                    }
                }
                _ => panic!("unexpected frame"),
            }
        }
        let _ = newest;
        assert!(reads > 0);
        let frac = reads_of_latest_decile as f64 / reads as f64;
        assert!(
            frac > 0.3,
            "read-latest must favour fresh keys: {frac} of {reads}"
        );
    }

    #[test]
    fn workload_f_alternates_read_then_write_of_same_key() {
        let mut s = YcsbSource::workload(YcsbMix::F, 100, 50);
        let mut rng = SimRng::seed(9);
        let mut last_read_key: Option<bytes::Bytes> = None;
        while let Some(r) = s.next_request(&mut rng) {
            match KvFrame::decode(&r.payload) {
                Some(KvFrame::Get { key }) => {
                    assert!(last_read_key.is_none(), "two reads in a row");
                    last_read_key = Some(key);
                }
                Some(KvFrame::Set { key, .. }) => {
                    assert_eq!(
                        Some(key),
                        last_read_key.take(),
                        "write half must reuse the read key"
                    );
                }
                _ => panic!("unexpected frame"),
            }
        }
    }

    /// CRC-32 over every payload `source` emits under `seed`, and the RNG's
    /// next draw after the last one.
    fn payload_crc(mut source: YcsbSource, seed: u64) -> (u32, u64) {
        use pmnet_pmem::{crc32_finish, crc32_init, crc32_update};
        let mut rng = SimRng::seed(seed);
        let mut state = crc32_init();
        while let Some(r) = source.next_request(&mut rng) {
            state = crc32_update(state, &r.payload);
        }
        (crc32_finish(state), rng.next_u64())
    }

    #[test]
    fn payload_bytes_and_rng_draws_are_pinned() {
        // Literals captured from the `vec!` + `format!` + `KvFrame::encode`
        // sources this code replaced: same bytes, same draws.
        let kv_mixed = || YcsbSource::new(200, 8192, 0.5, 2048);
        for (seed, crc, next) in [
            (1, 0x7f8d_f8d9, 0xa283_9adc_8e76_7ced),
            (2, 0x7659_e510, 0xeb99_1b94_2d2d_2cf6),
            (7, 0xc398_d0eb, 0xd0b6_9f37_042e_2f47),
        ] {
            assert_eq!(payload_crc(kv_mixed(), seed), (crc, next), "seed {seed}");
        }
        // The insert (D) and read-modify-write (F) branches.
        for (mix, crc, next) in [
            (YcsbMix::D, 0xb094_77e1, 0x247b_6a54_ab5a_e7fb),
            (YcsbMix::F, 0x1cc6_0c7a, 0x8d44_13a7_a9f4_8540),
        ] {
            let source = YcsbSource::workload(mix, 200, 100);
            assert_eq!(payload_crc(source, 1), (crc, next), "{mix:?}");
        }
    }

    #[test]
    fn keys_are_the_formatted_id_at_every_width() {
        for id in [0, 7, 999_999, 123_456_789_012, 999_999_999_999] {
            assert_eq!(
                YcsbSource::key_bytes(id),
                format!("user{id:012}").as_bytes()
            );
            assert_eq!(YcsbSource::key_bytes(id).len(), 16);
        }
        // Past twelve digits the key grows, as the format string's did.
        for id in [1_000_000_000_000, u64::MAX] {
            assert_eq!(
                YcsbSource::key_bytes(id),
                format!("user{id:012}").as_bytes()
            );
        }
    }

    #[test]
    fn key_encoding_is_fixed_width() {
        assert_eq!(YcsbSource::key_bytes(0).len(), 16);
        assert_eq!(YcsbSource::key_bytes(999_999).len(), 16);
        assert_ne!(YcsbSource::key_bytes(1), YcsbSource::key_bytes(2));
    }
}
