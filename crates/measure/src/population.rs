//! Seeded synthetic populations calibrated to the paper's published
//! aggregates.
//!
//! Every population is drawn from a seeded RNG so experiments are
//! reproducible; the *parameters* (marginal fractions) come straight from
//! the paper's measurements, and the scanners then re-derive those
//! aggregates by actually probing the synthetic hosts — validating the
//! measurement methodology, not just echoing inputs.
//!
//! **Lazy per-index generation.** Every population item is a pure function
//! of `(seed, index)` — each item draws from its own splitmix-derived RNG
//! stream (see `item_rng`), never from a shared sequential stream. The
//! `*_at(seed, idx)` accessors therefore produce item `idx` in O(1) work
//! and memory, which is what lets the campaign layer run the paper's
//! 1 583 045-resolver survey without ever materializing a `Vec` of specs;
//! the `Vec`-returning functions are thin `(0..n).map(..)` wrappers kept
//! for the in-process drivers. Where a population assigns exact per-class
//! quotas (Table V), class membership at an index comes from a seeded
//! Feistel permutation (`permute_index`) instead of a materialized
//! Fisher–Yates shuffle — exact quotas, position-uncorrelated, still O(1)
//! per index.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The RNG for population item `idx` under `seed`: its own deterministic
/// stream, fully decorrelated from neighbouring indices by the splitmix64
/// finalizer. Pure function of `(seed, idx)`.
fn item_rng(seed: u64, idx: usize) -> SmallRng {
    SmallRng::seed_from_u64(runner::mix64(runner::scan_seed(seed, idx)))
}

/// A deterministic pseudorandom permutation of `0..n`: maps `idx` to a
/// unique position, seeded, in O(1) time and memory. Implemented as a
/// 4-round Feistel network over the smallest even-bit-width domain
/// covering `n`, cycle-walked back into range (the walk follows the
/// permutation's own cycle, so it terminates and stays bijective on
/// `0..n`; the domain is < 4n, so the expected walk is short).
fn permute_index(n: usize, seed: u64, idx: usize) -> usize {
    debug_assert!(idx < n);
    if n <= 1 {
        return idx;
    }
    let bits = (usize::BITS - (n - 1).leading_zeros() + 1) & !1;
    let half = bits / 2;
    let mask: u64 = (1u64 << half) - 1;
    let mut x = idx as u64;
    loop {
        for round in 0..4u64 {
            let (l, r) = (x >> half, x & mask);
            let f = runner::mix64(r ^ runner::mix64(seed ^ (round << 8))) & mask;
            x = (r << half) | (l ^ f);
        }
        if (x as usize) < n {
            return x as usize;
        }
    }
}

/// One NTP pool server's behaviour (§VII-A population).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolServerSpec {
    /// Whether the server rate limits at a 1 Hz query rate.
    pub rate_limits: bool,
    /// Whether it sends a KoD before going silent.
    pub sends_kod: bool,
    /// Whether the mode-6 configuration interface is exposed (§IV-B2c).
    pub open_config: bool,
}

/// Pool server `idx` of the §VII-A population — pure `(seed, idx)`.
pub fn pool_server_at(seed: u64, idx: usize) -> PoolServerSpec {
    let mut rng = item_rng(seed, idx);
    let rate_limits = rng.random_bool(0.38);
    // 33 of the 38 points send KoD; the rest drop silently.
    let sends_kod = rate_limits && rng.random_bool(0.33 / 0.38);
    PoolServerSpec { rate_limits, sends_kod, open_config: rng.random_bool(0.053) }
}

/// The §VII-A scan population: 2 432 servers, 38 % rate limiting, 33 %
/// KoD-sending, 5.3 % with an open config interface.
pub fn pool_servers(n: usize, seed: u64) -> Vec<PoolServerSpec> {
    (0..n).map(|idx| pool_server_at(seed, idx)).collect()
}

/// The measured number of pool servers in §VII-A.
pub const POOL_SCAN_SIZE: usize = 2432;

/// A domain's nameserver PMTUD behaviour (Fig. 5 population).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NameserverSpec {
    /// Whether ICMP frag-needed is honoured at all.
    pub honours_pmtud: bool,
    /// The smallest fragment size the NS will emit (its PMTU floor).
    pub min_fragment_mtu: u16,
    /// Whether the domain is DNSSEC-signed.
    pub signed: bool,
}

/// Mixture for the Fig. 5 CDF over *fragmenting, unsigned* domains:
/// `(floor, cumulative fraction)` — 7.05 % reach 292 B, 83.2 % reach 548 B.
pub const FIG5_CDF_POINTS: [(u16, f64); 5] =
    [(68, 0.020), (292, 0.0705), (548, 0.832), (1276, 0.952), (1492, 1.0)];

/// Domain nameserver `idx` of the §VII-B population — pure `(seed, idx)`.
pub fn domain_nameserver_at(seed: u64, idx: usize) -> NameserverSpec {
    let mut rng = item_rng(seed, idx);
    let roll: f64 = rng.random();
    if roll < 0.0766 {
        NameserverSpec {
            honours_pmtud: true,
            min_fragment_mtu: sample_floor(&mut rng),
            signed: false,
        }
    } else if roll < 0.0766 + 0.01 {
        // Signed domains (~1 %); half of them also fragment.
        NameserverSpec {
            honours_pmtud: rng.random_bool(0.5),
            min_fragment_mtu: sample_floor(&mut rng),
            signed: true,
        }
    } else {
        NameserverSpec { honours_pmtud: false, min_fragment_mtu: 1500, signed: false }
    }
}

/// Draws the 1M-domain nameserver population (§VII-B): `frag_unsigned`
/// fraction (paper: 7.66 %) fragment and are unsigned, with floors from
/// [`FIG5_CDF_POINTS`]; ~1 % are signed; the rest ignore PMTUD.
pub fn domain_nameservers(n: usize, seed: u64) -> Vec<NameserverSpec> {
    (0..n).map(|idx| domain_nameserver_at(seed, idx)).collect()
}

fn sample_floor(rng: &mut SmallRng) -> u16 {
    let roll: f64 = rng.random();
    let mut prev = 0.0;
    for &(floor, cum) in &FIG5_CDF_POINTS {
        if roll < cum {
            return floor;
        }
        prev = cum;
    }
    let _ = prev;
    1492
}

/// The pool.ntp.org nameserver population of §VII-B: 30 nameservers, 16 of
/// which fragment below 548 bytes, none signed.
pub fn pool_nameservers(seed: u64) -> Vec<NameserverSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out: Vec<NameserverSpec> = (0..30)
        .map(|i| NameserverSpec {
            honours_pmtud: i < 16,
            min_fragment_mtu: if i < 16 {
                if rng.random_bool(0.1) {
                    292
                } else {
                    548
                }
            } else {
                1500
            },
            signed: false,
        })
        .collect();
    // Shuffle so position carries no information.
    for i in (1..out.len()).rev() {
        let j = rng.random_range(0..=i);
        out.swap(i, j);
    }
    out
}

/// An open resolver's state for the Table IV / Fig. 6 / Fig. 7 scans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenResolverSpec {
    /// Whether the resolver honours RD=0 (cache-only) semantics; the scan's
    /// verification step excludes those that do not.
    pub respects_rd: bool,
    /// Which pool records are cached, with their current age in seconds:
    /// `[NS, A, 0.A, 1.A, 2.A, 3.A]`.
    pub cached: [Option<u32>; 6],
    /// Whether the resolver accepts fragmented responses (~31 %).
    pub accepts_fragments: bool,
    /// One-way scanner→resolver latency in milliseconds (5..300).
    pub rtt_ms: u64,
}

/// Table IV cache probabilities: NS, apex A, 0..3 A.
pub const TABLE4_CACHE_P: [f64; 6] = [0.5828, 0.6941, 0.6392, 0.6128, 0.6155, 0.5858];

/// Record TTLs matching the probed records (NS record: 3600 s, A: 150 s).
pub const TABLE4_TTLS: [u32; 6] = [3600, 150, 150, 150, 150, 150];

/// Open resolver `idx` of the Table IV / Fig. 6 / Fig. 7 population —
/// pure `(seed, idx)`, O(1) work: the paper-scale survey (1 583 045
/// resolvers) generates each spec on demand instead of materializing
/// ~60 MB of population.
pub fn open_resolver_at(seed: u64, idx: usize) -> OpenResolverSpec {
    let mut rng = item_rng(seed, idx);
    let mut cached = [None; 6];
    for (slot, (&p, &ttl)) in cached.iter_mut().zip(TABLE4_CACHE_P.iter().zip(&TABLE4_TTLS)) {
        if rng.random_bool(p) {
            *slot = Some(rng.random_range(0..ttl));
        }
    }
    OpenResolverSpec {
        respects_rd: rng.random_bool(0.41),
        cached,
        accepts_fragments: rng.random_bool(0.31),
        rtt_ms: rng.random_range(5..300),
    }
}

/// Draws the open-resolver population.
pub fn open_resolvers(n: usize, seed: u64) -> Vec<OpenResolverSpec> {
    (0..n).map(|idx| open_resolver_at(seed, idx)).collect()
}

/// Regions of the ad study (Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Asia (dataset 1).
    Asia,
    /// Africa (dataset 1).
    Africa,
    /// Europe (dataset 1).
    Europe,
    /// Northern America (dataset 2).
    NorthernAmerica,
    /// Latin America (dataset 1).
    LatinAmerica,
}

impl Region {
    /// All regions in Table V order.
    pub fn all() -> [Region; 5] {
        [
            Region::Asia,
            Region::Africa,
            Region::Europe,
            Region::NorthernAmerica,
            Region::LatinAmerica,
        ]
    }

    /// Display name as in Table V.
    pub fn name(self) -> &'static str {
        match self {
            Region::Asia => "Asia",
            Region::Africa => "Africa",
            Region::Europe => "Europe",
            Region::NorthernAmerica => "Northern America",
            Region::LatinAmerica => "Latin America",
        }
    }

    /// Valid-client counts from Table V (datasets 1 and 2).
    pub fn client_count(self) -> usize {
        match self {
            Region::Asia => 3169,
            Region::Africa => 303,
            Region::Europe => 1390,
            Region::NorthernAmerica => 2314,
            Region::LatinAmerica => 838,
        }
    }

    /// Fraction of clients whose resolvers accept tiny (68 B) fragments.
    pub fn p_accept_tiny(self) -> f64 {
        match self {
            Region::Asia => 0.5822,
            Region::Africa => 0.7327,
            Region::Europe => 0.7266,
            Region::NorthernAmerica => 0.5843,
            Region::LatinAmerica => 0.6826,
        }
    }

    /// Fraction accepting at least one fragment size.
    pub fn p_accept_any(self) -> f64 {
        match self {
            Region::Asia => 0.9034,
            Region::Africa => 0.9571,
            Region::Europe => 0.9187,
            Region::NorthernAmerica => 0.7593,
            Region::LatinAmerica => 0.9057,
        }
    }

    /// DNSSEC validation rate (paper: between 19.14 % and 28.94 %).
    pub fn p_validates(self) -> f64 {
        match self {
            Region::Asia => 0.1914,
            Region::Africa => 0.2894,
            Region::Europe => 0.2718,
            Region::NorthernAmerica => 0.2341,
            Region::LatinAmerica => 0.2052,
        }
    }
}

/// An ad-study client: its region, device class and resolver behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdClientSpec {
    /// Geographic region.
    pub region: Region,
    /// True for mobile/tablet (vs PC).
    pub mobile: bool,
    /// Resolver is Google-like (accepts only big fragments).
    pub google_resolver: bool,
    /// The smallest *leading* fragment size the resolver accepts;
    /// `u16::MAX` encodes "rejects all fragments".
    pub min_fragment_accepted: u16,
    /// Whether the resolver validates DNSSEC.
    pub validates: bool,
}

/// Draws the Table V client population (all regions, paper counts).
pub fn ad_clients(seed: u64) -> Vec<AdClientSpec> {
    ad_clients_scaled(seed, 1.0)
}

/// The per-region client count at a population scale (minimum 30).
fn region_count(region: Region, scale: f64) -> usize {
    ((region.client_count() as f64 * scale) as usize).max(30)
}

/// Total Table V clients at a population scale — the trial count of the
/// `table5_adstudy` campaign.
pub fn ad_client_count(scale: f64) -> usize {
    Region::all().iter().map(|&r| region_count(r, scale)).sum()
}

/// Ad client `idx` (global index across regions, Table V order) — pure
/// `(seed, scale, idx)`, O(1) work.
///
/// Table V reports exact per-region counts, so the resolver classes are
/// assigned by quota (stratified sampling) rather than drawn
/// independently: the marginals then recover the paper's numbers by
/// construction at any population scale. Class membership at an index is
/// a seeded Feistel permutation of the region's index space over the
/// quota blocks — exact quotas with position-uncorrelated placement, no
/// materialized shuffle. Only the per-client mobile/validates flags are
/// drawn from the item's own RNG stream.
pub fn ad_client_at(seed: u64, scale: f64, idx: usize) -> AdClientSpec {
    let mut local = idx;
    let (region, count) = Region::all()
        .into_iter()
        .find_map(|region| {
            let count = region_count(region, scale);
            if local < count {
                Some((region, count))
            } else {
                local -= count;
                None
            }
        })
        .unwrap_or_else(|| panic!("ad client index {idx} beyond population"));

    // ~13.5 % of dataset-1 clients used Google resolvers (791/5847).
    let p_google = if region == Region::NorthernAmerica { 0.10 } else { 0.135 };
    let n_google = (count as f64 * p_google).round() as usize;
    let n_tiny = (count as f64 * region.p_accept_tiny()).round() as usize;
    // accept-any covers tiny-acceptors, partial acceptors and Google
    // (which accepts only big fragments but accepts *some*).
    let n_any = (count as f64 * region.p_accept_any()).round() as usize;
    let n_partial = n_any.saturating_sub(n_tiny + n_google);

    // (google_resolver, min_fragment_accepted) by permuted quota block.
    let slot = permute_index(count, runner::mix64(seed ^ (region as u64).wrapping_add(1)), local);
    let (google_resolver, min_fragment_accepted) = if slot < n_tiny {
        (false, 0)
    } else if slot < n_tiny + n_partial {
        (false, [200u16, 500, 1000][(slot - n_tiny) % 3])
    } else if slot < n_tiny + n_partial + n_google {
        (true, 1000)
    } else {
        (false, u16::MAX)
    };

    let mut rng = item_rng(seed, idx);
    AdClientSpec {
        region,
        mobile: rng.random_bool(0.53),
        google_resolver,
        min_fragment_accepted,
        validates: rng.random_bool(region.p_validates()),
    }
}

/// Draws a scaled-down client population (same marginals, `scale` × the
/// paper's per-region counts; minimum 30 clients per region).
pub fn ad_clients_scaled(seed: u64, scale: f64) -> Vec<AdClientSpec> {
    (0..ad_client_count(scale)).map(|idx| ad_client_at(seed, scale, idx)).collect()
}

/// A web-client resolver for the §VIII-B3 shared-resolver study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedResolverSpec {
    /// An SMTP server in the same /24 uses this resolver.
    pub smtp_shares: bool,
    /// The resolver itself is open.
    pub open: bool,
}

/// Web-client resolver `idx` of the §VIII-B3 population — pure
/// `(seed, idx)`.
pub fn shared_resolver_at(seed: u64, idx: usize) -> SharedResolverSpec {
    let mut rng = item_rng(seed, idx);
    let roll: f64 = rng.random();
    if roll < 0.002 {
        SharedResolverSpec { smtp_shares: true, open: true }
    } else if roll < 0.002 + 0.113 {
        SharedResolverSpec { smtp_shares: true, open: false }
    } else if roll < 0.002 + 0.113 + 0.023 {
        SharedResolverSpec { smtp_shares: false, open: true }
    } else {
        SharedResolverSpec { smtp_shares: false, open: false }
    }
}

/// §VIII-B3 population: of 18 668 web-client resolvers, 11.3 % shared with
/// SMTP, 2.3 % open, 0.2 % both.
pub fn shared_resolvers(n: usize, seed: u64) -> Vec<SharedResolverSpec> {
    (0..n).map(|idx| shared_resolver_at(seed, idx)).collect()
}

/// The §VIII-B3 study size.
pub const SHARED_STUDY_SIZE: usize = 18_668;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_population_marginals() {
        let pop = pool_servers(POOL_SCAN_SIZE, 1);
        let limiting = pop.iter().filter(|s| s.rate_limits).count() as f64 / pop.len() as f64;
        let kod = pop.iter().filter(|s| s.sends_kod).count() as f64 / pop.len() as f64;
        let config = pop.iter().filter(|s| s.open_config).count() as f64 / pop.len() as f64;
        assert!((limiting - 0.38).abs() < 0.03, "rate limiting {limiting}");
        assert!((kod - 0.33).abs() < 0.03, "kod {kod}");
        assert!((config - 0.053).abs() < 0.02, "open config {config}");
        assert!(pop.iter().all(|s| !s.sends_kod || s.rate_limits));
    }

    #[test]
    fn nameserver_population_marginals() {
        let pop = domain_nameservers(50_000, 2);
        let frag_unsigned =
            pop.iter().filter(|s| s.honours_pmtud && !s.signed).count() as f64 / pop.len() as f64;
        assert!((frag_unsigned - 0.0766).abs() < 0.01, "frag+unsigned {frag_unsigned}");
        let fragging: Vec<_> = pop.iter().filter(|s| s.honours_pmtud && !s.signed).collect();
        let at_548 = fragging.iter().filter(|s| s.min_fragment_mtu <= 548).count() as f64
            / fragging.len() as f64;
        assert!((at_548 - 0.832).abs() < 0.03, "CDF(548) {at_548}");
        let at_292 = fragging.iter().filter(|s| s.min_fragment_mtu <= 292).count() as f64
            / fragging.len() as f64;
        assert!((at_292 - 0.0705).abs() < 0.02, "CDF(292) {at_292}");
    }

    #[test]
    fn pool_ns_population_is_16_of_30() {
        let pop = pool_nameservers(3);
        assert_eq!(pop.len(), 30);
        assert_eq!(pop.iter().filter(|s| s.honours_pmtud).count(), 16);
        assert!(pop.iter().all(|s| !s.signed), "0 of 30 support DNSSEC");
    }

    #[test]
    fn open_resolver_marginals() {
        let pop = open_resolvers(50_000, 4);
        let a_cached =
            pop.iter().filter(|s| s.cached[1].is_some()).count() as f64 / pop.len() as f64;
        assert!((a_cached - 0.6941).abs() < 0.01, "A cached {a_cached}");
        // Ages are within TTL.
        assert!(pop.iter().flat_map(|s| s.cached[1]).all(|age| age < 150));
    }

    #[test]
    fn ad_population_marginals_recover_table5() {
        let pop = ad_clients_scaled(5, 1.0);
        for region in Region::all() {
            let clients: Vec<_> = pop.iter().filter(|c| c.region == region).collect();
            assert!(!clients.is_empty());
            let tiny = clients.iter().filter(|c| c.min_fragment_accepted <= 68).count() as f64
                / clients.len() as f64;
            assert!(
                (tiny - region.p_accept_tiny()).abs() < 0.04,
                "{}: tiny {tiny} want {}",
                region.name(),
                region.p_accept_tiny()
            );
            let any = clients.iter().filter(|c| c.min_fragment_accepted < u16::MAX).count() as f64
                / clients.len() as f64;
            assert!(
                (any - region.p_accept_any()).abs() < 0.04,
                "{}: any {any} want {}",
                region.name(),
                region.p_accept_any()
            );
        }
    }

    #[test]
    fn shared_population_marginals() {
        let pop = shared_resolvers(SHARED_STUDY_SIZE, 6);
        let smtp =
            pop.iter().filter(|s| s.smtp_shares && !s.open).count() as f64 / pop.len() as f64;
        let open =
            pop.iter().filter(|s| s.open && !s.smtp_shares).count() as f64 / pop.len() as f64;
        let both = pop.iter().filter(|s| s.open && s.smtp_shares).count() as f64 / pop.len() as f64;
        assert!((smtp - 0.113).abs() < 0.01);
        assert!((open - 0.023).abs() < 0.005);
        assert!((both - 0.002).abs() < 0.002);
    }

    #[test]
    fn populations_are_deterministic_per_seed() {
        assert_eq!(pool_servers(100, 9), pool_servers(100, 9));
        assert_ne!(pool_servers(100, 9), pool_servers(100, 10));
    }

    #[test]
    fn per_index_accessors_match_materialized_populations() {
        // The whole lazy-generation contract: item `idx` of every
        // `Vec`-returning generator is bit-identical to the `*_at`
        // accessor, at any index, in any order.
        let resolvers = open_resolvers(200, 11);
        let servers = pool_servers(200, 12);
        let nameservers = domain_nameservers(200, 13);
        let shared = shared_resolvers(200, 14);
        let clients = ad_clients_scaled(15, 0.03);
        assert_eq!(clients.len(), ad_client_count(0.03));
        for idx in [0usize, 1, 7, 42, 111, 199] {
            assert_eq!(resolvers[idx], open_resolver_at(11, idx));
            assert_eq!(servers[idx], pool_server_at(12, idx));
            assert_eq!(nameservers[idx], domain_nameserver_at(13, idx));
            assert_eq!(shared[idx], shared_resolver_at(14, idx));
        }
        for idx in [0usize, 29, 30, 100, clients.len() - 1] {
            assert_eq!(clients[idx], ad_client_at(15, 0.03, idx));
        }
    }

    #[test]
    fn permute_index_is_a_bijection() {
        for n in [1usize, 2, 3, 30, 97, 838] {
            for seed in [0u64, 7, 0xDEAD_BEEF] {
                let mut seen = vec![false; n];
                for idx in 0..n {
                    let out = permute_index(n, seed, idx);
                    assert!(out < n, "out of range: {out} for n={n}");
                    assert!(!seen[out], "collision at {out} for n={n} seed={seed}");
                    seen[out] = true;
                }
            }
        }
    }

    #[test]
    fn ad_quotas_are_exact_per_region() {
        // Stratified quotas must hold *exactly* (not just within
        // tolerance): the Feistel permutation only rearranges the blocks.
        let pop = ad_clients_scaled(5, 1.0);
        for region in Region::all() {
            let clients: Vec<_> = pop.iter().filter(|c| c.region == region).collect();
            let count = clients.len();
            let n_tiny = (count as f64 * region.p_accept_tiny()).round() as usize;
            let tiny = clients.iter().filter(|c| c.min_fragment_accepted == 0).count();
            assert_eq!(tiny, n_tiny, "{}: tiny quota", region.name());
            let p_google = if region == Region::NorthernAmerica { 0.10 } else { 0.135 };
            let n_google = (count as f64 * p_google).round() as usize;
            let google = clients.iter().filter(|c| c.google_resolver).count();
            assert_eq!(google, n_google, "{}: google quota", region.name());
        }
    }
}
