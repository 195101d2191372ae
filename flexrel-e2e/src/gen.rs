//! Deterministic input generation: a seeded PRNG, the Zipf kind picker and
//! the per-session statement rings.
//!
//! Everything a measured loop issues is generated here, before the clock
//! starts, from `--seed` alone — the same seed gives the same rings.

use std::collections::VecDeque;

use flexrel_workload::WideConfig;

/// Number of variants (tuple shapes) of the seeded `wide` relation.
pub const VARIANTS: usize = 8;
/// Zipf exponent of the seeded kind distribution.
pub const SKEW: f64 = 0.5;
/// Statements per session ring; rings are cycled, so a run may issue more.
pub const RING_LEN: usize = 16_384;
/// Most acked-but-not-yet-deleted inserts a session keeps; bounds the
/// closing drain that makes a ring net-zero.
const MAX_LIVE: usize = 32;
/// Inserted ids start here, far above every seeded id.
const INSERT_ID_BASE: i64 = 1_000_000_000;
/// Id space reserved per session, so sessions never collide.
const INSERT_ID_STRIDE: i64 = 10_000_000;

/// splitmix64: tiny, seedable, and good enough to pick ids and kinds.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The statement kinds of the benchmark (names are normative).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Lookup,
    Join,
    Agg,
    Scan,
    Group,
    Insert,
    Delete,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Lookup,
        Kind::Join,
        Kind::Agg,
        Kind::Scan,
        Kind::Group,
        Kind::Insert,
        Kind::Delete,
    ];
    /// The five kinds that are FRQL queries.
    pub const QUERIES: [Kind; 5] = [Kind::Lookup, Kind::Join, Kind::Agg, Kind::Scan, Kind::Group];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Lookup => "lookup",
            Kind::Join => "join",
            Kind::Agg => "agg",
            Kind::Scan => "scan",
            Kind::Group => "group",
            Kind::Insert => "insert",
            Kind::Delete => "delete",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn is_write(self) -> bool {
        matches!(self, Kind::Insert | Kind::Delete)
    }
}

/// One pre-generated statement: its kind, the `id` it probes, inserts or
/// deletes (`lookup`, `join`, `insert`, `delete`) and the variant it
/// selects or inserts into (`agg`, `scan`, `insert`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub id: i64,
    pub variant: usize,
}

impl Op {
    /// Whether every statement of this op's kind does the same work as this
    /// one.  An `agg` or `scan` costs in proportion to the variant it
    /// selects (1 770 to 5 000 rows), so only those on the largest variant,
    /// `k0`, are comparable with each other; every other kind is uniform.
    pub fn same_work_every_time(&self) -> bool {
        !matches!(self.kind, Kind::Agg | Kind::Scan) || self.variant == 0
    }
}

/// What the seeded relation looks like; the verifier's ground truth.
#[derive(Clone, Debug)]
pub struct Seeded {
    pub n: usize,
    /// Seeded tuples per variant.
    pub counts: Vec<usize>,
    /// Cumulative `counts`, for Zipf picks weighted like the data.
    cumulative: Vec<u64>,
}

impl Seeded {
    pub fn new(n: usize) -> Self {
        let counts = WideConfig::new(n, VARIANTS)
            .with_skew(SKEW)
            .variant_counts();
        let mut acc = 0u64;
        let cumulative = counts
            .iter()
            .map(|c| {
                acc += *c as u64;
                acc
            })
            .collect();
        Seeded {
            n,
            counts,
            cumulative,
        }
    }

    /// Picks a variant with probability proportional to its seeded share.
    pub fn pick_variant(&self, rng: &mut Rng) -> usize {
        let x = rng.below(self.n as u64);
        self.cumulative.partition_point(|&c| c <= x)
    }
}

/// A statement mix: `(kind, weight)` pairs whose weights are multiples of
/// 5 and sum to 100.
pub type Mix<'a> = &'a [(Kind, u32)];

/// The mix is dealt in blocks of this many statements.
const BLOCK: usize = 20;

/// One block of the mix: every kind exactly at its share, in an order the
/// seed decides.  A mix drawn statement by statement would leave a
/// two-second window of a slow workload with 60 ± 7 joins, and the joins'
/// share of the time, not flexrel, would set that window's throughput.
fn block(mix: Mix<'_>, rng: &mut Rng) -> Vec<Kind> {
    let mut kinds: Vec<Kind> = mix
        .iter()
        .flat_map(|(kind, weight)| {
            assert!(weight % 5 == 0, "mix weights are multiples of 5");
            std::iter::repeat_n(*kind, *weight as usize * BLOCK / 100)
        })
        .collect();
    assert_eq!(kinds.len(), BLOCK, "mix weights sum to 100");
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    kinds
}

/// Generates one session's ring, block by block.  Writes are simulated
/// while generating:
/// a `delete` always names the session's oldest not-yet-deleted insert (so
/// every delete must find exactly one tuple), a delete drawn while nothing
/// is live becomes an insert, and the ring ends by deleting whatever is
/// still live — one pass over the ring is net-zero, so it can be cycled.
pub fn ring(mix: Mix<'_>, len: usize, seed: u64, session: usize, seeded: &Seeded) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ (session as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut next_id = INSERT_ID_BASE + session as i64 * INSERT_ID_STRIDE;
    let mut live: VecDeque<i64> = VecDeque::new();
    let mut ops = Vec::with_capacity(len + BLOCK + MAX_LIVE);
    let mut dealt = Vec::new();
    while ops.len() < len {
        if dealt.is_empty() {
            dealt = block(mix, &mut rng);
        }
        let mut kind = dealt.pop().expect("just dealt");
        if kind == Kind::Delete && live.is_empty() {
            kind = Kind::Insert;
        } else if kind == Kind::Insert && live.len() >= MAX_LIVE {
            kind = Kind::Delete;
        }
        let op = match kind {
            Kind::Lookup | Kind::Join => Op {
                kind,
                id: rng.below(seeded.n as u64) as i64,
                variant: 0,
            },
            Kind::Agg | Kind::Scan => Op {
                kind,
                id: 0,
                variant: seeded.pick_variant(&mut rng),
            },
            Kind::Group => Op {
                kind,
                id: 0,
                variant: 0,
            },
            Kind::Insert => {
                let id = next_id;
                next_id += 1;
                live.push_back(id);
                Op {
                    kind,
                    id,
                    variant: seeded.pick_variant(&mut rng),
                }
            }
            Kind::Delete => Op {
                kind,
                id: live.pop_front().expect("a delete is only drawn when live"),
                variant: 0,
            },
        };
        ops.push(op);
    }
    while let Some(id) = live.pop_front() {
        ops.push(Op {
            kind: Kind::Delete,
            id,
            variant: 0,
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    const WRITES: Mix<'static> = &[(Kind::Lookup, 40), (Kind::Insert, 30), (Kind::Delete, 30)];

    #[test]
    fn rings_repeat_under_a_fixed_seed_and_differ_across_seeds_and_sessions() {
        let seeded = Seeded::new(2_000);
        let a = ring(WRITES, 512, 11, 0, &seeded);
        assert_eq!(a, ring(WRITES, 512, 11, 0, &seeded));
        assert_ne!(a, ring(WRITES, 512, 12, 0, &seeded));
        assert_ne!(a, ring(WRITES, 512, 11, 1, &seeded));
    }

    #[test]
    fn a_ring_is_net_zero_and_every_delete_names_a_live_insert() {
        let seeded = Seeded::new(2_000);
        for session in 0..3 {
            let mut live = std::collections::BTreeSet::new();
            for op in ring(WRITES, 1_000, 7, session, &seeded) {
                match op.kind {
                    Kind::Insert => assert!(live.insert(op.id), "id reused: {}", op.id),
                    Kind::Delete => assert!(live.remove(&op.id), "delete of dead id"),
                    _ => assert!((op.id as usize) < seeded.n),
                }
                assert!(live.len() <= MAX_LIVE);
            }
            assert!(live.is_empty());
        }
    }

    #[test]
    fn variant_picks_follow_the_seeded_zipf_shares() {
        let seeded = Seeded::new(20_000);
        assert_eq!(seeded.counts.iter().sum::<usize>(), 20_000);
        let mut rng = Rng::new(3);
        let mut hits = [0usize; VARIANTS];
        for _ in 0..100_000 {
            hits[seeded.pick_variant(&mut rng)] += 1;
        }
        for (v, h) in hits.iter().enumerate() {
            let expect = seeded.counts[v] as f64 / 20_000.0;
            let got = *h as f64 / 100_000.0;
            assert!(
                (got - expect).abs() < 0.01,
                "variant {v}: {got} vs {expect}"
            );
        }
        assert!(hits[0] > hits[7], "skew favours the low variants");
    }

    #[test]
    fn every_block_of_twenty_holds_the_exact_mix_in_a_seeded_order() {
        let seeded = Seeded::new(2_000);
        let mix: Mix<'_> = &[(Kind::Lookup, 75), (Kind::Group, 25)];
        let ops = ring(mix, 2_000, 5, 0, &seeded);
        let mut orders = std::collections::BTreeSet::new();
        for chunk in ops.chunks(BLOCK) {
            let groups = chunk.iter().filter(|o| o.kind == Kind::Group).count();
            assert_eq!(groups, 5);
            orders.insert(chunk.iter().map(|o| o.kind).collect::<Vec<_>>());
        }
        assert!(orders.len() > 50, "blocks are shuffled: {}", orders.len());
    }
}
