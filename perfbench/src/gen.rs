//! Seeded, deterministic inputs: the workload shapes, the per-connection
//! op streams of the served workloads and the profile stream of the
//! offline workload. The same seed gives a byte-identical stream; the
//! program under test only ever sees the generated requests.

use bucketrank_core::{BucketOrder, TypeSeq};
use bucketrank_server::{MetricKind, Request, WirePolicy};
use bucketrank_workloads::mallows::{Mallows, MallowsWithTies};
use bucketrank_workloads::random::{random_few_valued, random_type, ZipfSampler};
use bucketrank_workloads::rng::{Pcg32, Rng, SeedableRng};
use std::sync::Arc;

/// Which op mix a served workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 70% replace, 20% push+remove pairs, 10% `median_order`.
    Ingest,
    /// 95% reads (`median_order` / `top_k` / `kemeny_cost` /
    /// `pair_metric`), 5% replace.
    Point,
    /// 97% reads over every read kind incl. the weighted pair, 3%
    /// replace.
    Wide,
}

/// The shape of one served workload.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Sessions in the table.
    pub sessions: usize,
    /// Domain size of every session.
    pub n: usize,
    /// Voters pushed into each session at set-up.
    pub seed_voters: usize,
    /// Load connections (each owns the sessions `i ≡ conn mod conns`).
    pub conns: usize,
    /// Outstanding frames per connection (closed loop).
    pub window: usize,
    /// Ops per frame: 1 sends v1 frames, more sends v2 `Batch` frames.
    pub batch: usize,
    /// Offered rate in requests/s for an open loop; `None` is closed.
    pub rate: Option<f64>,
    /// Serve from a durable data directory.
    pub durable: bool,
    /// `--max-sessions` of the served process.
    pub max_sessions: usize,
    /// Op mix.
    pub mix: Mix,
    /// Zipf(1.1) session popularity; uniform when false.
    pub zipf: bool,
    /// Distinct bucket levels of a generated ranking (ties).
    pub levels: usize,
}

/// `ingest_durable`: durable edits over a table 4× the resident cache.
pub const INGEST: Shape = Shape {
    name: "ingest_durable",
    sessions: 1024,
    n: 64,
    seed_voters: 16,
    conns: 2,
    window: 8,
    batch: 1,
    rate: None,
    durable: true,
    max_sessions: 256,
    mix: Mix::Ingest,
    zipf: true,
    levels: 8,
};

/// `point_reads`: paced single-frame reads over a wide, resident table.
pub const POINT: Shape = Shape {
    name: "point_reads",
    sessions: 4096,
    n: 32,
    seed_voters: 8,
    conns: 1,
    window: 0,
    batch: 1,
    rate: Some(8000.0),
    durable: false,
    max_sessions: 8192,
    mix: Mix::Point,
    zipf: true,
    levels: 6,
};

/// `wide_profiles`: batched compute-heavy ops at n = 512.
pub const WIDE: Shape = Shape {
    name: "wide_profiles",
    sessions: 8,
    n: 512,
    seed_voters: 32,
    conns: 2,
    window: 4,
    batch: 16,
    rate: None,
    durable: false,
    max_sessions: 64,
    mix: Mix::Wide,
    zipf: false,
    levels: 16,
};

/// Rankings an op stream draws from (set-up voters, replacements,
/// Kemeny candidates).
const POOL: usize = 256;

/// Session name of table index `s`.
pub fn session_name(s: usize) -> String {
    format!("s{s}")
}

/// Independent RNG stream for one purpose of one seed.
pub fn rng_for(seed: u64, stream: u64) -> Pcg32 {
    Pcg32::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The shared inputs of one served workload: a ranking pool and the
/// weight vector of the weighted kernels.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Generated rankings.
    pub pool: Arc<Vec<BucketOrder>>,
    /// Per-position weights (integer units, decreasing).
    pub weights: Arc<Vec<u64>>,
}

impl Inputs {
    /// Generates the pool for `shape` from `seed`.
    pub fn new(shape: &Shape, seed: u64) -> Inputs {
        let mut rng = rng_for(seed, 1);
        let pool = (0..POOL)
            .map(|_| random_few_valued(&mut rng, shape.n, shape.levels))
            .collect();
        // DCG-like integer weights: heavy at the top, never zero.
        let weights = (0..shape.n).map(|p| 1 + 4096 / (p as u64 + 1)).collect();
        Inputs {
            pool: Arc::new(pool),
            weights: Arc::new(weights),
        }
    }

    /// The `i`-th voter seeded into session `s`.
    pub fn seed_voter(&self, seed: u64, s: usize, i: usize) -> &BucketOrder {
        let mut rng = rng_for(seed, 0x5eed_0000 + (s * 4096 + i) as u64);
        &self.pool[rng.gen_range(0..self.pool.len())]
    }
}

/// What a request is, and what its reply must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Create a session; expects `SessionCreated`.
    Create,
    /// Push; expects `VoterPushed` with this id.
    Push(u64),
    /// Remove; expects `VoterRemoved`.
    Remove,
    /// Replace; expects `VoterReplaced`.
    Replace,
    /// `median_order`; expects an `n`-element `Ranking`.
    Median,
    /// `top_k`; expects an `n`-element `Ranking`.
    TopK,
    /// `kemeny_cost`; expects `CostX2`.
    Kemeny,
    /// `pair_metric`; expects `CostX2`.
    Pair,
    /// `weighted_dist` or `top_diff`; expects `CostX2`.
    Weighted,
}

impl Kind {
    /// Edits change session state; everything else reads it.
    pub fn is_edit(self) -> bool {
        matches!(self, Kind::Create | Kind::Push(_) | Kind::Remove | Kind::Replace)
    }

    /// A short stable label.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Create => "create",
            Kind::Push(_) => "push",
            Kind::Remove => "remove",
            Kind::Replace => "replace",
            Kind::Median => "median_order",
            Kind::TopK => "top_k",
            Kind::Kemeny => "kemeny_cost",
            Kind::Pair => "pair_metric",
            Kind::Weighted => "weighted",
        }
    }
}

/// One generated request with its session and expected reply kind.
#[derive(Debug, Clone)]
pub struct Op {
    /// Table index of the addressed session.
    pub session: usize,
    /// Expected reply.
    pub kind: Kind,
    /// The request itself.
    pub req: Request,
}

/// Live-voter bookkeeping of one owned session, as the generator
/// predicts it (ids are issued sequentially per session).
#[derive(Debug, Clone)]
struct Tracked {
    live: Vec<u64>,
    next_id: u64,
}

/// The deterministic op stream of one load connection.
pub struct OpGen {
    rng: Pcg32,
    shape: Shape,
    inputs: Inputs,
    owned: Vec<usize>,
    zipf: Option<ZipfSampler>,
    tracked: Vec<Tracked>,
    queued: Option<Op>,
}

impl OpGen {
    /// Sessions owned by connection `conn` of `shape`.
    pub fn owned(shape: &Shape, conn: usize) -> Vec<usize> {
        (conn..shape.sessions).step_by(shape.conns).collect()
    }

    /// The stream of connection `conn`, starting after set-up (every
    /// owned session holds its seeded voters `0..seed_voters`).
    pub fn new(shape: &Shape, inputs: &Inputs, seed: u64, conn: usize) -> OpGen {
        let owned = OpGen::owned(shape, conn);
        let tracked = owned
            .iter()
            .map(|_| Tracked {
                live: (0..shape.seed_voters as u64).collect(),
                next_id: shape.seed_voters as u64,
            })
            .collect();
        OpGen {
            rng: rng_for(seed, 0x0b5 + conn as u64),
            zipf: shape.zipf.then(|| ZipfSampler::new(owned.len(), 1.1)),
            owned,
            tracked,
            shape: shape.clone(),
            inputs: inputs.clone(),
            queued: None,
        }
    }

    fn ranking(&mut self) -> BucketOrder {
        self.inputs.pool[self.rng.gen_range(0..self.inputs.pool.len())].clone()
    }

    fn voter(&mut self, local: usize) -> u64 {
        let live = &self.tracked[local].live;
        live[self.rng.gen_range(0..live.len())]
    }

    /// The next op of the stream.
    pub fn next_op(&mut self) -> Op {
        if let Some(op) = self.queued.take() {
            return op;
        }
        let local = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.owned.len()),
        };
        let s = self.owned[local];
        let name = session_name(s);
        let roll = self.rng.gen_range(0..100u32);
        let (edit_pct, pair_pct) = match self.shape.mix {
            Mix::Ingest => (70, 20),
            Mix::Point => (5, 0),
            Mix::Wide => (3, 0),
        };
        if roll < edit_pct {
            let voter = self.voter(local);
            let ranking = self.ranking();
            return Op {
                session: s,
                kind: Kind::Replace,
                req: Request::ReplaceVoter {
                    session: name,
                    voter,
                    ranking,
                },
            };
        }
        if roll < edit_pct + pair_pct {
            // Push a fresh voter now and retire a random older one next,
            // so the session's size stays near its seeded count.
            let gone = self.voter(local);
            let ranking = self.ranking();
            let t = &mut self.tracked[local];
            let id = t.next_id;
            t.next_id += 1;
            t.live.retain(|&v| v != gone);
            t.live.push(id);
            self.queued = Some(Op {
                session: s,
                kind: Kind::Remove,
                req: Request::RemoveVoter {
                    session: name.clone(),
                    voter: gone,
                },
            });
            return Op {
                session: s,
                kind: Kind::Push(id),
                req: Request::PushVoter {
                    session: name,
                    ranking,
                },
            };
        }
        let reads: &[Kind] = match self.shape.mix {
            Mix::Ingest => &[Kind::Median],
            Mix::Point => &[Kind::Median, Kind::TopK, Kind::Kemeny, Kind::Pair],
            Mix::Wide => &[
                Kind::Kemeny,
                Kind::Median,
                Kind::TopK,
                Kind::Pair,
                Kind::Pair,
                Kind::Pair,
                Kind::Pair,
                Kind::Weighted,
                Kind::Weighted,
            ],
        };
        let kind = reads[self.rng.gen_range(0..reads.len())];
        let req = match kind {
            Kind::Median => Request::MedianOrder { session: name },
            Kind::TopK => Request::TopK {
                session: name,
                k: self.rng.gen_range(1..=self.shape.n as u32),
            },
            Kind::Kemeny => Request::KemenyCost {
                session: name,
                candidate: self.ranking(),
            },
            Kind::Pair => Request::PairMetric {
                session: name,
                metric: MetricKind::ALL[self.rng.gen_range(0..4usize)],
                voter_a: self.voter(local),
                voter_b: self.voter(local),
            },
            _ => {
                let (voter_a, voter_b) = (self.voter(local), self.voter(local));
                let weights = self.inputs.weights.to_vec();
                if self.rng.gen_bool(0.5) {
                    Request::WeightedDist {
                        session: name,
                        voter_a,
                        voter_b,
                        weights,
                    }
                } else {
                    Request::TopDiff {
                        session: name,
                        voter_a,
                        voter_b,
                        weights,
                    }
                }
            }
        };
        Op {
            session: s,
            kind,
            req,
        }
    }
}

/// The set-up ops of connection `conn`: create each owned session, then
/// push its seeded voters.
pub fn setup_ops(shape: &Shape, inputs: &Inputs, seed: u64, conn: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    for s in OpGen::owned(shape, conn) {
        ops.push(Op {
            session: s,
            kind: Kind::Create,
            req: Request::CreateSession {
                name: session_name(s),
                n: shape.n as u32,
                policy: WirePolicy::Lower,
            },
        });
        for i in 0..shape.seed_voters {
            ops.push(Op {
                session: s,
                kind: Kind::Push(i as u64),
                req: Request::PushVoter {
                    session: session_name(s),
                    ranking: inputs.seed_voter(seed, s, i).clone(),
                },
            });
        }
    }
    ops
}

/// Shape of the offline workload.
pub const OFFLINE_M: usize = 64;
/// Domain size of the offline profiles.
pub const OFFLINE_N: usize = 256;
/// Elements of the restriction the minmax heuristic pipeline runs on
/// (at the full 256 it costs about half a second per profile).
pub const OFFLINE_MINMAX_N: usize = 64;
/// Elements of the restriction the exact solvers run on.
pub const OFFLINE_EXACT_N: usize = 10;
/// Distinct profiles the offline stream cycles through.
pub const OFFLINE_POOL: usize = 32;

/// The `i`-th profile of the offline stream: `OFFLINE_M` typed-Mallows
/// voters over `OFFLINE_N` elements, each profile with its own random
/// bucket type, so every voter carries ties.
pub fn offline_profile(seed: u64, i: usize) -> Vec<BucketOrder> {
    let mut rng = rng_for(seed, 0x0ff_0000 + i as u64);
    let alpha: TypeSeq = random_type(&mut rng, OFFLINE_N);
    let model = MallowsWithTies::new(Mallows::new(OFFLINE_N, 0.2), alpha);
    model.sample_profile(&mut rng, OFFLINE_M)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(shape: &Shape, seed: u64, conn: usize, count: usize) -> Vec<u8> {
        let inputs = Inputs::new(shape, seed);
        let mut out = Vec::new();
        for op in setup_ops(shape, &inputs, seed, conn) {
            out.extend(op.req.encode());
        }
        let mut gen = OpGen::new(shape, &inputs, seed, conn);
        for _ in 0..count {
            out.extend(gen.next_op().req.encode());
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_op_streams() {
        for shape in [&INGEST, &POINT, &WIDE] {
            for conn in 0..shape.conns {
                let a = stream_bytes(shape, 42, conn, 2000);
                let b = stream_bytes(shape, 42, conn, 2000);
                assert_eq!(a, b, "{} conn {conn}", shape.name);
                let c = stream_bytes(shape, 43, conn, 2000);
                assert_ne!(a, c, "{} conn {conn}: seed must matter", shape.name);
            }
        }
    }

    #[test]
    fn same_seed_gives_identical_profile_streams() {
        let flat = |seed| -> Vec<u32> {
            (0..2)
                .flat_map(|i| offline_profile(seed, i))
                .flat_map(|r| r.bucket_indices().to_vec())
                .collect()
        };
        assert_eq!(flat(7), flat(7));
        assert_ne!(flat(7), flat(8));
        let p = offline_profile(7, 0);
        assert_eq!(p.len(), OFFLINE_M);
        assert!(p.iter().all(|r| r.len() == OFFLINE_N));
        assert!(p.iter().any(|r| !r.is_full()), "profiles must carry ties");
    }

    #[test]
    fn streams_only_address_owned_sessions_and_live_voters() {
        let inputs = Inputs::new(&INGEST, 3);
        for conn in 0..INGEST.conns {
            let mut gen = OpGen::new(&INGEST, &inputs, 3, conn);
            let mut live: std::collections::HashMap<usize, Vec<u64>> = OpGen::owned(&INGEST, conn)
                .into_iter()
                .map(|s| (s, (0..16).collect()))
                .collect();
            for _ in 0..5000 {
                let op = gen.next_op();
                assert_eq!(op.session % INGEST.conns, conn);
                let l = live.get_mut(&op.session).expect("owned");
                match (&op.kind, &op.req) {
                    (Kind::Push(id), _) => l.push(*id),
                    (Kind::Remove, Request::RemoveVoter { voter, .. }) => {
                        assert!(l.contains(voter));
                        l.retain(|v| v != voter);
                    }
                    (Kind::Replace, Request::ReplaceVoter { voter, .. }) => {
                        assert!(l.contains(voter))
                    }
                    _ => {}
                }
                assert!(!l.is_empty());
            }
        }
    }
}
