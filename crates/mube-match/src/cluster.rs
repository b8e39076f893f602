//! Greedy constrained similarity clustering — Algorithm 1 of the paper.
//!
//! Starting from one cluster per attribute (plus one *keep* cluster per user
//! GA constraint), the algorithm repeatedly merges the most similar pair of
//! clusters whose union is still a valid GA, where cluster similarity is the
//! **maximum** similarity between an attribute of one cluster and an
//! attribute of the other. Clusters whose best similarity to every other
//! cluster falls below the threshold `θ` are pruned. The surviving clusters
//! are the GAs of the generated mediated schema.
//!
//! The max-linkage definition is what makes GA constraints act as *bridges*:
//! a constraint cluster `{F name, Prenom}` attracts attributes similar to
//! either member without the dissimilar member penalizing them — "the user
//! provides an example of a matching, and `µBE` expands it".
//!
//! Two clarifications of the paper's pseudocode (its printed guards are
//! garbled by the PDF-to-text conversion) that we adopt, guided by the
//! stated termination condition and Figure 3:
//!
//! * another round runs whenever *any* merge happened, not only when a
//!   merge candidate was starved (so mutually-similar merged clusters can
//!   keep coalescing, as in Figure 3(b)→(c));
//! * elimination at the end of a round removes clusters that were never
//!   merged, are not pending merge candidates, and are not user-kept.
//!
//! # Per-component runs
//!
//! Two clusters can only merge across a θ-edge (a name pair whose clamped
//! similarity reaches `θ`) or inside a GA-constraint seed, and one round's
//! merge flags only touch the two clusters of a pair. So Algorithm 1 over a
//! selection is the union of independent runs over the connected components
//! of that graph. [`ClusterMatcher`] partitions the universe's distinct
//! names once per `(θ, seeds)`, memoizes every component's outcome, and
//! runs Algorithm 1 only over the components of a call that the memo
//! misses: a tabu move re-clusters only the components its source touches.
//! Each final cluster carries an *order key* (see `Origin`) that
//! reproduces its position in the one-run output, so the schema's GA order
//! and the `F1` sum are bit for bit those of a single run.

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::{Arc, Mutex};

use mube_core::constraints::Constraints;
use mube_core::ga::{GlobalAttribute, MediatedSchema};
use mube_core::ids::{AttrId, SourceId};
use mube_core::matchop::{MatchOperator, MatchOutcome};
use mube_core::source::Universe;

use crate::cache::SimilarityCache;
use crate::similarity::Similarity;

/// Most component outcomes one [`ClusterMatcher`] keeps. The memo holds two
/// generations of at most half this many entries each: when the young one
/// is full it becomes the old one, and the previous old one is dropped.
pub const COMPONENT_MEMO_CAP: usize = 2048;

/// `µBE`'s reference `Match(S)` operator.
///
/// Holds a similarity cache precomputed over the universe it was built for;
/// calls with a different universe are rejected as infeasible (caches and
/// universes travel together). It also holds a bounded memo of
/// per-component clustering outcomes (see [`ClusterMatcher::memo_stats`]);
/// what the memo holds never changes an outcome.
pub struct ClusterMatcher {
    cache: Arc<SimilarityCache>,
    universe_len: usize,
    /// The name partition of the last `(θ, seeds)` seen.
    partition: Mutex<Option<Arc<Partition>>>,
    memo: Mutex<Memo>,
}

impl ClusterMatcher {
    /// Builds a matcher (and its similarity cache) for a universe.
    pub fn new(universe: Arc<Universe>, measure: impl Similarity + 'static) -> Self {
        let cache = Arc::new(SimilarityCache::build(&universe, &measure));
        ClusterMatcher::with_cache(&universe, cache)
    }

    /// Builds a matcher from an existing cache (sharing it with other
    /// components, e.g. diagnostics).
    pub fn with_cache(universe: &Universe, cache: Arc<SimilarityCache>) -> Self {
        ClusterMatcher {
            cache,
            universe_len: universe.len(),
            partition: Mutex::new(None),
            memo: Mutex::new(Memo::new(COMPONENT_MEMO_CAP)),
        }
    }

    /// The underlying similarity cache.
    pub fn cache(&self) -> &Arc<SimilarityCache> {
        &self.cache
    }

    /// Hits, misses and entries of the component memo so far.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.lock().expect("component memo poisoned").stats()
    }

    /// The name partition for `theta` and `seeds`, reusing the last one.
    fn partition(&self, theta: f64, seeds: &[GlobalAttribute]) -> Arc<Partition> {
        let mut slot = self.partition.lock().expect("name partition poisoned");
        match slot.as_ref() {
            Some(p) if p.theta_bits == theta.to_bits() && p.seeds == seeds => Arc::clone(p),
            _ => {
                let p = Arc::new(Partition::build(&self.cache, theta, seeds));
                *slot = Some(Arc::clone(&p));
                p
            }
        }
    }
}

/// Counters of a [`ClusterMatcher`]'s component memo. Components of a
/// single attribute and no seed are never looked up: they always vanish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Component lookups answered from the memo.
    pub hits: u64,
    /// Component lookups that ran Algorithm 1.
    pub misses: u64,
    /// Outcomes held now; never more than [`COMPONENT_MEMO_CAP`].
    pub entries: usize,
}

/// Connected components of the universe's distinct names under one `θ`:
/// two names are joined by a θ-edge (the predicate [`Clustering::edges`]
/// uses), and all names of one seed's attributes are joined. This is
/// coarser than any selection's own components, which keeps each
/// per-component run exact.
struct Partition {
    theta_bits: u64,
    seeds: Vec<GlobalAttribute>,
    /// Name id → component representative.
    component: Vec<u32>,
}

impl Partition {
    fn build(cache: &SimilarityCache, theta: f64, seeds: &[GlobalAttribute]) -> Self {
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        fn union(parent: &mut [u32], a: u32, b: u32) {
            let (ra, rb) = (find(parent, a), find(parent, b));
            parent[ra.max(rb) as usize] = ra.min(rb);
        }
        let d = cache.distinct_names() as u32;
        let mut parent: Vec<u32> = (0..d).collect();
        for a in 0..d {
            for b in a + 1..d {
                let s = cache.sim_by_name_id(a, b);
                let e = if s > 0.0 { s } else { 0.0 };
                if e >= theta {
                    union(&mut parent, a, b);
                }
            }
        }
        for seed in seeds {
            let mut names = seed.attrs().iter().map(|&a| cache.name_id(a));
            if let Some(first) = names.next() {
                for n in names {
                    union(&mut parent, first, n);
                }
            }
        }
        let component = (0..d).map(|n| find(&mut parent, n)).collect();
        Partition {
            theta_bits: theta.to_bits(),
            seeds: seeds.to_vec(),
            component,
        }
    }
}

/// One final cluster of a component run.
struct FinalCluster {
    /// Its order key's range in [`Outcome::keys`] (see [`Origin`]).
    key: Range<usize>,
    ga: GlobalAttribute,
    /// Best similarity between two members (1.0 for a singleton).
    quality: f64,
}

/// A component's final clusters.
struct Outcome {
    /// The clusters' order keys, concatenated.
    keys: Box<[u64]>,
    clusters: Box<[FinalCluster]>,
}

/// A memoized component: `None` if none of its clusters survives.
type ComponentOutcome = Option<Arc<Outcome>>;

type MemoMap = HashMap<Box<[u64]>, ComponentOutcome>;

/// Component outcomes keyed by `θ`, the component's attributes and its
/// seeds (see [`ClusterMatcher::match_sources`]), in two bounded
/// generations.
struct Memo {
    cap: usize,
    young: MemoMap,
    old: MemoMap,
    hits: u64,
    misses: u64,
}

impl Memo {
    fn new(cap: usize) -> Self {
        Memo {
            cap,
            young: MemoMap::default(),
            old: MemoMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    fn get(&mut self, key: &[u64]) -> Option<ComponentOutcome> {
        let found = match self.young.get(key) {
            Some(v) => Some(v.clone()),
            None => self.old.remove_entry(key).map(|(k, v)| {
                self.insert(k, v.clone());
                v
            }),
        };
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    fn insert(&mut self, key: Box<[u64]>, value: ComponentOutcome) {
        if self.young.len() >= self.cap / 2 {
            self.old = std::mem::take(&mut self.young);
        }
        self.young.insert(key, value);
    }

    fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.young.len() + self.old.len(),
        }
    }
}

/// Marks an attribute whose cluster was eliminated.
const GONE: u32 = u32::MAX;

/// Marks an attribute outside every seed.
const NO_SEED: u32 = u32::MAX;

/// `AttrId` as one `u64`, in `AttrId` order.
fn pack(a: AttrId) -> u64 {
    (u64::from(a.source.0) << 32) | u64::from(a.index)
}

/// Where a cluster came from. A cluster's order key is this tree flattened
/// in pre-order:
///
/// * a seed: `[MAX, 0, seed index]`;
/// * an attribute: `[MAX, 1, AttrId]`;
/// * a merge in round `r` of a pair with best edge `s`:
///   `[MAX − r, −s, key(first parent), key(second parent)]`, `−s` encoded
///   so that higher similarities sort first.
///
/// Round `r` lists its merges first, in the order of their pairs' keys
/// `(−s, i, j)`, then the unmerged survivors in their previous order. By
/// induction every list is sorted by this key, and the key is prefix-free
/// and uses only global ids, so clusters from different components compare
/// exactly as they would sit in one run's list.
#[derive(Clone, Copy)]
enum Origin {
    Seed(u32),
    Attr(AttrId),
    Merge {
        round: u32,
        s: f64,
        first: u32,
        second: u32,
    },
}

/// One cluster during Algorithm 1. Its members form a circular list
/// through [`Clustering::next`]; its sources are one bitset row of
/// [`Clustering::srcs`].
#[derive(Clone, Copy)]
struct Cluster {
    /// Any member attribute (local index).
    head: u32,
    /// User-kept (seeded from a GA constraint): immune to elimination and
    /// to the θ bound.
    keep: bool,
    /// Ever produced by a merge (size ≥ 2 growth); immune to elimination.
    formed_by_merge: bool,
    /// Index into [`Clustering::origins`].
    origin: u32,
}

/// Algorithm 1's working state over a set of attributes: a whole selection,
/// or the θ-components of one that the memo missed. The attributes are
/// numbered locally, so no per-call structure grows with the universe.
struct Clustering<'c> {
    cache: &'c SimilarityCache,
    /// Local index → attribute.
    attrs: Vec<AttrId>,
    /// Local index → interned name id.
    names: Vec<u32>,
    /// Circular member lists: `next[a]` follows `a` in its cluster.
    next: Vec<u32>,
    /// Current clusters, in the order Algorithm 1 numbers them.
    clusters: Vec<Cluster>,
    /// How every cluster ever built came to be.
    origins: Vec<Origin>,
    /// `u64` words per source bitset (one bit per source among `attrs`).
    words: usize,
    /// Row `c` (`words` wide) holds the sources of cluster `c`.
    srcs: Vec<u64>,
}

/// The attributes of `sources`, in `AttrId` order; `None` if a source is
/// not in the universe.
fn selection_attrs(universe: &Universe, sources: &BTreeSet<SourceId>) -> Option<Vec<AttrId>> {
    let mut attrs = Vec::new();
    for &sid in sources {
        attrs.extend(universe.get(sid)?.attr_ids());
    }
    Some(attrs)
}

/// Each seed's members as indices into `attrs`; `None` if a seed names an
/// attribute outside them.
fn seed_members(attrs: &[AttrId], seeds: &[GlobalAttribute]) -> Option<Vec<Vec<usize>>> {
    seeds
        .iter()
        .map(|seed| {
            seed.attrs()
                .iter()
                .map(|a| attrs.binary_search(a).ok())
                .collect()
        })
        .collect()
}

/// Each attribute's source numbered densely from 0, for `attrs` sorted by
/// source.
fn source_ranks(attrs: &[AttrId]) -> Vec<usize> {
    let mut rank = 0;
    (0..attrs.len())
        .map(|l| {
            if l > 0 && attrs[l - 1].source != attrs[l].source {
                rank += 1;
            }
            rank
        })
        .collect()
}

impl<'c> Clustering<'c> {
    /// Seeds the clusters over a whole selection: merged GA constraints
    /// first (kept), then every remaining attribute as its own cluster.
    /// `None` if a seed names an attribute outside the selection.
    #[cfg(test)]
    fn new(
        cache: &'c SimilarityCache,
        universe: &Universe,
        sources: &BTreeSet<SourceId>,
        seeds: &[GlobalAttribute],
    ) -> Option<Self> {
        let attrs = selection_attrs(universe, sources)?;
        let seeds: Vec<(u32, Vec<usize>)> = (0u32..).zip(seed_members(&attrs, seeds)?).collect();
        let src_of = source_ranks(&attrs);
        Some(Clustering::seeded(cache, attrs, &src_of, &seeds))
    }

    /// Seeds the clusters over `attrs`: each `(seed index, members)` entry
    /// first (kept), then every remaining attribute as its own cluster.
    /// `src_of[l]` numbers the source of `attrs[l]` densely. Within one
    /// θ-component the attributes must be in `AttrId` order, as Algorithm 1
    /// numbers its initial clusters.
    fn seeded(
        cache: &'c SimilarityCache,
        attrs: Vec<AttrId>,
        src_of: &[usize],
        seeds: &[(u32, Vec<usize>)],
    ) -> Self {
        let n = attrs.len();
        let words = src_of.iter().max().map_or(0, |&r| (r + 1).div_ceil(64));
        let mut k = Clustering {
            cache,
            names: attrs.iter().map(|&a| cache.name_id(a)).collect(),
            next: (0..n as u32).collect(),
            clusters: Vec::with_capacity(n),
            origins: Vec::with_capacity(2 * n),
            words,
            srcs: Vec::with_capacity(words * n),
            attrs,
        };
        let mut seeded = vec![false; n];
        for (index, members) in seeds {
            for &l in members {
                seeded[l] = true;
            }
            k.push(members, true, Origin::Seed(*index), src_of);
        }
        for l in (0..n).filter(|&l| !seeded[l]) {
            k.push(&[l], false, Origin::Attr(k.attrs[l]), src_of);
        }
        k
    }

    /// Appends a cluster of `members` (local indices, non-empty).
    fn push(&mut self, members: &[usize], keep: bool, origin: Origin, src_of: &[usize]) {
        let row = self.srcs.len();
        self.srcs.resize(row + self.words, 0);
        for &l in members {
            self.srcs[row + src_of[l] / 64] |= 1 << (src_of[l] % 64);
            self.next.swap(members[0], l);
        }
        self.origins.push(origin);
        self.clusters.push(Cluster {
            head: members[0] as u32,
            keep,
            formed_by_merge: false,
            origin: (self.origins.len() - 1) as u32,
        });
    }

    /// Every attribute pair whose similarity reaches `theta`, built once per
    /// call by grouping the selection's attributes by name. Similarities are
    /// clamped at 0 (NaN and negatives count as 0), as max-linkage starting
    /// from 0 does; with `theta ≤ 0` every pair is an edge.
    fn edges(&self, theta: f64) -> Vec<(f64, u32, u32)> {
        let mut by_name: Vec<(u32, u32)> = (0..self.attrs.len() as u32)
            .map(|l| (self.names[l as usize], l))
            .collect();
        by_name.sort_unstable();
        let groups = by_name.chunk_by(|x, y| x.0 == y.0);
        let mut edges = Vec::new();
        for (g, ga) in groups.clone().enumerate() {
            for (h, gb) in groups.clone().enumerate().skip(g) {
                let s = self.cache.sim_by_name_id(ga[0].0, gb[0].0);
                let e = if s > 0.0 { s } else { 0.0 };
                if e >= theta {
                    for (i, &(_, u)) in ga.iter().enumerate() {
                        let partners = if h == g { &gb[i + 1..] } else { gb };
                        edges.extend(partners.iter().map(|&(_, v)| (e, u, v)));
                    }
                }
            }
        }
        edges
    }

    fn row(&self, c: usize) -> &[u64] {
        &self.srcs[c * self.words..(c + 1) * self.words]
    }

    /// The greedy merge loop. Each round scores only the cluster pairs the
    /// θ-edges connect — a pair's similarity is its best edge — instead of
    /// every pair of clusters.
    fn run(&mut self, theta: f64) {
        let edges = self.edges(theta);
        let mut cid = vec![GONE; self.attrs.len()];
        let mut pairs: Vec<(f64, u32, u32)> = Vec::with_capacity(edges.len());
        // Per-round buffers, reused: clusters only shrink.
        let mut merged = vec![false; self.clusters.len()];
        let mut mergecand = vec![false; self.clusters.len()];
        let mut survivors: Vec<Cluster> = Vec::with_capacity(self.clusters.len());
        let mut survivor_srcs: Vec<u64> = Vec::with_capacity(self.srcs.len());
        for round in 1u32.. {
            let k = self.clusters.len();
            cid.fill(GONE);
            for (c, cl) in self.clusters.iter().enumerate() {
                let mut a = cl.head;
                loop {
                    cid[a as usize] = c as u32;
                    a = self.next[a as usize];
                    if a == cl.head {
                        break;
                    }
                }
            }
            pairs.clear();
            for &(e, u, v) in &edges {
                let (cu, cv) = (cid[u as usize], cid[v as usize]);
                if cu != cv && cu != GONE && cv != GONE {
                    pairs.push((e, cu.min(cv), cu.max(cv)));
                }
            }
            // Keep each cluster pair's best edge, then order best first with a
            // deterministic tie-break on cluster indices. The dedup does not
            // change which merges happen (a pair's weaker edges come after its
            // best one and find it merged or refused), but it keeps every
            // pair scored by exactly its max-linkage similarity, which is what
            // a merge's order key records.
            pairs.sort_unstable_by(|a, b| (a.1, a.2).cmp(&(b.1, b.2)).then(b.0.total_cmp(&a.0)));
            pairs.dedup_by_key(|p| (p.1, p.2));
            pairs.sort_unstable_by(|a, b| {
                b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
            });

            merged[..k].fill(false);
            mergecand[..k].fill(false);
            survivors.clear();
            survivor_srcs.clear();
            for &(s, i, j) in &pairs {
                let (i, j) = (i as usize, j as usize);
                match (merged[i], merged[j]) {
                    (false, false) => {
                        // Clusters are attribute-disjoint, so their union is
                        // a valid GA iff no source appears in both.
                        let (ri, rj) = (self.row(i), self.row(j));
                        if ri.iter().zip(rj).all(|(x, y)| x & y == 0) {
                            survivor_srcs.extend(ri.iter().zip(rj).map(|(x, y)| x | y));
                            let (ci, cj) = (self.clusters[i], self.clusters[j]);
                            self.next.swap(ci.head as usize, cj.head as usize);
                            merged[i] = true;
                            merged[j] = true;
                            self.origins.push(Origin::Merge {
                                round,
                                s,
                                first: ci.origin,
                                second: cj.origin,
                            });
                            survivors.push(Cluster {
                                head: ci.head,
                                keep: ci.keep || cj.keep,
                                formed_by_merge: true,
                                origin: (self.origins.len() - 1) as u32,
                            });
                        }
                    }
                    (true, false) => mergecand[j] = true,
                    (false, true) => mergecand[i] = true,
                    (true, true) => {}
                }
            }
            let any_merge = !survivors.is_empty();

            // Elimination: survivors are merge results, merge candidates
            // starved this round, previously merged clusters, and user-kept
            // clusters.
            for (c, cl) in self.clusters.iter().enumerate() {
                if !merged[c] && (cl.keep || cl.formed_by_merge || mergecand[c]) {
                    survivors.push(*cl);
                    survivor_srcs.extend_from_slice(self.row(c));
                }
            }
            std::mem::swap(&mut self.clusters, &mut survivors);
            std::mem::swap(&mut self.srcs, &mut survivor_srcs);

            if !any_merge {
                break;
            }
        }
    }

    /// Members of cluster `c`, sorted (local order is `AttrId` order).
    #[cfg(test)]
    fn members(&self, c: usize) -> Vec<u32> {
        let mut out = Vec::new();
        self.members_into(c, &mut out);
        out
    }

    /// Replaces `out` with the members of cluster `c`, sorted.
    fn members_into(&self, c: usize, out: &mut Vec<u32>) {
        let head = self.clusters[c].head;
        out.clear();
        out.push(head);
        let mut a = self.next[head as usize];
        while a != head {
            out.push(a);
            a = self.next[a as usize];
        }
        out.sort_unstable();
    }

    /// Appends the order key of `origin` (see [`Origin`]) to `out`.
    fn order_key(&self, origin: u32, out: &mut Vec<u64>) {
        match self.origins[origin as usize] {
            Origin::Seed(i) => out.extend([u64::MAX, 0, u64::from(i)]),
            Origin::Attr(a) => out.extend([u64::MAX, 1, pack(a)]),
            Origin::Merge {
                round,
                s,
                first,
                second,
            } => {
                // `total_cmp` order as unsigned bits, then inverted.
                let bits = s.to_bits();
                let ordered = if bits >> 63 == 1 {
                    !bits
                } else {
                    bits | 1 << 63
                };
                out.extend([u64::MAX - u64::from(round), !ordered]);
                self.order_key(first, out);
                self.order_key(second, out);
            }
        }
    }

    /// The surviving clusters, each with its order key and its quality: the
    /// maximum similarity between any two of its attributes (1.0 for
    /// singletons, which only arise from user constraints). Clusters are
    /// split into `n` outcomes by `group_of` (indexed by local attribute).
    fn into_outcomes(self, group_of: &[usize], n: usize) -> Option<Vec<ComponentOutcome>> {
        let mut outcomes: Vec<(Vec<u64>, Vec<FinalCluster>)> =
            (0..n).map(|_| (Vec::new(), Vec::new())).collect();
        let mut members = Vec::new();
        for c in 0..self.clusters.len() {
            self.members_into(c, &mut members);
            let mut quality = if members.len() < 2 { 1.0 } else { 0.0f64 };
            for (x, &a) in members.iter().enumerate() {
                for &b in &members[x + 1..] {
                    let s = self
                        .cache
                        .sim_by_name_id(self.names[a as usize], self.names[b as usize]);
                    quality = quality.max(s);
                }
            }
            let ga = GlobalAttribute::try_new(members.iter().map(|&a| self.attrs[a as usize]));
            let (keys, clusters) = &mut outcomes[group_of[members[0] as usize]];
            let start = keys.len();
            self.order_key(self.clusters[c].origin, keys);
            clusters.push(FinalCluster {
                key: start..keys.len(),
                ga: ga.ok()?,
                quality,
            });
        }
        // Boxed slices hold no spare capacity: outcomes live in the memo.
        let outcomes = outcomes.into_iter().map(|(keys, clusters)| {
            (!clusters.is_empty()).then(|| {
                Arc::new(Outcome {
                    keys: keys.into(),
                    clusters: clusters.into(),
                })
            })
        });
        Some(outcomes.collect())
    }
}

/// The selection index in a bucketed `component << 32 | index` entry.
fn local(entry: &u64) -> usize {
    *entry as u32 as usize
}

/// Runs Algorithm 1 once over several components, each given as bucketed
/// entries into `attrs` in `AttrId` order: the components do not interact,
/// so the run splits back into one outcome per component.
fn cluster_groups(
    cache: &SimilarityCache,
    theta: f64,
    attrs: &[AttrId],
    seed_of: &[u32],
    groups: &[&[u64]],
) -> Option<Vec<ComponentOutcome>> {
    let src_rank = source_ranks(attrs);
    let (mut run_attrs, mut src_of, mut group_of, mut tagged) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (g, group) in groups.iter().enumerate() {
        for x in *group {
            let l = local(x);
            if seed_of[l] != NO_SEED {
                tagged.push((seed_of[l], run_attrs.len()));
            }
            run_attrs.push(attrs[l]);
            src_of.push(src_rank[l]);
            group_of.push(g);
        }
    }
    tagged.sort_unstable();
    let seeds: Vec<(u32, Vec<usize>)> = tagged
        .chunk_by(|x, y| x.0 == y.0)
        .map(|g| (g[0].0, g.iter().map(|&(_, p)| p).collect()))
        .collect();
    let mut clustering = Clustering::seeded(cache, run_attrs, &src_of, &seeds);
    clustering.run(theta);
    clustering.into_outcomes(&group_of, groups.len())
}

impl MatchOperator for ClusterMatcher {
    fn match_sources(
        &self,
        universe: &Universe,
        sources: &BTreeSet<SourceId>,
        constraints: &Constraints,
    ) -> MatchOutcome {
        if universe.len() != self.universe_len {
            return MatchOutcome::Infeasible;
        }
        // The caller must pass S ⊇ C (the paper ensures this for every call
        // to Match); a violating call can never produce a valid schema.
        if !constraints
            .required_sources
            .iter()
            .all(|s| sources.contains(s))
        {
            return MatchOutcome::Infeasible;
        }
        // GA constraints imply source constraints; an attribute from an
        // unselected source cannot be mediated.
        let seeds = constraints.merged_ga_seeds();
        if !seeds
            .iter()
            .all(|seed| seed.sources().all(|s| sources.contains(&s)))
        {
            return MatchOutcome::Infeasible;
        }
        let Some(attrs) = selection_attrs(universe, sources) else {
            return MatchOutcome::Infeasible;
        };
        let Some(members) = seed_members(&attrs, &seeds) else {
            return MatchOutcome::Infeasible;
        };
        let theta = constraints.theta;
        let partition = self.partition(theta, &seeds);
        let mut seed_of = vec![NO_SEED; attrs.len()];
        for (s, m) in (0u32..).zip(&members) {
            for &l in m {
                seed_of[l] = s;
            }
        }

        // Bucket the selection by name component (component << 32 | local
        // index), so each component's attributes stay in `AttrId` order.
        let mut order: Vec<u64> = (0..attrs.len())
            .map(|l| {
                let name = self.cache.name_id(attrs[l]);
                (u64::from(partition.component[name as usize]) << 32) | l as u64
            })
            .collect();
        order.sort_unstable();
        // Each component's memo key: `θ`, its size, its attributes, then
        // `position << 32 | seed index` for each seeded attribute. A lone
        // attribute with no seed has no θ-edge and is eliminated in round
        // 1, so it is skipped.
        let mut keys: Vec<u64> = Vec::with_capacity(3 * attrs.len());
        let mut components: Vec<(&[u64], std::ops::Range<usize>)> = Vec::new();
        for group in order.chunk_by(|x, y| x >> 32 == y >> 32) {
            if group.len() == 1 && seed_of[local(&group[0])] == NO_SEED {
                continue;
            }
            let start = keys.len();
            keys.extend([theta.to_bits(), group.len() as u64]);
            keys.extend(group.iter().map(|x| pack(attrs[local(x)])));
            for (p, x) in group.iter().enumerate() {
                if seed_of[local(x)] != NO_SEED {
                    keys.push(((p as u64) << 32) | u64::from(seed_of[local(x)]));
                }
            }
            components.push((group, start..keys.len()));
        }

        let mut outcomes: Vec<Option<ComponentOutcome>> = {
            let mut memo = self.memo.lock().expect("component memo poisoned");
            components
                .iter()
                .map(|(_, key)| memo.get(&keys[key.clone()]))
                .collect()
        };
        let missed: Vec<usize> = (0..outcomes.len())
            .filter(|&i| outcomes[i].is_none())
            .collect();
        if !missed.is_empty() {
            let groups: Vec<&[u64]> = missed.iter().map(|&i| components[i].0).collect();
            let Some(fresh) = cluster_groups(&self.cache, theta, &attrs, &seed_of, &groups) else {
                return MatchOutcome::Infeasible;
            };
            let mut memo = self.memo.lock().expect("component memo poisoned");
            for (&i, outcome) in missed.iter().zip(fresh) {
                memo.insert(Box::from(&keys[components[i].1.clone()]), outcome.clone());
                outcomes[i] = Some(outcome);
            }
        }

        // Reassemble in one run's order, and sum `F1` in that order.
        let mut clusters: Vec<(&[u64], &FinalCluster)> = outcomes
            .iter()
            .flatten()
            .flatten()
            .flat_map(|o| o.clusters.iter().map(|c| (&o.keys[c.key.clone()], c)))
            .collect();
        clusters.sort_unstable_by(|a, b| a.0.cmp(b.0));
        // The clusters are attribute-disjoint by construction, so the
        // schema is valid iff it spans every required source.
        if !constraints
            .required_sources
            .iter()
            .all(|&s| clusters.iter().any(|(_, c)| c.ga.touches_source(s)))
        {
            return MatchOutcome::Infeasible;
        }
        let quality = if clusters.is_empty() {
            0.0
        } else {
            clusters.iter().map(|(_, c)| c.quality).sum::<f64>() / clusters.len() as f64
        };
        let schema = MediatedSchema::new(clusters.iter().map(|(_, c)| c.ga.clone()));
        MatchOutcome::Matched { schema, quality }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::JaccardNGram;
    use mube_core::schema::Schema;
    use mube_core::source::SourceSpec;
    use proptest::prelude::*;

    fn a(s: u32, j: u32) -> AttrId {
        AttrId::new(SourceId(s), j)
    }

    fn build(schemas: &[&[&str]]) -> (Arc<Universe>, ClusterMatcher) {
        let mut b = Universe::builder();
        for (i, attrs) in schemas.iter().enumerate() {
            b.add_source(SourceSpec::new(
                format!("s{i}"),
                Schema::new(attrs.iter().copied()),
            ));
        }
        let u = Arc::new(b.build().unwrap());
        let m = ClusterMatcher::new(Arc::clone(&u), JaccardNGram::trigram());
        (u, m)
    }

    fn run(
        u: &Universe,
        m: &ClusterMatcher,
        constraints: &Constraints,
    ) -> Option<(MediatedSchema, f64)> {
        let sources: BTreeSet<_> = u.source_ids().collect();
        match m.match_sources(u, &sources, constraints) {
            MatchOutcome::Matched { schema, quality } => Some((schema, quality)),
            MatchOutcome::Infeasible => None,
        }
    }

    #[test]
    fn clusters_identical_names() {
        let (u, m) = build(&[&["title", "price"], &["title", "price"], &["title"]]);
        let c = Constraints::with_max_sources(3).theta(0.75);
        let (schema, quality) = run(&u, &m, &c).unwrap();
        assert_eq!(schema.len(), 2);
        assert_eq!(quality, 1.0);
        let title_ga = schema.ga_of(a(0, 0)).unwrap();
        assert_eq!(title_ga.len(), 3);
    }

    #[test]
    fn unmatched_singletons_are_pruned() {
        let (u, m) = build(&[&["title", "zzzz"], &["title"]]);
        let c = Constraints::with_max_sources(2).theta(0.75);
        let (schema, _) = run(&u, &m, &c).unwrap();
        // "zzzz" matches nothing → eliminated; only the title GA remains.
        assert_eq!(schema.len(), 1);
        assert!(schema.ga_of(a(0, 1)).is_none());
    }

    #[test]
    fn one_attribute_per_source_per_ga() {
        // Both attributes of source 0 are similar to source 1's "title",
        // but a GA may contain at most one attribute per source.
        let (u, m) = build(&[&["title", "title x"], &["title"]]);
        let c = Constraints::with_max_sources(2).theta(0.3);
        let (schema, _) = run(&u, &m, &c).unwrap();
        for ga in schema.gas() {
            let sources: Vec<_> = ga.sources().collect();
            let distinct: BTreeSet<_> = sources.iter().copied().collect();
            assert_eq!(sources.len(), distinct.len());
        }
    }

    #[test]
    fn threshold_gates_merging() {
        let (u, m) = build(&[&["book title"], &["title"]]);
        // Jaccard3("book title", "title") ≈ 0.375: merges at θ=0.3, not at 0.6.
        let low = Constraints::with_max_sources(2).theta(0.3);
        let (schema, q) = run(&u, &m, &low).unwrap();
        assert_eq!(schema.len(), 1);
        assert!(q >= 0.3);

        let high = Constraints::with_max_sources(2).theta(0.6);
        let (schema, q) = run(&u, &m, &high).unwrap();
        assert!(schema.is_empty());
        assert_eq!(q, 0.0);
    }

    #[test]
    fn ga_constraint_bridges_dissimilar_attributes() {
        // "f name" and "prenom" share no trigrams; a GA constraint bridges
        // them, and "first name" then joins via its similarity to "f name".
        let (u, m) = build(&[&["f name"], &["prenom"], &["first name"]]);
        let bridge = GlobalAttribute::try_new([a(0, 0), a(1, 0)]).unwrap();
        let c = Constraints::with_max_sources(3)
            .theta(0.30)
            .require_ga(bridge.clone());

        // Without the constraint nothing merges with "prenom".
        let plain = Constraints::with_max_sources(3).theta(0.30);
        let (schema_plain, _) = run(&u, &m, &plain).unwrap();
        assert!(schema_plain.ga_of(a(1, 0)).is_none());

        let (schema, _) = run(&u, &m, &c).unwrap();
        let ga = schema.ga_of(a(1, 0)).expect("bridged GA must survive");
        assert!(ga.contains(a(0, 0)), "constraint preserved");
        assert!(ga.contains(a(2, 0)), "bridge attracted 'first name'");
        assert!(schema.covers_gas(&[bridge]));
    }

    #[test]
    fn keep_clusters_survive_even_unmatched() {
        let (u, m) = build(&[&["alpha"], &["omega"]]);
        let ga = GlobalAttribute::try_new([a(0, 0)]).unwrap();
        let c = Constraints::with_max_sources(2)
            .theta(0.9)
            .require_ga(ga.clone());
        let (schema, _) = run(&u, &m, &c).unwrap();
        assert_eq!(schema.len(), 1);
        assert!(schema.covers_gas(&[ga]));
    }

    #[test]
    fn source_constraint_validity_checked() {
        // Source 1's only attribute matches nothing, so the schema cannot
        // span it; with source 1 in C the match is infeasible.
        let (u, m) = build(&[&["title"], &["zzzz"], &["title"]]);
        let c = Constraints::with_max_sources(3)
            .theta(0.75)
            .require_source(SourceId(1));
        assert!(run(&u, &m, &c).is_none());
        // Without the constraint, matching succeeds (source 1 contributes
        // nothing to the schema).
        let c2 = Constraints::with_max_sources(3).theta(0.75);
        assert!(run(&u, &m, &c2).is_some());
    }

    #[test]
    fn subset_call_only_clusters_selected_sources() {
        let (u, m) = build(&[&["title"], &["title"], &["title"]]);
        let sources: BTreeSet<_> = [SourceId(0), SourceId(2)].into();
        let c = Constraints::with_max_sources(2).theta(0.75);
        match m.match_sources(&u, &sources, &c) {
            MatchOutcome::Matched { schema, .. } => {
                assert_eq!(schema.len(), 1);
                let ga = &schema.gas()[0];
                assert_eq!(ga.len(), 2);
                assert!(!ga.touches_source(SourceId(1)));
            }
            MatchOutcome::Infeasible => panic!("expected match"),
        }
    }

    #[test]
    fn missing_required_source_in_selection_is_infeasible() {
        let (u, m) = build(&[&["title"], &["title"]]);
        let only0: BTreeSet<_> = [SourceId(0)].into();
        let c = Constraints::with_max_sources(2).require_source(SourceId(1));
        assert_eq!(m.match_sources(&u, &only0, &c), MatchOutcome::Infeasible);
    }

    #[test]
    fn ga_constraint_source_outside_selection_is_infeasible() {
        let (u, m) = build(&[&["title"], &["title"]]);
        let only0: BTreeSet<_> = [SourceId(0)].into();
        let ga = GlobalAttribute::try_new([a(1, 0)]).unwrap();
        let c = Constraints::with_max_sources(2).require_ga(ga);
        // required_sources is empty (the GA implies source 1), but source 1
        // is not selected.
        assert_eq!(m.match_sources(&u, &only0, &c), MatchOutcome::Infeasible);
    }

    #[test]
    fn chained_merging_converges() {
        // a–b similar, c–d similar, and the merged pairs are mutually
        // similar through b–c: everything should coalesce into one GA.
        let (u, m) = build(&[
            &["order date"],
            &["order data"],
            &["order daze"],
            &["order dace"],
        ]);
        let c = Constraints::with_max_sources(4).theta(0.5);
        let (schema, q) = run(&u, &m, &c).unwrap();
        assert_eq!(schema.len(), 1);
        assert_eq!(schema.gas()[0].len(), 4);
        assert!(q >= 0.5);
    }

    #[test]
    fn quality_is_mean_of_ga_qualities() {
        let (u, m) = build(&[&["title", "price"], &["title", "price"]]);
        let c = Constraints::with_max_sources(2).theta(0.75);
        let (schema, q) = run(&u, &m, &c).unwrap();
        assert_eq!(schema.len(), 2);
        assert_eq!(q, 1.0); // both GAs are exact-name matches
    }

    #[test]
    fn deterministic_output() {
        let (u, m) = build(&[
            &["title", "author", "isbn"],
            &["book title", "writer", "isbn"],
            &["title", "author name"],
        ]);
        let c = Constraints::with_max_sources(3).theta(0.3);
        let r1 = run(&u, &m, &c).unwrap();
        let r2 = run(&u, &m, &c).unwrap();
        assert_eq!(r1.0, r2.0);
        assert_eq!(r1.1, r2.1);
    }

    #[test]
    fn wrong_universe_rejected() {
        let (u1, m) = build(&[&["title"]]);
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("x", Schema::new(["a"])));
        b.add_source(SourceSpec::new("y", Schema::new(["b"])));
        let u2 = b.build().unwrap();
        let sources: BTreeSet<_> = u2.source_ids().collect();
        let c = Constraints::with_max_sources(2);
        assert_eq!(m.match_sources(&u2, &sources, &c), MatchOutcome::Infeasible);
        drop(u1);
    }

    /// The dense Algorithm 1 the kernel replaced: every round scores every
    /// cluster pair by an |A|·|B| walk and merges through
    /// [`GlobalAttribute::merge`]. Kept as the kernel's oracle.
    mod oracle {
        use super::*;

        pub(super) struct Cluster {
            pub(super) ga: GlobalAttribute,
            pub(super) keep: bool,
            pub(super) formed_by_merge: bool,
        }

        fn cluster_sim(cache: &SimilarityCache, a: &Cluster, b: &Cluster) -> f64 {
            let mut best = 0.0f64;
            for &x in a.ga.attrs() {
                for &y in b.ga.attrs() {
                    let s = cache.attr_sim(x, y);
                    if s > best {
                        best = s;
                    }
                }
            }
            best
        }

        fn ga_quality(cache: &SimilarityCache, ga: &GlobalAttribute) -> f64 {
            let attrs: Vec<_> = ga.attrs().iter().copied().collect();
            if attrs.len() < 2 {
                return 1.0;
            }
            let mut best = 0.0f64;
            for i in 0..attrs.len() {
                for j in (i + 1)..attrs.len() {
                    best = best.max(cache.attr_sim(attrs[i], attrs[j]));
                }
            }
            best
        }

        /// The final clusters, or `None` where the seeding rejects the call.
        pub(super) fn clusters(
            m: &ClusterMatcher,
            universe: &Universe,
            sources: &BTreeSet<SourceId>,
            constraints: &Constraints,
        ) -> Option<Vec<Cluster>> {
            if universe.len() != m.universe_len
                || !constraints
                    .required_sources
                    .iter()
                    .all(|s| sources.contains(s))
            {
                return None;
            }
            let theta = constraints.theta;
            let mut seeded_attrs: BTreeSet<_> = BTreeSet::new();
            let mut clusters: Vec<Cluster> = Vec::new();
            for seed in constraints.merged_ga_seeds() {
                if !seed.sources().all(|s| sources.contains(&s)) {
                    return None;
                }
                seeded_attrs.extend(seed.attrs().iter().copied());
                clusters.push(Cluster {
                    ga: seed,
                    keep: true,
                    formed_by_merge: false,
                });
            }
            for &sid in sources {
                for attr in universe.get(sid)?.attr_ids() {
                    if !seeded_attrs.contains(&attr) {
                        clusters.push(Cluster {
                            ga: GlobalAttribute::singleton(attr),
                            keep: false,
                            formed_by_merge: false,
                        });
                    }
                }
            }
            loop {
                let k = clusters.len();
                let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
                for i in 0..k {
                    for j in (i + 1)..k {
                        let s = cluster_sim(&m.cache, &clusters[i], &clusters[j]);
                        if s >= theta {
                            pairs.push((s, i, j));
                        }
                    }
                }
                pairs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
                let mut merged = vec![false; k];
                let mut mergecand = vec![false; k];
                let mut new_clusters: Vec<Cluster> = Vec::new();
                for &(_, i, j) in &pairs {
                    match (merged[i], merged[j]) {
                        (false, false) => {
                            if let Some(ga) = clusters[i].ga.merge(&clusters[j].ga) {
                                merged[i] = true;
                                merged[j] = true;
                                new_clusters.push(Cluster {
                                    ga,
                                    keep: clusters[i].keep || clusters[j].keep,
                                    formed_by_merge: true,
                                });
                            }
                        }
                        (true, false) => mergecand[j] = true,
                        (false, true) => mergecand[i] = true,
                        (true, true) => {}
                    }
                }
                let any_merge = !new_clusters.is_empty();
                let mut survivors = new_clusters;
                for (idx, cluster) in clusters.into_iter().enumerate() {
                    if !merged[idx] && (cluster.keep || cluster.formed_by_merge || mergecand[idx]) {
                        survivors.push(cluster);
                    }
                }
                clusters = survivors;
                if !any_merge {
                    return Some(clusters);
                }
            }
        }

        pub(super) fn match_sources(
            m: &ClusterMatcher,
            universe: &Universe,
            sources: &BTreeSet<SourceId>,
            constraints: &Constraints,
        ) -> MatchOutcome {
            let Some(clusters) = clusters(m, universe, sources, constraints) else {
                return MatchOutcome::Infeasible;
            };
            let schema = MediatedSchema::new(clusters.into_iter().map(|c| c.ga));
            if !schema.is_valid_on(&constraints.required_sources) {
                return MatchOutcome::Infeasible;
            }
            let quality = if schema.is_empty() {
                0.0
            } else {
                schema
                    .gas()
                    .iter()
                    .map(|g| ga_quality(&m.cache, g))
                    .sum::<f64>()
                    / schema.len() as f64
            };
            MatchOutcome::Matched { schema, quality }
        }
    }

    /// Jaccard over trigrams, except that names with an `x` compare as NaN
    /// to each other and names of equal length as -0.5: a user-written
    /// measure may return either.
    struct Warped(JaccardNGram);

    impl Similarity for Warped {
        fn name(&self) -> &str {
            "warped"
        }
        fn similarity(&self, a: &str, b: &str) -> f64 {
            if a.contains('x') && b.contains('x') {
                f64::NAN
            } else if a.len() == b.len() {
                -0.5
            } else {
                self.0.similarity(a, b)
            }
        }
    }

    /// Attribute names of the random cases: near-variants in several
    /// families, so a universe has several name components.
    const POOL: [&str; 14] = [
        "title",
        "book title",
        "title x",
        "author",
        "author name",
        "writer",
        "price",
        "price x",
        "isbn",
        "isbn13",
        "order date",
        "order data",
        "publisher",
        "pub",
    ];

    /// A xorshift draw in `0..n` from one seed.
    fn drawer(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed | 1;
        move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        }
    }

    /// A random universe, selection and constraint set from one seed: names
    /// from a pool of near-variants (repeats within a source included),
    /// GA seeds that may overlap or reach outside the selection.
    fn random_case(seed: u64, theta: f64) -> (Universe, BTreeSet<SourceId>, Constraints) {
        let mut draw = drawer(seed);
        let n_sources = 1 + draw(9);
        let mut b = Universe::builder();
        for i in 0..n_sources {
            let attrs: Vec<&str> = (0..1 + draw(6)).map(|_| POOL[draw(POOL.len())]).collect();
            b.add_source(SourceSpec::new(format!("s{i}"), Schema::new(attrs)));
        }
        let u = b.build().unwrap();
        let sources: BTreeSet<SourceId> = u.source_ids().filter(|_| draw(3) > 0).collect();
        let mut c = Constraints::with_max_sources(n_sources).theta(theta);
        // One fixed attribute per source keeps overlapping GA seeds mergeable.
        let pick: Vec<AttrId> = u
            .sources()
            .map(|s| AttrId::new(s.id(), draw(s.schema().len()) as u32))
            .collect();
        for _ in 0..draw(3) {
            let mut ids: Vec<usize> = (0..1 + draw(3)).map(|_| draw(n_sources)).collect();
            ids.sort_unstable();
            ids.dedup();
            c = c.require_ga(GlobalAttribute::try_new(ids.iter().map(|&s| pick[s])).unwrap());
        }
        if draw(4) == 0 {
            c = c.require_source(SourceId(draw(n_sources) as u32));
        }
        (u, sources, c)
    }

    /// Similarity from a fixed table of name pairs (0 elsewhere).
    struct Table(&'static [(&'static str, &'static str, f64)]);

    impl Similarity for Table {
        fn name(&self) -> &str {
            "table"
        }
        fn similarity(&self, a: &str, b: &str) -> f64 {
            self.0
                .iter()
                .find(|&&(x, y, _)| (x, y) == (a, b) || (y, x) == (a, b))
                .map_or(0.0, |t| t.2)
        }
    }

    /// A cluster pair joined by two θ-edges, whose best edge is refused for
    /// a source clash: in round 2 `{a, b}` cannot absorb `j` (both hold a
    /// source-0 attribute), merges with `k` instead, and `j` is dropped.
    #[test]
    fn clashing_pair_with_two_edges_matches_the_oracle() {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("s0", Schema::new(["a", "j"])));
        b.add_source(SourceSpec::new("s1", Schema::new(["b"])));
        b.add_source(SourceSpec::new("s2", Schema::new(["k"])));
        let u = Arc::new(b.build().unwrap());
        let sims = Table(&[
            ("a", "b", 0.9),
            ("a", "j", 0.8),
            ("a", "k", 0.6),
            ("b", "j", 0.5),
        ]);
        let m = ClusterMatcher::new(Arc::clone(&u), sims);
        let c = Constraints::with_max_sources(3).theta(0.4);
        let (schema, _) = run(&u, &m, &c).unwrap();
        let abk = GlobalAttribute::try_new([a(0, 0), a(1, 0), a(2, 0)]).unwrap();
        assert_eq!(schema, MediatedSchema::new([abk]));
        let sources: BTreeSet<_> = u.source_ids().collect();
        assert_eq!(
            oracle::match_sources(&m, &u, &sources, &c),
            m.match_sources(&u, &sources, &c)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

        /// The edge kernel reproduces the dense oracle exactly: the same
        /// clusters in the same order with the same `keep`/`formed_by_merge`
        /// flags, and the same outcome down to the quality bits.
        #[test]
        fn kernel_matches_dense_oracle(seed in any::<u64>(), t in 0usize..5, warped in any::<bool>()) {
            let theta = [0.0, 0.3, 0.5, 0.75, 1.0][t];
            let (u, sources, c) = random_case(seed, theta);
            let m = if warped {
                ClusterMatcher::new(Arc::new(u.clone()), Warped(JaccardNGram::trigram()))
            } else {
                ClusterMatcher::new(Arc::new(u.clone()), JaccardNGram::trigram())
            };
            if let Some(expected) = oracle::clusters(&m, &u, &sources, &c) {
                let seeds = c.merged_ga_seeds();
                let mut kernel = Clustering::new(&m.cache, &u, &sources, &seeds).unwrap();
                kernel.run(theta);
                let got: Vec<(Vec<AttrId>, bool, bool)> = kernel
                    .clusters
                    .iter()
                    .enumerate()
                    .map(|(i, cl)| {
                        let attrs = kernel.members(i).iter().map(|&a| kernel.attrs[a as usize]).collect();
                        (attrs, cl.keep, cl.formed_by_merge)
                    })
                    .collect();
                let want: Vec<(Vec<AttrId>, bool, bool)> = expected
                    .iter()
                    .map(|cl| (cl.ga.attrs().iter().copied().collect(), cl.keep, cl.formed_by_merge))
                    .collect();
                prop_assert_eq!(got, want);
            }
            let kernel = m.match_sources(&u, &sources, &c);
            let dense = oracle::match_sources(&m, &u, &sources, &c);
            match (&kernel, &dense) {
                (
                    MatchOutcome::Matched { schema: s1, quality: q1 },
                    MatchOutcome::Matched { schema: s2, quality: q2 },
                ) => {
                    prop_assert_eq!(s1, s2);
                    prop_assert_eq!(q1.to_bits(), q2.to_bits());
                }
                _ => prop_assert_eq!(kernel, dense),
            }
        }
    }

    /// `match_sources` on a possibly warm matcher against the dense oracle:
    /// the same outcome, GA order included, and `F1`'s bits.
    fn check_against_oracle(
        m: &ClusterMatcher,
        u: &Universe,
        sources: &BTreeSet<SourceId>,
        c: &Constraints,
    ) -> Result<(), TestCaseError> {
        let got = m.match_sources(u, sources, c);
        let want = oracle::match_sources(m, u, sources, c);
        match (&got, &want) {
            (
                MatchOutcome::Matched {
                    schema: s1,
                    quality: q1,
                },
                MatchOutcome::Matched {
                    schema: s2,
                    quality: q2,
                },
            ) => {
                prop_assert_eq!(s1, s2);
                prop_assert_eq!(q1.to_bits(), q2.to_bits());
            }
            _ => prop_assert_eq!(got, want),
        }
        Ok(())
    }

    /// One matcher driven through a random walk of source adds and drops,
    /// `θ` changes and GA-seed changes, checked against the oracle after
    /// every step.
    fn walk_against_oracle(
        seed: u64,
        steps: usize,
        thetas: &[f64],
        warped: bool,
    ) -> Result<(), TestCaseError> {
        let mut draw = drawer(seed);
        let n_sources = 3 + draw(10);
        let mut b = Universe::builder();
        for i in 0..n_sources {
            let attrs: Vec<&str> = (0..1 + draw(6)).map(|_| POOL[draw(POOL.len())]).collect();
            b.add_source(SourceSpec::new(format!("s{i}"), Schema::new(attrs)));
        }
        let u = Arc::new(b.build().unwrap());
        let m = if warped {
            ClusterMatcher::new(Arc::clone(&u), Warped(JaccardNGram::trigram()))
        } else {
            ClusterMatcher::new(Arc::clone(&u), JaccardNGram::trigram())
        };
        // One fixed attribute per source keeps overlapping GA seeds mergeable.
        let pick: Vec<AttrId> = u
            .sources()
            .map(|s| AttrId::new(s.id(), draw(s.schema().len()) as u32))
            .collect();
        let mut selection: BTreeSet<SourceId> = u.source_ids().filter(|_| draw(2) == 0).collect();
        let mut theta = thetas[0];
        let mut gas: Vec<GlobalAttribute> = Vec::new();
        for _ in 0..steps {
            match draw(10) {
                0..=3 => {
                    selection.insert(SourceId(draw(n_sources) as u32));
                }
                4..=6 => {
                    selection.remove(&SourceId(draw(n_sources) as u32));
                }
                7 => theta = thetas[draw(thetas.len())],
                8 => {
                    let mut ids: Vec<usize> = (0..1 + draw(3)).map(|_| draw(n_sources)).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    gas.push(GlobalAttribute::try_new(ids.iter().map(|&s| pick[s])).unwrap());
                }
                _ => gas.clear(),
            }
            let mut c = Constraints::with_max_sources(n_sources).theta(theta);
            for ga in &gas {
                c = c.require_ga(ga.clone());
            }
            check_against_oracle(&m, &u, &selection, &c)?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

        /// A memo-warm matcher stays equal to the dense oracle over a walk of
        /// moves: reused component outcomes reassemble in one run's order.
        #[test]
        fn memo_warm_walk_matches_dense_oracle(seed in any::<u64>(), steps in 1usize..40, warped in any::<bool>()) {
            walk_against_oracle(seed, steps, &[0.3, 0.5, 0.75, 1.0], warped)?;
        }

        /// At `θ = 0` every name pair is an edge, so each call is a single
        /// component: the memo then keys whole selections.
        #[test]
        fn theta_zero_walk_matches_dense_oracle(seed in any::<u64>(), steps in 1usize..20) {
            walk_against_oracle(seed, steps, &[0.0], false)?;
        }
    }

    #[test]
    fn theta_zero_partition_is_one_component() {
        let (_, m) = build(&[&["title", "zzzz"], &["qqqq", "price"]]);
        let p = m.partition(0.0, &[]);
        assert!(p.component.iter().all(|&c| c == 0), "{:?}", p.component);
        let p = m.partition(0.75, &[]);
        let distinct: BTreeSet<u32> = p.component.iter().copied().collect();
        assert_eq!(distinct.len(), 4);
    }

    /// A GA seed joining a `title` and a `price` attribute bridges two name
    /// components: the partition must join them, and the warm matcher must
    /// agree with the oracle before, with and after the seed.
    #[test]
    fn seed_bridging_two_name_components_matches_the_oracle() {
        let (u, m) = build(&[
            &["title", "price"],
            &["title", "price"],
            &["title", "price"],
            &["book title", "isbn"],
        ]);
        let sources: BTreeSet<_> = u.source_ids().collect();
        let plain = Constraints::with_max_sources(4).theta(0.75);
        let bridge = GlobalAttribute::try_new([a(0, 0), a(1, 1)]).unwrap();
        let seeded = plain.clone().require_ga(bridge.clone());
        let title = m.cache.name_id(a(0, 0));
        let price = m.cache.name_id(a(0, 1));
        let p = m.partition(0.75, &[]);
        assert_ne!(p.component[title as usize], p.component[price as usize]);
        let p = m.partition(0.75, &seeded.merged_ga_seeds());
        assert_eq!(p.component[title as usize], p.component[price as usize]);
        for c in [&plain, &seeded, &plain, &seeded] {
            check_against_oracle(&m, &u, &sources, c).unwrap();
        }
        let MatchOutcome::Matched { schema, .. } = m.match_sources(&u, &sources, &seeded) else {
            panic!("expected a match");
        };
        assert!(schema.covers_gas(&[bridge]));
        let stats = m.memo_stats();
        assert!(stats.hits >= 2 && stats.misses >= 2, "{stats:?}");
    }

    /// `a` and `b` stay in one name component at θ = 0.5 and at 0.75
    /// (through `c`), but their own edge exists only at 0.5: the same
    /// attributes must not share a memo entry across `θ`.
    #[test]
    fn theta_is_part_of_the_memo_key() {
        let mut b = Universe::builder();
        for (name, attr) in [("s0", "a"), ("s1", "b"), ("s2", "c")] {
            b.add_source(SourceSpec::new(name, Schema::new([attr])));
        }
        let u = Arc::new(b.build().unwrap());
        let sims = Table(&[("a", "b", 0.6), ("a", "c", 0.8), ("b", "c", 0.8)]);
        let m = ClusterMatcher::new(Arc::clone(&u), sims);
        let sources: BTreeSet<_> = [SourceId(0), SourceId(1)].into();
        for theta in [0.5, 0.75, 0.5, 0.75] {
            let c = Constraints::with_max_sources(2).theta(theta);
            check_against_oracle(&m, &u, &sources, &c).unwrap();
        }
        let low = Constraints::with_max_sources(2).theta(0.5);
        let MatchOutcome::Matched { schema, .. } = m.match_sources(&u, &sources, &low) else {
            panic!("expected a match");
        };
        assert_eq!(schema.len(), 1);
        assert_eq!(m.memo_stats().misses, 2);
    }

    /// Pins, `m` and `β` do not change clustering, so calls differing only
    /// in them reuse every component.
    #[test]
    fn memo_survives_pins_and_m() {
        let (u, m) = build(&[&["title", "price"], &["title", "price"], &["title x"]]);
        let sources: BTreeSet<_> = u.source_ids().collect();
        let c = Constraints::with_max_sources(3).theta(0.5);
        let first = m.match_sources(&u, &sources, &c);
        let cold = m.memo_stats();
        assert_eq!(cold.hits, 0);
        for c in [
            c.clone().require_source(SourceId(1)),
            Constraints::with_max_sources(5).theta(0.5).beta(3),
        ] {
            assert_eq!(m.match_sources(&u, &sources, &c), first);
        }
        let warm = m.memo_stats();
        assert_eq!(warm.misses, cold.misses);
        assert_eq!(warm.hits, 2 * cold.misses);
        assert_eq!(warm.entries, cold.entries);
    }

    /// The memo never holds more than its cap; a hit in the old generation
    /// moves the entry to the young one.
    #[test]
    fn memo_keeps_at_most_its_cap() {
        let mut memo = Memo::new(4);
        let outcome: ComponentOutcome = None;
        for k in 0..10u64 {
            memo.insert(vec![k].into_boxed_slice(), outcome.clone());
            assert!(memo.stats().entries <= 4);
        }
        // Keys 6 and 7 are old, 8 and 9 young. Promoting 6 ages 8 and 9
        // and drops 7.
        assert!(memo.get(&[6]).is_some());
        assert!(memo.get(&[5]).is_none());
        memo.insert(vec![10].into_boxed_slice(), outcome.clone());
        assert!(memo.get(&[6]).is_some(), "promoted on its hit");
        assert!(memo.get(&[7]).is_none(), "dropped with its generation");
        assert_eq!(
            memo.stats(),
            MemoStats {
                hits: 2,
                misses: 2,
                entries: 4
            }
        );
    }
}
