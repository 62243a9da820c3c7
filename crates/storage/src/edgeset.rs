//! Extents: sets of `<parent, node>` edge pairs (Definition 7).

use std::sync::OnceLock;

use xmlgraph::{NodeId, NULL_NODE};

use crate::block::BlockExtent;
use crate::succinct::{EndIndex, SuccinctExtent};

/// One element of an extent: the incoming edge `<parent, node>` of a node
/// reachable by some label path. The root's pair is `<NULL, root>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgePair {
    /// Starting node of the edge (`NULL_NODE` for the root pair).
    pub parent: NodeId,
    /// Ending node of the edge.
    pub node: NodeId,
}

impl EdgePair {
    /// Convenience constructor.
    #[inline]
    pub fn new(parent: NodeId, node: NodeId) -> Self {
        EdgePair { parent, node }
    }

    /// The `<NULL, root>` pair.
    #[inline]
    pub fn root(root: NodeId) -> Self {
        EdgePair {
            parent: NULL_NODE,
            node: root,
        }
    }
}

/// A sorted, duplicate-free set of [`EdgePair`]s.
///
/// Extents are the unit of storage in every index here; all operations
/// preserve sortedness (by `(parent, node)`) so unions and semijoins are
/// linear merges, per the allocation-conscious style of the Rust
/// Performance Book (buffers are reusable via the `*_into` variants).
///
/// Two derived views are computed lazily and cached (`OnceLock`, so a
/// set shared across query threads stays `Sync`), and both are
/// *succinct* rather than second materialized copies: the distinct
/// [`end_nodes`](EdgeSet::end_nodes) as a delta+varint [`EndIndex`]
/// and the compressed [`succinct`](EdgeSet::succinct) extent (block
/// image + rank/select directory + decode samples) the adaptive
/// semijoin kernels run over directly. Mutation (`insert`,
/// `union_in_place`) invalidates both.
#[derive(Debug, Default)]
pub struct EdgeSet {
    pairs: Vec<EdgePair>,
    ends: OnceLock<EndIndex>,
    succ: OnceLock<SuccinctExtent>,
}

impl Clone for EdgeSet {
    fn clone(&self) -> Self {
        // Caches are cheap to rebuild; clones (index refinement) start
        // cold.
        EdgeSet {
            pairs: self.pairs.clone(),
            ends: OnceLock::new(),
            succ: OnceLock::new(),
        }
    }
}

impl PartialEq for EdgeSet {
    fn eq(&self, other: &Self) -> bool {
        self.pairs == other.pairs
    }
}

impl Eq for EdgeSet {}

impl EdgeSet {
    /// Empty set.
    pub fn new() -> Self {
        EdgeSet::default()
    }

    /// Builds from arbitrary pairs (sorts and dedups).
    pub fn from_pairs(mut pairs: Vec<EdgePair>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        EdgeSet {
            pairs,
            ..EdgeSet::default()
        }
    }

    /// Builds from pairs already sorted by `(parent, node)` and
    /// duplicate-free — the output contract of the semijoin kernels.
    pub fn from_sorted(pairs: Vec<EdgePair>) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        EdgeSet {
            pairs,
            ..EdgeSet::default()
        }
    }

    /// Drops the cached derived views; must follow every mutation of
    /// `pairs`.
    fn invalidate(&mut self) {
        self.ends = OnceLock::new();
        self.succ = OnceLock::new();
    }

    /// Builds from `(parent, node)` raw u32 pairs — test convenience.
    pub fn from_raw(pairs: &[(u32, u32)]) -> Self {
        Self::from_pairs(
            pairs
                .iter()
                .map(|&(p, n)| EdgePair::new(NodeId(p), NodeId(n)))
                .collect(),
        )
    }

    /// Number of pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The pairs, sorted by `(parent, node)`.
    #[inline]
    pub fn pairs(&self) -> &[EdgePair] {
        &self.pairs
    }

    /// Membership test (binary search).
    pub fn contains(&self, pair: EdgePair) -> bool {
        self.pairs.binary_search(&pair).is_ok()
    }

    /// Inserts one pair, keeping order. O(n) worst case; used only on the
    /// incremental-update path where deltas are small.
    pub fn insert(&mut self, pair: EdgePair) -> bool {
        match self.pairs.binary_search(&pair) {
            Ok(_) => false,
            Err(i) => {
                self.pairs.insert(i, pair);
                self.invalidate();
                true
            }
        }
    }

    /// `self ∪ other` as a new set (linear merge).
    pub fn union(&self, other: &EdgeSet) -> EdgeSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        merge_union(&self.pairs, &other.pairs, &mut out);
        EdgeSet::from_sorted(out)
    }

    /// Extends `self` with `other` in place (merge through a scratch
    /// buffer provided by the caller to avoid repeated allocation).
    pub fn union_in_place(&mut self, other: &EdgeSet, scratch: &mut Vec<EdgePair>) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.pairs.extend_from_slice(&other.pairs);
            self.invalidate();
            return;
        }
        scratch.clear();
        scratch.reserve(self.len() + other.len());
        merge_union(&self.pairs, &other.pairs, scratch);
        std::mem::swap(&mut self.pairs, scratch);
        self.invalidate();
    }

    /// `self \ other` as a new set.
    // apex-lint: allow(panic-reachability): i and j are bounds-checked by the loop and branch conditions before every index
    pub fn difference(&self, other: &EdgeSet) -> EdgeSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.pairs.len() {
            if j >= other.pairs.len() {
                out.extend_from_slice(&self.pairs[i..]);
                break;
            }
            match self.pairs[i].cmp(&other.pairs[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.pairs[i]);
                    i += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        EdgeSet::from_sorted(out)
    }

    /// True if every pair of `self` is in `other`.
    pub fn is_subset_of(&self, other: &EdgeSet) -> bool {
        self.pairs.iter().all(|p| other.contains(*p))
    }

    /// The cached succinct end-node index, **if already computed** —
    /// `None` otherwise. Never computes: statistics assembly (the
    /// planner's `PlanStats`) must stay O(1) per extent and must not
    /// fault work into cold sets.
    #[inline]
    pub fn cached_ends(&self) -> Option<&EndIndex> {
        self.ends.get()
    }

    /// The cached block image, **if already encoded** — `None`
    /// otherwise. Never encodes (see [`EdgeSet::cached_ends`]).
    #[inline]
    pub fn cached_blocks(&self) -> Option<&BlockExtent> {
        self.succ.get().map(|s| s.image())
    }

    /// Distinct end-node count when the cache is warm, else the pair
    /// count as an upper bound. O(1); never forces the cache.
    #[inline]
    pub fn ends_len_hint(&self) -> usize {
        self.ends.get().map_or(self.pairs.len(), |v| v.len())
    }

    /// Stored-block count when the encoding cache is warm, else an
    /// estimate from the raw pair count (≈4 encoded bytes per pair
    /// against the one-page block target). O(1); never encodes.
    #[inline]
    pub fn blocks_hint(&self) -> usize {
        match self.succ.get() {
            Some(s) => s.num_blocks().max(1),
            None => 1 + self.pairs.len() * 4 / crate::block::BLOCK_TARGET_BYTES,
        }
    }

    /// Bytes this extent keeps resident to answer queries (compressed
    /// payload + directory + samples + the end index when warm), or an
    /// estimate at the same ≈4 bytes/pair the [`EdgeSet::blocks_hint`]
    /// uses when the succinct cache is cold. O(1); never encodes — the
    /// statistics assembly path.
    #[inline]
    pub fn resident_bytes_hint(&self) -> usize {
        let extent = match self.succ.get() {
            Some(s) => s.resident_bytes(),
            None => self.pairs.len() * 4,
        };
        extent + self.ends.get().map_or(0, |e| e.resident_bytes())
    }

    /// Exact resident bytes of the succinct form (forces the encoding;
    /// reporting paths only — see [`EdgeSet::resident_bytes_hint`] for
    /// the planner's O(1) variant). The end index is counted only when
    /// some query has already materialized it.
    pub fn resident_bytes(&self) -> usize {
        self.succinct().resident_bytes() + self.ends.get().map_or(0, |e| e.resident_bytes())
    }

    /// Smallest and largest parent of the set — O(1) because pairs are
    /// sorted by `(parent, node)`. `None` when empty.
    #[inline]
    pub fn parent_bounds(&self) -> Option<(NodeId, NodeId)> {
        Some((self.pairs.first()?.parent, self.pairs.last()?.parent))
    }

    /// Smallest and largest *end node* of the set. Uses the end-node
    /// cache when warm (O(1)); otherwise one linear min/max scan of the
    /// in-memory pairs — never decodes blocks. `None` when empty.
    pub fn node_bounds(&self) -> Option<(NodeId, NodeId)> {
        if let Some(ends) = self.ends.get() {
            return Some((ends.first()?, ends.last()?));
        }
        let mut it = self.pairs.iter().map(|p| p.node);
        let first = it.next()?;
        let (mut lo, mut hi) = (first, first);
        for n in it {
            lo = lo.min(n);
            hi = hi.max(n);
        }
        Some((lo, hi))
    }

    /// Number of pairs whose parent lies in `lo..=hi` (two binary
    /// searches — the selectivity probe `PlanStats` uses to size a
    /// semijoin against a candidate frontier without touching blocks).
    pub fn pairs_in_parent_range(&self, lo: NodeId, hi: NodeId) -> usize {
        if lo > hi {
            return 0;
        }
        let a = self.pairs.partition_point(|p| p.parent < lo);
        let b = self.pairs.partition_point(|p| p.parent <= hi);
        b - a
    }

    /// Distinct end nodes, sorted, as a succinct [`EndIndex`] view —
    /// not a second materialized `Vec`. Computed once and cached;
    /// mutation invalidates the cache. Iterate with
    /// [`EndIndex::iter`]/[`EndIndex::cursor`], or pass straight to the
    /// kernels as [`Ends`](crate::succinct::Ends).
    pub fn end_nodes(&self) -> &EndIndex {
        self.ends.get_or_init(|| {
            let mut v: Vec<NodeId> = self.pairs.iter().map(|p| p.node).collect();
            v.sort_unstable();
            v.dedup();
            EndIndex::from_sorted(&v)
        })
    }

    /// The succinct queryable form of this extent (lazy, cached): the
    /// compressed block image wrapped in a rank/select directory and
    /// decode-restart samples. This is what the adaptive kernels run
    /// over directly.
    pub fn succinct(&self) -> &SuccinctExtent {
        self.succ
            .get_or_init(|| SuccinctExtent::build(BlockExtent::encode(&self.pairs)))
    }

    /// The compressed block image of this extent (lazy, cached): the
    /// skip index the adaptive kernels consult and the encoded bytes
    /// the page model charges.
    pub fn blocks(&self) -> &BlockExtent {
        self.succinct().image()
    }

    /// Iterates over pairs.
    pub fn iter(&self) -> impl Iterator<Item = EdgePair> + '_ {
        self.pairs.iter().copied()
    }

    /// Byte size when stored: the delta+varint block encoding (payload
    /// plus skip-index headers), as the page model charges it.
    pub fn stored_bytes(&self) -> usize {
        self.blocks().encoded_bytes()
    }

    /// Byte size of the uncompressed 8-bytes-per-pair layout, for
    /// compression-ratio reporting.
    pub fn raw_bytes(&self) -> usize {
        self.pairs.len() * std::mem::size_of::<(u32, u32)>()
    }
}

impl FromIterator<EdgePair> for EdgeSet {
    fn from_iter<T: IntoIterator<Item = EdgePair>>(iter: T) -> Self {
        EdgeSet::from_pairs(iter.into_iter().collect())
    }
}

// apex-lint: allow(panic-reachability): i and j are bounded by the merge loop's own length guards
fn merge_union(a: &[EdgePair], b: &[EdgePair], out: &mut Vec<EdgePair>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let s = EdgeSet::from_raw(&[(2, 3), (1, 2), (2, 3)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.pairs()[0], EdgePair::new(NodeId(1), NodeId(2)));
    }

    #[test]
    fn union_and_difference() {
        let a = EdgeSet::from_raw(&[(1, 2), (3, 4)]);
        let b = EdgeSet::from_raw(&[(3, 4), (5, 6)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        let d = u.difference(&a);
        assert_eq!(d, EdgeSet::from_raw(&[(5, 6)]));
        assert!(a.is_subset_of(&u));
        assert!(!u.is_subset_of(&a));
    }

    #[test]
    fn union_in_place_reuses_scratch() {
        let mut a = EdgeSet::from_raw(&[(1, 2)]);
        let b = EdgeSet::from_raw(&[(0, 1), (2, 3)]);
        let mut scratch = Vec::new();
        a.union_in_place(&b, &mut scratch);
        assert_eq!(a, EdgeSet::from_raw(&[(0, 1), (1, 2), (2, 3)]));
    }

    #[test]
    fn insert_keeps_sorted() {
        let mut s = EdgeSet::new();
        assert!(s.insert(EdgePair::new(NodeId(5), NodeId(6))));
        assert!(s.insert(EdgePair::new(NodeId(1), NodeId(2))));
        assert!(!s.insert(EdgePair::new(NodeId(5), NodeId(6))));
        assert_eq!(s.pairs()[0].parent, NodeId(1));
    }

    #[test]
    fn root_pair_uses_null_parent() {
        let p = EdgePair::root(NodeId(0));
        assert!(p.parent.is_null());
        let s = EdgeSet::from_pairs(vec![p]);
        assert_eq!(s.end_nodes().to_vec(), vec![NodeId(0)]);
    }

    #[test]
    fn end_nodes_dedup() {
        let s = EdgeSet::from_raw(&[(1, 5), (2, 5), (3, 6)]);
        assert_eq!(s.end_nodes().to_vec(), vec![NodeId(5), NodeId(6)]);
    }

    #[test]
    fn cached_views_invalidate_on_mutation() {
        let mut s = EdgeSet::from_raw(&[(1, 5)]);
        assert_eq!(s.end_nodes().to_vec(), vec![NodeId(5)]);
        let stored = s.stored_bytes();
        assert!(stored > 0 && stored <= s.raw_bytes() + crate::block::HEADER_BYTES);
        assert!(s.insert(EdgePair::new(NodeId(2), NodeId(9))));
        assert_eq!(s.end_nodes().to_vec(), vec![NodeId(5), NodeId(9)]);
        assert_eq!(s.blocks().num_pairs(), 2);
        let mut scratch = Vec::new();
        s.union_in_place(&EdgeSet::from_raw(&[(3, 11)]), &mut scratch);
        assert_eq!(
            s.end_nodes().to_vec(),
            vec![NodeId(5), NodeId(9), NodeId(11)]
        );
        assert_eq!(s.blocks().num_pairs(), 3);
        // A failed insert (duplicate) keeps the caches valid.
        assert!(!s.insert(EdgePair::new(NodeId(3), NodeId(11))));
        assert_eq!(s.end_nodes().len(), 3);
    }

    #[test]
    fn cheap_accessors_never_force_caches() {
        let s = EdgeSet::from_raw(&[(1, 5), (2, 5), (3, 6), (7, 8)]);
        // Cold: nothing cached, hints fall back to bounds.
        assert!(s.cached_ends().is_none());
        assert!(s.cached_blocks().is_none());
        assert_eq!(s.ends_len_hint(), 4);
        assert!(s.blocks_hint() >= 1);
        assert_eq!(s.parent_bounds(), Some((NodeId(1), NodeId(7))));
        assert_eq!(s.node_bounds(), Some((NodeId(5), NodeId(8))));
        assert_eq!(s.pairs_in_parent_range(NodeId(2), NodeId(3)), 2);
        assert_eq!(s.pairs_in_parent_range(NodeId(4), NodeId(6)), 0);
        assert_eq!(s.pairs_in_parent_range(NodeId(9), NodeId(1)), 0);
        // The probes above must not have materialized either cache.
        assert!(s.cached_ends().is_none());
        assert!(s.cached_blocks().is_none());
        // Warm: hints become exact.
        let _ = s.end_nodes();
        let _ = s.blocks();
        assert_eq!(s.cached_ends().unwrap().len(), 3);
        assert_eq!(s.ends_len_hint(), 3);
        assert_eq!(s.blocks_hint(), s.blocks().num_blocks());
        assert!(EdgeSet::new().parent_bounds().is_none());
        assert_eq!(EdgeSet::new().ends_len_hint(), 0);
    }

    #[test]
    fn clone_and_eq_ignore_caches() {
        let a = EdgeSet::from_raw(&[(1, 2), (3, 4)]);
        let _ = a.end_nodes();
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.end_nodes(), a.end_nodes());
    }
}
