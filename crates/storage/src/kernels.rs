//! Adaptive semijoin kernels over succinct block extents.
//!
//! The join step of every QTYPE1/QTYPE2 plan semijoins a sorted extent
//! against the sorted, distinct end nodes of the running result. Three
//! kernels implement it, all running directly over the compressed
//! [`SuccinctExtent`] form — blocks decode through bounded
//! [`crate::succinct::WINDOW_PAIRS`]-pair windows in the caller's
//! [`SemijoinScratch`], never into a whole-extent `Vec`:
//!
//! * [`Kernel::Merge`] — one linear pass over the extent, advancing an
//!   end cursor. Work ≈ `pairs + ends`; touches every block (and stops
//!   decoding once the ends are exhausted). Best when the two sides
//!   are of the same order.
//! * [`Kernel::Gallop`] — per end, a binary header search in the
//!   rank/select directory locates the candidate block, a sampled
//!   restart lands the decoder mid-block, and a galloping search over
//!   the decode window finds the run. Work ≈ `ends · log`; decodes at
//!   most a sample stride plus the run per end. Best when the ends are
//!   much smaller than the extent.
//! * [`Kernel::BlockSkip`] — walks the directory linearly, discarding
//!   whole blocks whose `[min_parent, max_parent]` range contains no
//!   end without decoding a byte, probing the survivors like gallop
//!   does. Adds one header probe per block; best when the ends are
//!   sparse but numerous enough to amortize the header walk.
//!
//! [`KernelPolicy::Adaptive`] picks per invocation from the size ratio
//! of the two sides (see [`KernelPolicy::pick`], the one rule the
//! executor and the planner's forecast share); the forced variants
//! exist so tests and benches can sweep every kernel over the same
//! plans. All kernels are pair-identical to a naive nested scan; they
//! differ only in work, in which blocks they fault, and in how many
//! pairs they actually decode ([`KernelReport::decoded`]).
//!
//! The [`decoded`] submodule keeps the pre-succinct kernels running
//! over a fully materialized pair slice. They are the *full-decode
//! baseline*: the bench sweeps both representations and the proptests
//! assert output equivalence pair by pair.
//!
//! Callers pass a reusable [`SemijoinScratch`]; kernels never allocate
//! per invocation (beyond one-time growth of the caller's buffers). The
//! `blocks` list of touched candidate blocks is what the execution
//! layer charges to the buffer pool — skipped blocks are never
//! faulted, which is where the `pages_read` win of the skip index
//! comes from.

use xmlgraph::NodeId;

use crate::block::BlockExtent;
use crate::cost::OpKind;
use crate::edgeset::{EdgePair, EdgeSet};
use crate::succinct::{EndCursor, Ends, SuccinctExtent};

/// A concrete semijoin algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Linear sorted merge over the whole extent.
    Merge,
    /// Per-end directory + sampled-window galloping search.
    Gallop,
    /// Header-driven block skipping, galloping within blocks.
    BlockSkip,
}

impl Kernel {
    /// Kernel name, as shown by `explain` and the kernels bench.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Merge => "merge",
            Kernel::Gallop => "gallop",
            Kernel::BlockSkip => "block-skip",
        }
    }

    /// The operator a semijoin run with this kernel attributes to.
    pub fn op_kind(self) -> OpKind {
        match self {
            Kernel::Merge => OpKind::SemijoinMerge,
            Kernel::Gallop => OpKind::SemijoinGallop,
            Kernel::BlockSkip => OpKind::SemijoinSkip,
        }
    }
}

/// How the execution layer picks the kernel of each semijoin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Choose per invocation from the size ratio (the default).
    #[default]
    Adaptive,
    /// Always merge.
    Merge,
    /// Always gallop.
    Gallop,
    /// Always block-skip.
    BlockSkip,
}

impl KernelPolicy {
    /// Every policy, in display order.
    pub const ALL: [KernelPolicy; 4] = [
        KernelPolicy::Adaptive,
        KernelPolicy::Merge,
        KernelPolicy::Gallop,
        KernelPolicy::BlockSkip,
    ];

    /// Policy name (`adaptive`, `merge`, `gallop`, `block-skip`).
    pub fn name(self) -> &'static str {
        match self {
            KernelPolicy::Adaptive => "adaptive",
            KernelPolicy::Merge => Kernel::Merge.name(),
            KernelPolicy::Gallop => Kernel::Gallop.name(),
            KernelPolicy::BlockSkip => Kernel::BlockSkip.name(),
        }
    }

    /// Parses a policy name as accepted by the CLI and benches.
    pub fn parse(s: &str) -> Option<KernelPolicy> {
        KernelPolicy::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Resolves the kernel for one semijoin of `ends_len` end nodes
    /// against `extent` — [`KernelPolicy::pick`] over the extent's
    /// exact pair and block counts.
    pub fn choose(self, ends_len: usize, extent: &EdgeSet) -> Kernel {
        self.pick(
            ends_len as u64,
            extent.len() as u64,
            extent.blocks().num_blocks() as u64,
        )
    }

    /// The one kernel-choice rule, on sizes alone: `ends` end nodes
    /// semijoined against `pairs` extent pairs stored in `blocks`
    /// blocks. The executor calls it through [`KernelPolicy::choose`]
    /// with exact sizes; the planner calls it with its statistics, so
    /// a forecast names the kernel execution would run on those sizes.
    ///
    /// The adaptive rule compares work estimates: a merge inspects
    /// every pair (`m + n`), a gallop pays about `2·log₂(gap) + 4`
    /// comparisons per end over gaps of `m / n` pairs, and a block skip
    /// pays the same within one-page blocks plus one header probe per
    /// block. The cheapest estimate wins; `BlockSkip` is preferred to
    /// `Gallop` only once the extent spans several blocks and the
    /// header walk is amortized (`n ≥ blocks`), since only then does
    /// the skip index pay for itself.
    pub fn pick(self, ends: u64, pairs: u64, blocks: u64) -> Kernel {
        match self {
            KernelPolicy::Merge => Kernel::Merge,
            KernelPolicy::Gallop => Kernel::Gallop,
            KernelPolicy::BlockSkip => Kernel::BlockSkip,
            KernelPolicy::Adaptive => {
                let (m, n) = (pairs, ends);
                if m == 0 || n == 0 {
                    return Kernel::Merge;
                }
                let gap_log = u64::from(u64::BITS - (m / n).max(1).leading_zeros());
                if m + n <= n * (2 * gap_log + 4) {
                    return Kernel::Merge;
                }
                if blocks > 1 && n >= blocks {
                    Kernel::BlockSkip
                } else {
                    Kernel::Gallop
                }
            }
        }
    }
}

/// Caller-owned, reusable semijoin buffers.
#[derive(Debug, Default)]
pub struct SemijoinScratch {
    /// Matched pairs, in extent order.
    pub out: Vec<EdgePair>,
    /// Indices of the blocks the kernel faulted (candidate blocks; a
    /// merge faults all of them). The execution layer charges exactly
    /// these to the buffer pool.
    pub blocks: Vec<u32>,
    /// Bounded decode window the kernels stream compressed blocks
    /// through: at most [`crate::succinct::WINDOW_PAIRS`] pairs live
    /// here at once, so its capacity is fixed after first use no
    /// matter how large the extent is.
    pub window: Vec<EdgePair>,
}

impl SemijoinScratch {
    /// Fresh empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self) {
        self.out.clear();
        self.blocks.clear();
        self.window.clear();
    }
}

/// Work/volume counters of one kernel invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelReport {
    /// Pair/header comparisons performed (the `join_work` counter).
    pub work: usize,
    /// Extent pairs resident in the blocks the kernel faulted (the
    /// `extent_pairs` counter — skipped blocks are never read).
    pub pairs_read: usize,
    /// Pairs actually decoded through the window — the succinct form's
    /// saving over a full decode is `pairs - decoded`.
    pub decoded: usize,
}

/// Runs `kernel` for the semijoin of `extent` against the sorted,
/// distinct `ends`, leaving the matched pairs (sorted, duplicate-free)
/// in `scratch.out` and the faulted block indices in `scratch.blocks`.
/// Runs directly over the extent's succinct compressed form; only the
/// intersecting stretches of the intersecting blocks are decoded.
pub fn semijoin_into(
    kernel: Kernel,
    extent: &EdgeSet,
    ends: Ends<'_>,
    scratch: &mut SemijoinScratch,
) -> KernelReport {
    scratch.reset();
    if extent.is_empty() {
        return KernelReport::default();
    }
    let succ = extent.succinct();
    match kernel {
        Kernel::Merge => merge_kernel(succ, ends, scratch),
        Kernel::Gallop => gallop_kernel(succ, ends, scratch),
        Kernel::BlockSkip => block_skip_kernel(succ, ends, scratch),
    }
}

fn merge_kernel(
    succ: &SuccinctExtent,
    ends: Ends<'_>,
    scratch: &mut SemijoinScratch,
) -> KernelReport {
    let nb = succ.num_blocks();
    scratch.blocks.extend(0..nb as u32);
    let mut work = 0usize;
    let mut decoded = 0usize;
    // The merge's inner loop runs once per extent pair, so the end-side
    // dispatch is specialized per representation: the slice form gets
    // the baseline's tight index loop (no per-pair enum match), the
    // packed form streams through its cursor. Both count `work` as one
    // comparison per pair examined, so the two forms report identically.
    match ends {
        Ends::Slice(es) => {
            let mut ei = 0usize;
            'blocks: for k in 0..nb {
                if ei >= es.len() {
                    break;
                }
                let mut bc = succ.block_cursor(k);
                loop {
                    let n = bc.fill(&mut scratch.window);
                    if n == 0 {
                        break;
                    }
                    decoded += n;
                    for p in &scratch.window {
                        work += 1;
                        while let Some(&e) = es.get(ei) {
                            if e < p.parent {
                                ei += 1;
                            } else {
                                if e == p.parent {
                                    scratch.out.push(*p);
                                }
                                break;
                            }
                        }
                        if ei >= es.len() {
                            break 'blocks;
                        }
                    }
                }
            }
        }
        Ends::Packed(_) => {
            let mut cur = ends.cursor();
            'pblocks: for k in 0..nb {
                if cur.peek().is_none() {
                    break;
                }
                let mut bc = succ.block_cursor(k);
                loop {
                    let n = bc.fill(&mut scratch.window);
                    if n == 0 {
                        break;
                    }
                    decoded += n;
                    for p in &scratch.window {
                        work += 1;
                        loop {
                            match cur.peek() {
                                None => break 'pblocks,
                                Some(e) if e < p.parent => cur.advance(),
                                Some(e) => {
                                    if e == p.parent {
                                        scratch.out.push(*p);
                                    }
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    KernelReport {
        work,
        pairs_read: succ.num_pairs(),
        decoded,
    }
}

fn gallop_kernel(
    succ: &SuccinctExtent,
    ends: Ends<'_>,
    scratch: &mut SemijoinScratch,
) -> KernelReport {
    let dir = succ.directory();
    let nb = dir.num_blocks();
    let mut work = 0usize;
    let mut pairs_read = 0usize;
    let mut decoded = 0usize;
    let mut cur = ends.cursor();
    let mut k = 0usize;
    while k < nb {
        let Some(e) = cur.peek() else { break };
        // Header search: first block from k that can still contain e.
        k = dir.first_block_reaching_from(k, e.0, &mut work);
        if k >= nb {
            break;
        }
        work += 1;
        if dir.min_parent(k) > e.0 {
            // e falls in the gap before block k: no extent pair has it.
            cur.skip_below(dir.min_parent(k));
            continue;
        }
        scratch.blocks.push(k as u32);
        pairs_read += dir.count(k);
        probe_block(
            succ,
            k,
            &mut cur,
            &mut scratch.out,
            &mut scratch.window,
            &mut work,
            &mut decoded,
        );
        k += 1;
    }
    KernelReport {
        work,
        pairs_read,
        decoded,
    }
}

fn block_skip_kernel(
    succ: &SuccinctExtent,
    ends: Ends<'_>,
    scratch: &mut SemijoinScratch,
) -> KernelReport {
    let dir = succ.directory();
    let nb = dir.num_blocks();
    let mut work = 0usize;
    let mut pairs_read = 0usize;
    let mut decoded = 0usize;
    let mut cur = ends.cursor();
    for k in 0..nb {
        work += 1; // header probe
        cur.skip_below(dir.min_parent(k));
        let Some(e) = cur.peek() else { break };
        if e.0 > dir.max_parent(k) {
            continue; // skip the whole block without decoding a byte
        }
        scratch.blocks.push(k as u32);
        pairs_read += dir.count(k);
        probe_block(
            succ,
            k,
            &mut cur,
            &mut scratch.out,
            &mut scratch.window,
            &mut work,
            &mut decoded,
        );
    }
    KernelReport {
        work,
        pairs_read,
        decoded,
    }
}

/// Probes one block for the current run of ends: restarts the decoder
/// at the latest sample before the first end, streams the block through
/// the window, and locates each end's run with the shared galloping
/// helper. On return the cursor sits at the first end `>= max_parent`
/// of the block — an end equal to `max_parent` is left in place because
/// its run may continue in the next block.
// apex-lint: allow(panic-reachability): i is bounded by wp.len() checks before every wp[i] read
fn probe_block(
    succ: &SuccinctExtent,
    k: usize,
    cur: &mut EndCursor<'_>,
    out: &mut Vec<EdgePair>,
    window: &mut Vec<EdgePair>,
    work: &mut usize,
    decoded: &mut usize,
) {
    let bound = succ.directory().max_parent(k);
    let Some(e0) = cur.peek() else { return };
    let mut bc = succ.block_cursor_at(k, e0.0);
    loop {
        let n = bc.fill(window);
        if n == 0 {
            break;
        }
        *decoded += n;
        let mut lo = 0usize;
        loop {
            let Some(e) = cur.peek() else { return };
            if e.0 > bound {
                return; // later ends belong to later blocks
            }
            let wp: &[EdgePair] = window;
            let start = gallop_lower_bound(wp, lo, e, work);
            if start >= wp.len() {
                break; // whole window below e: refill
            }
            let mut i = start;
            while i < wp.len() && wp[i].parent == e {
                *work += 1;
                out.push(wp[i]);
                i += 1;
            }
            lo = i;
            if i >= wp.len() {
                // The run touched the window's last pair: e may
                // continue in the next window, so keep the cursor on it.
                break;
            }
            cur.advance(); // e fully resolved inside this window
        }
    }
    // Block exhausted: ends strictly below max_parent cannot match any
    // later block (blocks are parent-ordered), so resolve them here.
    cur.skip_below(bound);
}

/// Galloping lower bound: first index `i >= lo` with
/// `pairs[i].parent >= target`, counting comparisons into `work`.
/// The single shared bracket-invariant search — both the pair-slice
/// baseline ([`decoded`]) and the succinct block-window path
/// ([`probe_block`]) call it.
// apex-lint: allow(panic-reachability): hi/base+half stay inside [lo, n) by the gallop/binary-search bracket invariant
fn gallop_lower_bound(pairs: &[EdgePair], lo: usize, target: NodeId, work: &mut usize) -> usize {
    let n = pairs.len();
    let mut step = 1usize;
    let mut prev = lo;
    let mut hi = lo;
    // Exponential phase: bracket the target.
    loop {
        if hi >= n {
            hi = n;
            break;
        }
        *work += 1;
        if pairs[hi].parent >= target {
            break;
        }
        prev = hi + 1;
        hi += step;
        step *= 2;
    }
    // Binary phase within [prev, hi).
    let mut size = hi - prev;
    let mut base = prev;
    while size > 0 {
        let half = size / 2;
        *work += 1;
        if pairs[base + half].parent < target {
            base += half + 1;
            size -= half + 1;
        } else {
            size = half;
        }
    }
    base
}

/// Full-decode baseline kernels over a materialized pair slice.
///
/// These are the pre-succinct implementations, kept verbatim so the
/// kernels bench can time "decode everything, then run over the `Vec`"
/// against the succinct path, and so the proptests can assert the two
/// representations produce identical output on arbitrary pair sets.
/// `pairs` must be the full decode of `bx` (the bench reuses one
/// decode buffer across iterations to keep the comparison honest).
pub mod decoded {
    use super::*;

    /// Baseline semijoin over the decoded slice; same contract as
    /// [`super::semijoin_into`]. `decoded` is reported as the full pair
    /// count — this path only exists once everything is materialized.
    pub fn semijoin_into(
        kernel: Kernel,
        pairs: &[EdgePair],
        bx: &BlockExtent,
        ends: &[NodeId],
        scratch: &mut SemijoinScratch,
    ) -> KernelReport {
        scratch.reset();
        if pairs.is_empty() {
            return KernelReport::default();
        }
        let mut rep = match kernel {
            Kernel::Merge => merge_kernel(pairs, bx, ends, scratch),
            Kernel::Gallop => gallop_kernel(pairs, bx, ends, scratch),
            Kernel::BlockSkip => block_skip_kernel(pairs, bx, ends, scratch),
        };
        rep.decoded = pairs.len();
        rep
    }

    // apex-lint: allow(panic-reachability): ends[ei] is guarded by ei < ends.len() on every probe
    fn merge_kernel(
        pairs: &[EdgePair],
        bx: &BlockExtent,
        ends: &[NodeId],
        scratch: &mut SemijoinScratch,
    ) -> KernelReport {
        scratch.blocks.extend(0..bx.num_blocks() as u32);
        let mut work = 0usize;
        let mut ei = 0usize;
        for p in pairs {
            work += 1;
            while ei < ends.len() && ends[ei] < p.parent {
                ei += 1;
            }
            if ei >= ends.len() {
                break;
            }
            if ends[ei] == p.parent {
                scratch.out.push(*p);
            }
        }
        KernelReport {
            work,
            pairs_read: pairs.len(),
            decoded: 0,
        }
    }

    // apex-lint: allow(panic-reachability): i < pairs.len() is checked before every pairs[i] read
    fn gallop_range(
        pairs: &[EdgePair],
        ends: &[NodeId],
        out: &mut Vec<EdgePair>,
        work: &mut usize,
    ) -> usize {
        let mut lo = 0usize;
        for &e in ends {
            if lo >= pairs.len() {
                break;
            }
            let start = gallop_lower_bound(pairs, lo, e, work);
            let mut i = start;
            while i < pairs.len() && pairs[i].parent == e {
                *work += 1;
                out.push(pairs[i]);
                i += 1;
            }
            lo = i;
        }
        lo
    }

    fn gallop_kernel(
        pairs: &[EdgePair],
        bx: &BlockExtent,
        ends: &[NodeId],
        scratch: &mut SemijoinScratch,
    ) -> KernelReport {
        let mut work = 0usize;
        gallop_range(pairs, ends, &mut scratch.out, &mut work);
        let pairs_read = candidate_blocks(bx, ends, &mut scratch.blocks);
        KernelReport {
            work,
            pairs_read,
            decoded: 0,
        }
    }

    // apex-lint: allow(panic-reachability): block header first/count ranges are constructed from this extent's own pairs in close_block
    fn block_skip_kernel(
        pairs: &[EdgePair],
        bx: &BlockExtent,
        ends: &[NodeId],
        scratch: &mut SemijoinScratch,
    ) -> KernelReport {
        let mut work = 0usize;
        let mut pairs_read = 0usize;
        let mut ei = 0usize;
        for (k, h) in bx.headers().iter().enumerate() {
            work += 1; // header probe
            while ei < ends.len() && ends[ei].0 < h.min_parent {
                ei += 1;
            }
            if ei >= ends.len() {
                break;
            }
            if ends[ei].0 > h.max_parent {
                continue; // skip the whole block without decoding
            }
            scratch.blocks.push(k as u32);
            pairs_read += h.count as usize;
            // Ends that can match inside this block's parent range.
            let sub_end = ei
                + ends[ei..].partition_point(|e| e.0 <= h.max_parent || h.max_parent == u32::MAX);
            let range = h.first as usize..(h.first + h.count) as usize;
            gallop_range(
                &pairs[range],
                &ends[ei..sub_end],
                &mut scratch.out,
                &mut work,
            );
        }
        KernelReport {
            work,
            pairs_read,
            decoded: 0,
        }
    }

    /// Collects into `blocks` the indices of blocks whose parent range
    /// intersects `ends` — the blocks a probe-style kernel faults.
    /// Returns the total pairs resident in those blocks.
    // apex-lint: allow(panic-reachability): ends[ei] is guarded by ei < ends.len() on every probe
    fn candidate_blocks(bx: &BlockExtent, ends: &[NodeId], blocks: &mut Vec<u32>) -> usize {
        let mut pairs_read = 0usize;
        let mut ei = 0usize;
        for (k, h) in bx.headers().iter().enumerate() {
            while ei < ends.len() && ends[ei].0 < h.min_parent {
                ei += 1;
            }
            if ei >= ends.len() {
                break;
            }
            if ends[ei].0 <= h.max_parent {
                blocks.push(k as u32);
                pairs_read += h.count as usize;
            }
        }
        pairs_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(extent: &EdgeSet, ends: &[NodeId]) -> Vec<EdgePair> {
        extent.iter().filter(|p| ends.contains(&p.parent)).collect()
    }

    fn check_all(extent: &EdgeSet, ends: &[NodeId]) {
        let want = naive(extent, ends);
        let mut scratch = SemijoinScratch::new();
        for kernel in [Kernel::Merge, Kernel::Gallop, Kernel::BlockSkip] {
            let rep = semijoin_into(kernel, extent, ends.into(), &mut scratch);
            assert_eq!(scratch.out, want, "{} output", kernel.name());
            assert!(
                rep.pairs_read <= extent.len(),
                "{} reads within extent",
                kernel.name()
            );
            assert!(
                rep.decoded <= extent.len(),
                "{} decodes within extent",
                kernel.name()
            );
            // The full-decode baseline agrees pair for pair.
            let base =
                decoded::semijoin_into(kernel, extent.pairs(), extent.blocks(), ends, &mut scratch);
            assert_eq!(scratch.out, want, "{} baseline output", kernel.name());
            assert_eq!(base.decoded, extent.len());
        }
        let kernel = KernelPolicy::Adaptive.choose(ends.len(), extent);
        semijoin_into(kernel, extent, ends.into(), &mut scratch);
        assert_eq!(scratch.out, want, "adaptive output");
        // The packed end form agrees with the slice form.
        let ix = crate::succinct::EndIndex::from_sorted(ends);
        semijoin_into(kernel, extent, (&ix).into(), &mut scratch);
        assert_eq!(scratch.out, want, "packed-ends output");
    }

    #[test]
    fn kernels_agree_on_small_inputs() {
        let extent = EdgeSet::from_raw(&[(1, 2), (1, 3), (4, 5), (7, 8), (9, 1)]);
        check_all(&extent, &[NodeId(1), NodeId(7)]);
        check_all(&extent, &[NodeId(0)]);
        check_all(&extent, &[]);
        check_all(&extent, &[NodeId(9), NodeId(100)]);
        check_all(&EdgeSet::new(), &[NodeId(1)]);
    }

    #[test]
    fn kernels_agree_on_multiblock_runs() {
        // Long same-parent runs crossing block boundaries.
        let extent = EdgeSet::from_pairs(
            (0..30_000u32)
                .map(|i| EdgePair::new(NodeId(i / 4000), NodeId(i)))
                .collect(),
        );
        assert!(extent.blocks().num_blocks() > 2);
        check_all(&extent, &[NodeId(0), NodeId(3), NodeId(7)]);
        check_all(&extent, &[NodeId(2)]);
        let every: Vec<NodeId> = (0..8).map(NodeId).collect();
        check_all(&extent, &every);
    }

    #[test]
    fn skip_kernel_faults_fewer_blocks() {
        // Multi-block extent with a probe far from most blocks.
        let extent = EdgeSet::from_pairs(
            (0..40_000u32)
                .map(|i| EdgePair::new(NodeId(i), NodeId(i + 1)))
                .collect(),
        );
        let bx = extent.blocks();
        assert!(bx.num_blocks() > 2);
        let ends = [NodeId(3), NodeId(39_999)];
        let mut scratch = SemijoinScratch::new();
        let skip = semijoin_into(Kernel::BlockSkip, &extent, ends[..].into(), &mut scratch);
        assert_eq!(scratch.out.len(), 2);
        assert_eq!(scratch.blocks.len(), 2, "only first and last block fault");
        assert!(skip.pairs_read < extent.len());
        assert!(skip.decoded < extent.len(), "skipped blocks stay encoded");
        let merge = semijoin_into(Kernel::Merge, &extent, ends[..].into(), &mut scratch);
        assert_eq!(scratch.blocks.len(), extent.blocks().num_blocks());
        assert!(skip.work < merge.work);
    }

    #[test]
    fn gallop_decodes_a_fraction() {
        let extent = EdgeSet::from_pairs(
            (0..40_000u32)
                .map(|i| EdgePair::new(NodeId(i), NodeId(i + 1)))
                .collect(),
        );
        let ends = [NodeId(7), NodeId(20_000), NodeId(39_000)];
        let mut scratch = SemijoinScratch::new();
        let rep = semijoin_into(Kernel::Gallop, &extent, ends[..].into(), &mut scratch);
        assert_eq!(scratch.out.len(), 3);
        // A sampled restart plus window per end, not whole blocks.
        assert!(
            rep.decoded * 10 < extent.len(),
            "decoded {} of {}",
            rep.decoded,
            extent.len()
        );
    }

    #[test]
    fn adaptive_matches_ratio() {
        let big = EdgeSet::from_pairs(
            (0..50_000u32)
                .map(|i| EdgePair::new(NodeId(i), NodeId(i)))
                .collect(),
        );
        // Same-order sides merge; sparse probes search.
        assert_eq!(
            KernelPolicy::Adaptive.choose(big.len(), &big),
            Kernel::Merge
        );
        assert_eq!(KernelPolicy::Adaptive.choose(2, &big), Kernel::Gallop);
        let n = big.blocks().num_blocks();
        assert!(n > 1);
        assert_eq!(
            KernelPolicy::Adaptive.choose(n.max(64), &big),
            Kernel::BlockSkip
        );
        // Degenerate inputs fall back to merge.
        assert_eq!(KernelPolicy::Adaptive.choose(0, &big), Kernel::Merge);
    }

    #[test]
    fn policy_parse_roundtrips() {
        for p in KernelPolicy::ALL {
            assert_eq!(KernelPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(KernelPolicy::parse("nope"), None);
    }

    #[test]
    fn null_parent_root_pair_is_matchable() {
        let extent = EdgeSet::from_pairs(vec![
            EdgePair::new(NodeId(1), NodeId(2)),
            EdgePair::root(NodeId(0)),
        ]);
        check_all(&extent, &[xmlgraph::NULL_NODE]);
    }
}
