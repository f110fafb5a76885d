//! CART decision trees with gini impurity.
//!
//! Split search runs over a `SplitPrecompute`: every feature's
//! values are sorted **once per forest** and replaced by dense rank
//! codes, so a node's split scan is a counting pass over its rows plus
//! a sweep of the occupied ranks in ascending order — no per-node
//! re-sort, no per-node feature copies. The boundary sequence, count
//! arithmetic, threshold placement, and rng consumption are identical
//! to the classic per-node-sort formulation, so fitted trees are
//! bit-for-bit the same.

use crate::data::Dataset;
use crate::parallel::run_units_scratch;
use rand::Rng;

/// Hyper-parameters controlling tree growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeParams {
    /// Maximum tree depth (root is depth 0).
    pub max_depth: usize,
    /// Minimum samples a node must hold to be considered for splitting.
    pub min_samples_split: usize,
    /// Minimum samples each child of a split must receive.
    pub min_samples_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 24,
            min_samples_split: 2,
            min_samples_leaf: 1,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        /// Class probabilities (leaf class fractions) — the per-tree
        /// confidence estimates the paper's §5.3 partition relies on.
        probabilities: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART classification tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    feature_count: usize,
    class_count: usize,
    /// Unnormalized gini importance per feature: Σ over splits of
    /// (node samples / total samples) × impurity decrease.
    importances: Vec<f64>,
    node_count_leaves: usize,
    max_depth_reached: usize,
}

/// A fitted tree flattened into parallel per-node arrays — the
/// serialization layout of the `survdb-model/v1` on-disk format.
///
/// Node `i` is a split when `kind[i] == 1` (its `feature`, `threshold`,
/// `left`, and `right` entries are live) and a leaf when `kind[i] == 0`
/// (its `class_count` probabilities are the next unconsumed run of
/// `leaf_probabilities`, in node order; its split columns hold zeros).
/// The tree builder pushes a parent's slot before growing its children,
/// so child indices are always strictly greater than the parent's;
/// [`DecisionTree::from_flat`] re-checks that invariant, which bounds
/// every prediction walk on a loaded tree by the node count.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatTree {
    /// Number of features the tree tests.
    pub feature_count: usize,
    /// Number of classes in each leaf distribution.
    pub class_count: usize,
    /// Per node: 0 = leaf, 1 = split.
    pub kind: Vec<u8>,
    /// Per node: feature index tested (splits only).
    pub feature: Vec<u32>,
    /// Per node: split threshold (`value <= threshold` goes left).
    pub threshold: Vec<f64>,
    /// Per node: left child index (splits only).
    pub left: Vec<u32>,
    /// Per node: right child index (splits only).
    pub right: Vec<u32>,
    /// Leaf class distributions, `class_count` values per leaf,
    /// concatenated in node order.
    pub leaf_probabilities: Vec<f64>,
    /// Unnormalized gini importances, one per feature.
    pub importances: Vec<f64>,
}

/// Midpoint threshold between two adjacent distinct feature values.
///
/// When the values are so close that the midpoint rounds up to `hi`
/// (which would send both groups left and produce an empty child), fall
/// back to `lo`: the split `v <= lo` still separates the two values.
fn threshold_between(lo: f64, hi: f64) -> f64 {
    let mid = lo + (hi - lo) / 2.0;
    if mid >= hi {
        lo
    } else {
        mid
    }
}

/// Gini impurity `2p(1−p)` generalized to k classes: `1 − Σ pᵢ²`.
pub(crate) fn gini(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let sum_sq: f64 = counts.iter().map(|c| c * c).sum();
    1.0 - sum_sq / (total * total)
}

/// Index of the largest probability; ties go to the higher class
/// index, so a binary 0.5/0.5 distribution predicts class 1.
pub(crate) fn argmax(probs: &[f64]) -> usize {
    probs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probs"))
        .map(|(i, _)| i)
        .expect("at least two classes")
}

/// Class-count buffer of the split sweep. A fixed-size array keeps the
/// common class counts in registers with the width known at compile
/// time; a `Vec` serves any other count through the same scan body.
trait CountBuf: AsRef<[f64]> + AsMut<[f64]> {
    /// A buffer holding a copy of `counts`.
    fn copied(counts: &[f64]) -> Self;
}

impl<const C: usize> CountBuf for [f64; C] {
    fn copied(counts: &[f64]) -> Self {
        counts
            .try_into()
            .expect("class count matches the buffer width")
    }
}

impl CountBuf for Vec<f64> {
    fn copied(counts: &[f64]) -> Self {
        counts.to_vec()
    }
}

/// Rank-coded feature columns, computed once per forest and shared by
/// all of its trees.
///
/// For each feature the training rows' values are sorted once; the
/// sorted distinct values become `uniques[f]` and every row stores the
/// rank of its value in that list (`codes[f][row]`). Ranks are all a
/// split search needs: class counts per rank reproduce the classic
/// sorted scan, and `value <= threshold` becomes `code <= split_code`.
/// Codes don't depend on the bootstrap sample, so the O(f · n log n)
/// sort cost is paid once per forest instead of per node or per tree.
pub(crate) struct SplitPrecompute {
    /// Per feature: sorted distinct values present in the training rows.
    uniques: Vec<Vec<f64>>,
    /// Per feature: rank of each dataset row's value in `uniques`,
    /// indexed by dataset row id (rows outside the training set keep 0).
    codes: Vec<Vec<u32>>,
    /// Per feature: `code × class_count + label` per dataset row — the
    /// value's histogram slot, so a split scan is one lookup per row.
    coded_labels: Vec<Vec<u32>>,
    /// Largest `uniques` length over all features (histogram sizing).
    max_distinct: usize,
}

impl SplitPrecompute {
    /// Builds codes for the rows of `data` listed in `rows`. The codes
    /// depend only on the set of rows: a duplicate costs one more sort
    /// entry and changes nothing. Each feature is its own work unit.
    pub(crate) fn build(data: &Dataset, rows: &[usize]) -> SplitPrecompute {
        let _span = obs::span!("split_precompute");
        let c = data.class_count() as u32;
        let labels = data.labels();
        let columns = run_units_scratch(
            data.feature_count(),
            || Vec::with_capacity(rows.len()),
            |sorted: &mut Vec<u32>, f| {
                let column = data.column(f);
                sorted.clear();
                sorted.extend(rows.iter().map(|&r| r as u32));
                sorted.sort_unstable_by(|&a, &b| {
                    column[a as usize]
                        .partial_cmp(&column[b as usize])
                        .expect("finite features")
                });
                let mut uniq: Vec<f64> = Vec::new();
                let mut code_col = vec![0u32; data.len()];
                let mut cl_col = vec![0u32; data.len()];
                for &r in sorted.iter() {
                    let v = column[r as usize];
                    if uniq.last() != Some(&v) {
                        uniq.push(v);
                    }
                    let code = (uniq.len() - 1) as u32;
                    code_col[r as usize] = code;
                    cl_col[r as usize] = code * c + labels[r as usize] as u32;
                }
                (uniq, code_col, cl_col)
            },
        );
        let mut pre = SplitPrecompute {
            uniques: Vec::with_capacity(columns.len()),
            codes: Vec::with_capacity(columns.len()),
            coded_labels: Vec::with_capacity(columns.len()),
            max_distinct: 0,
        };
        for (uniq, code_col, cl_col) in columns {
            pre.max_distinct = pre.max_distinct.max(uniq.len());
            pre.uniques.push(uniq);
            pre.codes.push(code_col);
            pre.coded_labels.push(cl_col);
        }
        pre
    }

    fn feature_count(&self) -> usize {
        self.codes.len()
    }
}

/// Per-tree training state.
///
/// `order` holds the tree's bag — one `(row, multiplicity)` entry per
/// distinct in-bag row, multiplicity ≥ 1 — and is partitioned in place
/// as the tree grows, so a node always owns a contiguous `[start, end)`
/// range of entries. Every count the tree depends on is a *weighted*
/// count (the sum of multiplicities). The histogram and its occupancy
/// bitset are reused across every split search.
struct GrowContext<'a> {
    pre: &'a SplitPrecompute,
    /// Label per dataset row (borrowed from the dataset).
    labels: &'a [usize],
    /// Bag entries `(row, multiplicity)`, partitioned down the tree.
    order: Vec<(u32, u32)>,
    scratch: Vec<(u32, u32)>,
    /// `max_distinct × class_count` class counts, indexed directly by
    /// the precomputed `coded_labels` slots and zeroed between uses.
    /// Counts are exact small integers, so u32 arithmetic here converts
    /// losslessly to the f64 counts the gini formula consumes.
    hist: Vec<u32>,
    /// One bit per rank, set while a node's entries fill `hist` and
    /// cleared as the sweep consumes it, so the sweep visits only the
    /// occupied ranks.
    occupied: Vec<u64>,
    /// Left-child class counts of the best boundary found so far.
    split_counts: Vec<f64>,
    /// Reusable identity permutation for the per-node feature draw.
    feature_order: Vec<usize>,
    /// Per-feature "constant in the current subtree" flags. A feature
    /// with one rank in a node has one rank in every descendant (they
    /// hold row subsets), so descendants skip it without a scan — a
    /// constant feature yields no boundaries either way.
    constant: Vec<bool>,
    /// Undo stack of features marked constant, unwound per node.
    constant_marks: Vec<u32>,
    /// Recycled class-count vectors (one live per recursion level), so
    /// threading counts through `grow` allocates only at peak depth.
    counts_free: Vec<Vec<f64>>,
    /// Plain build counters, flushed to `obs` once per fitted tree so
    /// the hot paths never touch a lock.
    stats: TreeBuildStats,
}

/// Counters accumulated while growing one tree. Kept as plain integers
/// on the context (no atomics, no locks) and published in a single
/// `obs::count_many` call when `fit_presorted` returns.
#[derive(Default)]
struct TreeBuildStats {
    nodes_expanded: u64,
    leaves_created: u64,
    /// Published as `forest.split_scan.dense`, the name the benchmark
    /// reads.
    split_scans: u64,
    /// Bag entries read by split-scan histogram fills and partitions.
    rows_scanned: u64,
    counts_reused: u64,
    counts_allocated: u64,
}

impl<'a> GrowContext<'a> {
    fn build(pre: &'a SplitPrecompute, data: &'a Dataset, bag: Vec<(u32, u32)>) -> GrowContext<'a> {
        let len = bag.len();
        GrowContext {
            pre,
            labels: data.labels(),
            order: bag,
            scratch: Vec::with_capacity(len),
            hist: vec![0; pre.max_distinct * data.class_count()],
            occupied: vec![0; pre.max_distinct.div_ceil(64)],
            split_counts: vec![0.0; data.class_count()],
            feature_order: Vec::with_capacity(pre.feature_count()),
            constant: pre.uniques.iter().map(|u| u.len() < 2).collect(),
            constant_marks: Vec::new(),
            counts_free: Vec::new(),
            stats: TreeBuildStats::default(),
        }
    }

    /// Weighted class counts over the node `[start, end)`.
    fn counts(&self, start: usize, end: usize, class_count: usize) -> Vec<f64> {
        let mut counts = vec![0.0_f64; class_count];
        for &(row, weight) in &self.order[start..end] {
            counts[self.labels[row as usize]] += weight as f64;
        }
        counts
    }

    /// Stably partitions the node `[start, end)` so entries going left
    /// (`code <= split_code` on the split feature) occupy the front,
    /// each carrying its multiplicity. Returns the number of entries
    /// that went left.
    fn partition(
        &mut self,
        start: usize,
        end: usize,
        split_feature: usize,
        split_code: u32,
    ) -> usize {
        let GrowContext {
            pre,
            order,
            scratch,
            ..
        } = self;
        let codes = &pre.codes[split_feature];
        self.stats.rows_scanned += (end - start) as u64;
        scratch.clear();
        let mut write = start;
        for k in start..end {
            let entry = order[k];
            if codes[entry.0 as usize] <= split_code {
                order[write] = entry;
                write += 1;
            } else {
                scratch.push(entry);
            }
        }
        order[write..end].copy_from_slice(scratch);
        write - start
    }

    /// Takes a counts vector from the free list, tracking whether the
    /// request was served by reuse or a fresh allocation.
    fn pop_counts_vec(&mut self) -> Vec<f64> {
        match self.counts_free.pop() {
            Some(v) => {
                self.stats.counts_reused += 1;
                v
            }
            None => {
                self.stats.counts_allocated += 1;
                Vec::new()
            }
        }
    }
}

impl DecisionTree {
    /// Fits a tree on the rows of `data` selected by `indices`
    /// (duplicates allowed: bootstrap), considering `max_features`
    /// randomly chosen features at each split.
    ///
    /// Duplicates are collapsed into one `(row, multiplicity)` bag entry
    /// per distinct row first; the tree is the one the draws define,
    /// whatever their order.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or `max_features` is 0 or exceeds
    /// the feature count.
    pub fn fit<R: Rng + ?Sized>(
        data: &Dataset,
        indices: &[usize],
        params: &TreeParams,
        max_features: usize,
        rng: &mut R,
    ) -> DecisionTree {
        let mut multiplicity = vec![0u32; data.len()];
        for &i in indices {
            multiplicity[i] += 1;
        }
        let bag: Vec<(u32, u32)> = multiplicity
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m > 0)
            .map(|(row, &m)| (row as u32, m))
            .collect();
        let pre = SplitPrecompute::build(data, indices);
        Self::fit_presorted(data, &pre, bag, params, max_features, rng)
    }

    /// Fits a tree on a bag of `(row, multiplicity)` entries, reusing a
    /// [`SplitPrecompute`] built over (a superset of) the bag's rows —
    /// the forest path, which shares one precompute across all trees.
    ///
    /// The tree depends only on each row's total multiplicity: entry
    /// order is free, and a row may even be split over several entries.
    pub(crate) fn fit_presorted<R: Rng + ?Sized>(
        data: &Dataset,
        pre: &SplitPrecompute,
        bag: Vec<(u32, u32)>,
        params: &TreeParams,
        max_features: usize,
        rng: &mut R,
    ) -> DecisionTree {
        assert!(!bag.is_empty(), "cannot fit a tree on zero samples");
        assert!(
            max_features >= 1 && max_features <= data.feature_count(),
            "max_features must be in 1..={}, got {max_features}",
            data.feature_count()
        );
        debug_assert!(
            bag.iter().all(|&(_, m)| m > 0),
            "bag entries carry multiplicity >= 1"
        );

        let mut tree = DecisionTree {
            nodes: Vec::new(),
            feature_count: data.feature_count(),
            class_count: data.class_count(),
            importances: vec![0.0; data.feature_count()],
            node_count_leaves: 0,
            max_depth_reached: 0,
        };
        let len = bag.len();
        let weight: usize = bag.iter().map(|&(_, m)| m as usize).sum();
        let mut ctx = GrowContext::build(pre, data, bag);
        let total = weight as f64;
        let root_counts = ctx.counts(0, len, data.class_count());
        tree.grow(
            &mut ctx,
            0,
            len,
            weight,
            root_counts,
            0,
            params,
            max_features,
            total,
            rng,
        );
        if obs::enabled() {
            obs::count_many(&[
                ("forest.trees_built", 1),
                ("forest.nodes_expanded", ctx.stats.nodes_expanded),
                ("forest.leaves_created", ctx.stats.leaves_created),
                ("forest.split_scan.dense", ctx.stats.split_scans),
                ("forest.rows_scanned", ctx.stats.rows_scanned),
                ("forest.counts_reused", ctx.stats.counts_reused),
                ("forest.counts_allocated", ctx.stats.counts_allocated),
            ]);
        }
        tree
    }

    /// Recursively grows the subtree over the bag entries in
    /// `ctx.order[start..end]`, returning the new node's index. The
    /// entries are partitioned in place. `n` is the node's weighted
    /// size (the sum of its multiplicities) and `counts` its weighted
    /// class counts, threaded down from the parent's split scan so no
    /// per-node counting pass is needed.
    #[allow(clippy::too_many_arguments)]
    fn grow<R: Rng + ?Sized>(
        &mut self,
        ctx: &mut GrowContext,
        start: usize,
        end: usize,
        n: usize,
        counts: Vec<f64>,
        depth: usize,
        params: &TreeParams,
        max_features: usize,
        total: f64,
        rng: &mut R,
    ) -> usize {
        self.max_depth_reached = self.max_depth_reached.max(depth);

        let node_gini = gini(&counts, n as f64);

        if depth >= params.max_depth
            || n < params.min_samples_split
            || node_gini <= 0.0
            || n < 2 * params.min_samples_leaf
        {
            return self.make_leaf(ctx, counts, n);
        }

        // Constant-feature marks made while scanning this node apply to
        // the whole subtree below it; unwind them before returning so
        // siblings start from their own parent's state.
        let marks_before = ctx.constant_marks.len();
        let best = self.best_split(
            ctx,
            start,
            end,
            n,
            &counts,
            node_gini,
            max_features,
            params,
            rng,
        );
        let Some((feature, threshold, decrease, left_len, split_code)) = best else {
            Self::unwind_constant_marks(ctx, marks_before);
            return self.make_leaf(ctx, counts, n);
        };
        debug_assert!(
            left_len > 0 && left_len < n,
            "split produced an empty child"
        );

        let mid = start + ctx.partition(start, end, feature, split_code);
        debug_assert_eq!(
            ctx.order[start..mid]
                .iter()
                .map(|&(_, m)| m as usize)
                .sum::<usize>(),
            left_len,
            "partition disagreed with the split scan"
        );
        self.importances[feature] += (n as f64 / total) * decrease;

        // Child counts come straight from the winning boundary's prefix
        // scan: the left prefix counts are exact small integers, so the
        // right side is an exact subtraction from the parent. Count
        // vectors are recycled through a free list; one lives per level
        // of the recursion, so the pool stays tree-depth sized.
        let mut left_counts = ctx.pop_counts_vec();
        left_counts.clear();
        left_counts.extend_from_slice(&ctx.split_counts);
        let mut right_counts = ctx.pop_counts_vec();
        right_counts.clear();
        right_counts.extend(counts.iter().zip(&left_counts).map(|(p, l)| p - l));
        ctx.counts_free.push(counts);

        // Reserve this node's slot before growing children.
        ctx.stats.nodes_expanded += 1;
        self.nodes.push(Node::Leaf {
            probabilities: Vec::new(),
        });
        let me = self.nodes.len() - 1;

        let left = self.grow(
            ctx,
            start,
            mid,
            left_len,
            left_counts,
            depth + 1,
            params,
            max_features,
            total,
            rng,
        );
        let right = self.grow(
            ctx,
            mid,
            end,
            n - left_len,
            right_counts,
            depth + 1,
            params,
            max_features,
            total,
            rng,
        );
        Self::unwind_constant_marks(ctx, marks_before);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    /// Pushes a leaf holding `counts / n` (both weighted) and recycles
    /// the counts vector into the context's free list.
    fn make_leaf(&mut self, ctx: &mut GrowContext, counts: Vec<f64>, n: usize) -> usize {
        let probabilities = counts.iter().map(|c| c / n as f64).collect();
        ctx.counts_free.push(counts);
        ctx.stats.leaves_created += 1;
        self.nodes.push(Node::Leaf { probabilities });
        self.node_count_leaves += 1;
        self.nodes.len() - 1
    }

    fn unwind_constant_marks(ctx: &mut GrowContext, to_len: usize) {
        while ctx.constant_marks.len() > to_len {
            let f = ctx.constant_marks.pop().expect("non-empty mark stack");
            ctx.constant[f as usize] = false;
        }
    }

    /// Finds the best `(feature, threshold, impurity decrease, left
    /// size, split code)` over a random subset of features, or `None`
    /// if no valid split exists.
    ///
    /// For each candidate feature, one counting pass over the node's
    /// bag entries builds per-rank weighted class counts, then the
    /// occupied ranks are swept in ascending order maintaining prefix
    /// counts. Boundaries fall between *distinct* present values and the
    /// prefix counts at a boundary are a function of the (value, label)
    /// multiset, so the result matches a per-node re-sort of the raw
    /// draws exactly regardless of tie or entry order. `n` is the
    /// node's weighted size.
    #[allow(clippy::too_many_arguments)] // split search threads the parent's cached stats
    fn best_split<R: Rng + ?Sized>(
        &self,
        ctx: &mut GrowContext,
        start: usize,
        end: usize,
        n: usize,
        parent_counts: &[f64],
        parent_gini: f64,
        max_features: usize,
        params: &TreeParams,
        rng: &mut R,
    ) -> Option<(usize, f64, f64, usize, u32)> {
        let nf = ctx.pre.feature_count();

        // Partial Fisher–Yates over a reused identity permutation: the
        // first `max_features` entries become the candidate features.
        ctx.feature_order.clear();
        ctx.feature_order.extend(0..nf);
        for i in 0..max_features.min(nf) {
            let j = rng.gen_range(i..nf);
            ctx.feature_order.swap(i, j);
        }

        // Two and three classes keep their prefix counts in fixed-size
        // arrays (registers, no bounds checks); any other count uses a
        // `Vec`. One body serves both, so the arithmetic cannot differ.
        let scan = match self.class_count {
            2 => Self::scan_features::<[f64; 2]>,
            3 => Self::scan_features::<[f64; 3]>,
            _ => Self::scan_features::<Vec<f64>>,
        };
        scan(
            ctx,
            start,
            end,
            n,
            parent_counts,
            parent_gini,
            max_features,
            params,
        )
    }

    /// Scores every boundary of the first `max_features` features of
    /// `ctx.feature_order` over the node `[start, end)` and returns the
    /// best, with its left-child class counts in `ctx.split_counts`.
    /// `K` holds the prefix and suffix class counts of the sweep.
    #[allow(clippy::too_many_arguments)]
    fn scan_features<K: CountBuf>(
        ctx: &mut GrowContext,
        start: usize,
        end: usize,
        n: usize,
        parent_counts: &[f64],
        parent_gini: f64,
        max_features: usize,
        params: &TreeParams,
    ) -> Option<(usize, f64, f64, usize, u32)> {
        let mut left = K::copied(parent_counts);
        let mut right = K::copied(parent_counts);
        let c = left.as_ref().len();
        let GrowContext {
            pre,
            order,
            hist,
            occupied,
            split_counts,
            feature_order,
            constant,
            constant_marks,
            stats,
            ..
        } = ctx;
        let node = &order[start..end];
        let mut best: Option<(usize, f64, f64, usize, u32)> = None;

        // Scores one boundary between consecutive present ranks `code`
        // and `next_code`, given the prefix counts up to and including
        // `code`'s bucket. Zero-gain splits are admissible (as in
        // scikit-learn's CART): children may become separable even when
        // this level's gain is zero (e.g. XOR). Termination is still
        // guaranteed because both children are strictly smaller.
        let evaluate = |left: &[f64],
                        right: &[f64],
                        left_n: f64,
                        right_n: f64,
                        code: usize,
                        next_code: usize,
                        feature: usize,
                        uniq: &[f64],
                        best: &mut Option<(usize, f64, f64, usize, u32)>,
                        best_counts: &mut [f64]| {
            let left_size = left_n as usize;
            let right_size = n - left_size;
            if left_size < params.min_samples_leaf || right_size < params.min_samples_leaf {
                return;
            }
            let weighted = (left_n / n as f64) * gini(left, left_n)
                + (right_n / n as f64) * gini(right, right_n);
            let decrease = (parent_gini - weighted).max(0.0);
            match best {
                Some((_, _, best_dec, _, _)) if *best_dec >= decrease => {}
                _ => {
                    *best = Some((
                        feature,
                        threshold_between(uniq[code], uniq[next_code]),
                        decrease,
                        left_size,
                        code as u32,
                    ));
                    best_counts.copy_from_slice(left);
                }
            }
        };

        for &feature in &feature_order[..max_features] {
            if constant[feature] {
                continue; // constant globally or within this subtree
            }
            let uniq = &pre.uniques[feature][..];
            let slots = &pre.coded_labels[feature];

            // Fill: scatter the node's weighted labels into their rank's
            // bucket and mark the rank occupied.
            stats.split_scans += 1;
            stats.rows_scanned += node.len() as u64;
            let mut code_lo = usize::MAX;
            let mut code_hi = 0;
            for &(row, weight) in node {
                let slot = slots[row as usize] as usize;
                hist[slot] += weight;
                let code = slot / c;
                occupied[code >> 6] |= 1 << (code & 63);
                code_lo = code_lo.min(code);
                code_hi = code_hi.max(code);
            }

            if code_lo == code_hi {
                // One rank in this node: constant for the subtree.
                constant[feature] = true;
                constant_marks.push(feature as u32);
                hist[code_lo * c..][..c].fill(0);
                occupied[code_lo >> 6] = 0;
                continue;
            }

            // Sweep: visit the occupied ranks in ascending order, reading
            // and zeroing each bucket and bitset word as it is consumed,
            // so both are clean for the next scan.
            let left = left.as_mut();
            let right = right.as_mut();
            left.fill(0.0);
            right.copy_from_slice(parent_counts);
            let mut left_n = 0.0;
            let mut right_n = n as f64;
            let mut prev: Option<usize> = None;
            let first_word = code_lo >> 6;
            for (w, word) in occupied[first_word..=code_hi >> 6].iter_mut().enumerate() {
                let base = (first_word + w) << 6;
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let code = base | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if let Some(p) = prev {
                        evaluate(
                            left,
                            right,
                            left_n,
                            right_n,
                            p,
                            code,
                            feature,
                            uniq,
                            &mut best,
                            split_counts,
                        );
                    }
                    let mut bucket_n = 0u32;
                    for ((l, r), cnt) in left
                        .iter_mut()
                        .zip(right.iter_mut())
                        .zip(&mut hist[code * c..][..c])
                    {
                        let cnt = std::mem::take(cnt);
                        *l += cnt as f64;
                        *r -= cnt as f64;
                        bucket_n += cnt;
                    }
                    left_n += bucket_n as f64;
                    right_n -= bucket_n as f64;
                    prev = Some(code);
                }
            }
        }
        best
    }

    /// Class-probability estimates for one feature vector.
    pub fn predict_proba(&self, features: &[f64]) -> &[f64] {
        self.walk(features.len(), |f| features[f])
    }

    /// Class-probability estimates for row `i` of a columnar dataset,
    /// reading only the features the tree path touches (no row
    /// gather).
    pub fn predict_proba_row(&self, data: &Dataset, i: usize) -> &[f64] {
        self.walk(data.feature_count(), |f| data.value(i, f))
    }

    /// Leaf distribution reached from the root, reading each tested
    /// feature through `value`; `feature_count` is the caller's width.
    fn walk(&self, feature_count: usize, value: impl Fn(usize) -> f64) -> &[f64] {
        assert_eq!(
            feature_count, self.feature_count,
            "expected {} features, got {feature_count}",
            self.feature_count
        );
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { probabilities } => return probabilities,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if value(*feature) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predicted class: the argmax of the probabilities (ties go to the
    /// higher class index).
    pub fn predict(&self, features: &[f64]) -> usize {
        argmax(self.predict_proba(features))
    }

    /// Sets `votes[p]` to the predicted class + 1 of row `rows[p]` for
    /// each listed position `p` — a forest tree's out-of-bag votes.
    /// Each row takes [`DecisionTree::predict_row`]'s path to the same
    /// leaf, but blocks of positions walk the tree one level at a time,
    /// so the column reads of different rows are independent and
    /// overlap instead of forming one chain per row.
    pub(crate) fn vote_rows(
        &self,
        data: &Dataset,
        rows: &[usize],
        positions: &[usize],
        votes: &mut [u32],
    ) {
        const BLOCK: usize = 16;
        for block in positions.chunks(BLOCK) {
            let mut cursors = [0usize; BLOCK];
            let mut walking = true;
            while walking {
                walking = false;
                for (cursor, &p) in cursors.iter_mut().zip(block) {
                    if let Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } = &self.nodes[*cursor]
                    {
                        *cursor = if data.value(rows[p], *feature) <= *threshold {
                            *left
                        } else {
                            *right
                        };
                        walking = true;
                    }
                }
            }
            for (&cursor, &p) in cursors.iter().zip(block) {
                let Node::Leaf { probabilities } = &self.nodes[cursor] else {
                    unreachable!("every walk ends on a leaf");
                };
                votes[p] = argmax(probabilities) as u32 + 1;
            }
        }
    }

    /// Predicted class for row `i` of a columnar dataset.
    pub fn predict_row(&self, data: &Dataset, i: usize) -> usize {
        argmax(self.predict_proba_row(data, i))
    }

    /// Unnormalized gini importances (one per feature).
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.node_count_leaves
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Deepest node depth reached during growth.
    pub fn depth(&self) -> usize {
        self.max_depth_reached
    }

    /// Number of features the tree was trained on.
    pub fn feature_count(&self) -> usize {
        self.feature_count
    }

    /// Number of classes in the leaf distributions.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Flattens the tree into the parallel-array [`FlatTree`] layout.
    /// Lossless: [`DecisionTree::from_flat`] rebuilds an equal tree.
    pub fn to_flat(&self) -> FlatTree {
        let n = self.nodes.len();
        let mut flat = FlatTree {
            feature_count: self.feature_count,
            class_count: self.class_count,
            kind: Vec::with_capacity(n),
            feature: Vec::with_capacity(n),
            threshold: Vec::with_capacity(n),
            left: Vec::with_capacity(n),
            right: Vec::with_capacity(n),
            leaf_probabilities: Vec::with_capacity(self.node_count_leaves * self.class_count),
            importances: self.importances.clone(),
        };
        for node in &self.nodes {
            match node {
                Node::Leaf { probabilities } => {
                    flat.kind.push(0);
                    flat.feature.push(0);
                    flat.threshold.push(0.0);
                    flat.left.push(0);
                    flat.right.push(0);
                    flat.leaf_probabilities.extend_from_slice(probabilities);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    flat.kind.push(1);
                    flat.feature.push(*feature as u32);
                    flat.threshold.push(*threshold);
                    flat.left.push(*left as u32);
                    flat.right.push(*right as u32);
                }
            }
        }
        flat
    }

    /// Rebuilds a tree from the flat layout, validating every
    /// structural invariant the predictor relies on: column lengths
    /// match the node count, split features are in range, thresholds
    /// are finite, child indices point strictly forward (so prediction
    /// walks terminate), and leaf distributions are probabilities.
    ///
    /// Untrusted input (a corrupted model file) gets an `Err`; it never
    /// panics and an `Ok` tree can never send `predict` out of bounds
    /// or into a cycle.
    pub fn from_flat(flat: &FlatTree) -> Result<DecisionTree, String> {
        let n = flat.kind.len();
        if n == 0 {
            return Err("tree has no nodes".to_string());
        }
        if flat.feature_count == 0 {
            return Err("tree must test at least one feature".to_string());
        }
        if flat.class_count < 2 {
            return Err(format!(
                "class count must be >= 2, got {}",
                flat.class_count
            ));
        }
        for (name, len) in [
            ("feature", flat.feature.len()),
            ("threshold", flat.threshold.len()),
            ("left", flat.left.len()),
            ("right", flat.right.len()),
        ] {
            if len != n {
                return Err(format!("{name} column has {len} entries for {n} nodes"));
            }
        }
        if flat.importances.len() != flat.feature_count {
            return Err(format!(
                "{} importances for {} features",
                flat.importances.len(),
                flat.feature_count
            ));
        }
        if flat.importances.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err("importances must be finite and non-negative".to_string());
        }

        let mut nodes = Vec::with_capacity(n);
        let mut offset = 0usize;
        let mut leaves = 0usize;
        for i in 0..n {
            match flat.kind[i] {
                0 => {
                    let end = offset + flat.class_count;
                    if end > flat.leaf_probabilities.len() {
                        return Err(format!(
                            "leaf probabilities exhausted at node {i}: need {end}, have {}",
                            flat.leaf_probabilities.len()
                        ));
                    }
                    let probabilities = &flat.leaf_probabilities[offset..end];
                    if probabilities
                        .iter()
                        .any(|p| !p.is_finite() || !(0.0..=1.0).contains(p))
                    {
                        return Err(format!("leaf {i} has probabilities outside [0, 1]"));
                    }
                    offset = end;
                    leaves += 1;
                    nodes.push(Node::Leaf {
                        probabilities: probabilities.to_vec(),
                    });
                }
                1 => {
                    let feature = flat.feature[i] as usize;
                    if feature >= flat.feature_count {
                        return Err(format!(
                            "split {i} tests feature {feature} of {}",
                            flat.feature_count
                        ));
                    }
                    if !flat.threshold[i].is_finite() {
                        return Err(format!("split {i} has a non-finite threshold"));
                    }
                    let (left, right) = (flat.left[i] as usize, flat.right[i] as usize);
                    if left <= i || left >= n || right <= i || right >= n {
                        return Err(format!(
                            "split {i} children ({left}, {right}) must lie strictly \
                             between {i} and {n}"
                        ));
                    }
                    nodes.push(Node::Split {
                        feature,
                        threshold: flat.threshold[i],
                        left,
                        right,
                    });
                }
                k => return Err(format!("node {i} has unknown kind {k}")),
            }
        }
        if offset != flat.leaf_probabilities.len() {
            return Err(format!(
                "{} leaf probabilities for {leaves} leaves of {} classes",
                flat.leaf_probabilities.len(),
                flat.class_count
            ));
        }

        // Depth of the deepest node reachable from the root. The
        // builder creates no unreachable nodes, so for flats produced
        // by `to_flat` this equals the growth-time depth; the
        // forward-pointing child check above guarantees the walk
        // terminates even on crafted input.
        let mut max_depth = 0usize;
        let mut stack = vec![(0usize, 0usize)];
        while let Some((idx, depth)) = stack.pop() {
            max_depth = max_depth.max(depth);
            if let Node::Split { left, right, .. } = &nodes[idx] {
                stack.push((*left, depth + 1));
                stack.push((*right, depth + 1));
            }
        }

        Ok(DecisionTree {
            nodes,
            feature_count: flat.feature_count,
            class_count: flat.class_count,
            importances: flat.importances.clone(),
            node_count_leaves: leaves,
            max_depth_reached: max_depth,
        })
    }

    /// Renders the tree as indented text, resolving feature indices to
    /// `feature_names` — the classic interpretability dump:
    ///
    /// ```text
    /// hist_g2_life_avg <= 12.50
    ///   size_change_rate <= 0.01
    ///     leaf [0.86, 0.14]
    ///     leaf [0.42, 0.58]
    ///   leaf [0.10, 0.90]
    /// ```
    ///
    /// `max_depth` truncates deep subtrees with an ellipsis line.
    ///
    /// # Panics
    ///
    /// Panics if `feature_names` does not match the training feature
    /// count.
    pub fn dump(&self, feature_names: &[String], max_depth: usize) -> String {
        assert_eq!(
            feature_names.len(),
            self.feature_count,
            "expected {} feature names",
            self.feature_count
        );
        let mut out = String::new();
        self.dump_node(0, 0, max_depth, feature_names, &mut out);
        out
    }

    fn dump_node(
        &self,
        idx: usize,
        depth: usize,
        max_depth: usize,
        names: &[String],
        out: &mut String,
    ) {
        let indent = "  ".repeat(depth);
        match &self.nodes[idx] {
            Node::Leaf { probabilities } => {
                let probs: Vec<String> = probabilities.iter().map(|p| format!("{p:.2}")).collect();
                out.push_str(&format!("{indent}leaf [{}]\n", probs.join(", ")));
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if depth >= max_depth {
                    out.push_str(&format!("{indent}…\n"));
                    return;
                }
                out.push_str(&format!("{indent}{} <= {threshold:.4}\n", names[*feature]));
                self.dump_node(*left, depth + 1, max_depth, names, out);
                self.dump_node(*right, depth + 1, max_depth, names, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn axis_dataset() -> Dataset {
        // Perfectly separable on feature 0 at 0.5.
        let mut d = Dataset::new(vec!["x".into(), "noise".into()], 2);
        for i in 0..40 {
            let x = i as f64 / 40.0;
            d.push(vec![x, (i % 5) as f64], (x > 0.5) as usize);
        }
        d
    }

    #[test]
    fn gini_formula() {
        assert_eq!(gini(&[5.0, 5.0], 10.0), 0.5);
        assert_eq!(gini(&[10.0, 0.0], 10.0), 0.0);
        assert!((gini(&[8.0, 2.0], 10.0) - 0.32).abs() < 1e-12);
        assert_eq!(gini(&[], 0.0), 0.0);
    }

    #[test]
    fn separable_data_is_learned_exactly() {
        let d = axis_dataset();
        let idx: Vec<usize> = (0..d.len()).collect();
        let mut rng = SmallRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&d, &idx, &TreeParams::default(), 2, &mut rng);
        for i in 0..d.len() {
            assert_eq!(tree.predict(&d.row(i)), d.label(i));
            assert_eq!(tree.predict_row(&d, i), d.label(i));
        }
        // All importance should be on the informative feature.
        assert!(tree.importances()[0] > 0.0);
        assert_eq!(tree.importances()[1], 0.0);
    }

    #[test]
    fn depth_limit_respected() {
        let d = axis_dataset();
        let idx: Vec<usize> = (0..d.len()).collect();
        let params = TreeParams {
            max_depth: 1,
            ..TreeParams::default()
        };
        let mut rng = SmallRng::seed_from_u64(2);
        let tree = DecisionTree::fit(&d, &idx, &params, 2, &mut rng);
        assert!(tree.depth() <= 1);
        assert!(tree.leaf_count() <= 2);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let d = axis_dataset();
        let idx: Vec<usize> = (0..d.len()).collect();
        let params = TreeParams {
            min_samples_leaf: 15,
            ..TreeParams::default()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let tree = DecisionTree::fit(&d, &idx, &params, 2, &mut rng);
        // With 40 samples and leaves >= 15 the tree can split at most
        // once or twice; every leaf probability must come from >= 15
        // samples, so no leaf can be "pure by 1 sample".
        assert!(tree.leaf_count() <= 3);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut d = Dataset::new(vec!["x".into()], 2);
        for i in 0..10 {
            d.push(vec![i as f64], 1);
        }
        let idx: Vec<usize> = (0..10).collect();
        let mut rng = SmallRng::seed_from_u64(4);
        let tree = DecisionTree::fit(&d, &idx, &TreeParams::default(), 1, &mut rng);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict_proba(&[5.0]), &[0.0, 1.0]);
    }

    #[test]
    fn probabilities_reflect_leaf_fractions() {
        // Force a single root leaf by max_depth = 0 on a 30/70 mix.
        let mut d = Dataset::new(vec!["x".into()], 2);
        for i in 0..10 {
            d.push(vec![i as f64], (i >= 3) as usize);
        }
        let idx: Vec<usize> = (0..10).collect();
        let params = TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let tree = DecisionTree::fit(&d, &idx, &params, 1, &mut rng);
        let probs = tree.predict_proba(&[0.0]);
        assert!((probs[0] - 0.3).abs() < 1e-12);
        assert!((probs[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_seed() {
        let d = axis_dataset();
        let idx: Vec<usize> = (0..d.len()).collect();
        let t1 = DecisionTree::fit(
            &d,
            &idx,
            &TreeParams::default(),
            1,
            &mut SmallRng::seed_from_u64(7),
        );
        let t2 = DecisionTree::fit(
            &d,
            &idx,
            &TreeParams::default(),
            1,
            &mut SmallRng::seed_from_u64(7),
        );
        assert_eq!(t1, t2);
    }

    #[test]
    fn duplicate_indices_work() {
        let d = axis_dataset();
        let idx = vec![0, 0, 0, 39, 39, 39];
        let mut rng = SmallRng::seed_from_u64(8);
        let tree = DecisionTree::fit(&d, &idx, &TreeParams::default(), 2, &mut rng);
        assert_eq!(tree.predict(&d.row(0)), 0);
        assert_eq!(tree.predict(&d.row(39)), 1);
    }

    /// A 60-row, three-feature dataset with tied values, so bags carry
    /// equal codes on different rows.
    fn tied_dataset() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into(), "c".into()], 2);
        for i in 0..60 {
            let a = (i % 7) as f64;
            let b = ((i * 13) % 11) as f64 / 4.0;
            let c = (i % 3) as f64;
            d.push(vec![a, b, c], (((i * 5) % 9) < 4) as usize);
        }
        d
    }

    fn fit_bag(d: &Dataset, bag: Vec<(u32, u32)>, params: &TreeParams, seed: u64) -> FlatTree {
        let rows: Vec<usize> = bag.iter().map(|&(row, _)| row as usize).collect();
        let pre = SplitPrecompute::build(d, &rows);
        let mut rng = SmallRng::seed_from_u64(seed);
        DecisionTree::fit_presorted(d, &pre, bag, params, 2, &mut rng).to_flat()
    }

    #[test]
    fn duplicate_draws_equal_their_collapsed_bag() {
        let d = tied_dataset();
        let mut draw_rng = SmallRng::seed_from_u64(40);
        let draws: Vec<usize> = (0..d.len())
            .map(|_| draw_rng.gen_range(0..d.len()))
            .collect();
        let mut multiplicity = vec![0u32; d.len()];
        for &i in &draws {
            multiplicity[i] += 1;
        }
        assert!(multiplicity.iter().any(|&m| m > 1), "draws repeat a row");
        let bag: Vec<(u32, u32)> = (0..d.len())
            .filter(|&i| multiplicity[i] > 0)
            .map(|i| (i as u32, multiplicity[i]))
            .collect();
        let params = TreeParams::default();
        let mut rng = SmallRng::seed_from_u64(41);
        let from_draws = DecisionTree::fit(&d, &draws, &params, 2, &mut rng).to_flat();
        assert_eq!(from_draws, fit_bag(&d, bag.clone(), &params, 41));

        // A row split over several entries is the same row.
        let split: Vec<(u32, u32)> = bag
            .iter()
            .flat_map(|&(row, m)| {
                let first = m / 2;
                [(row, first), (row, m - first)]
                    .into_iter()
                    .filter(|&(_, w)| w > 0)
            })
            .collect();
        assert!(split.len() > bag.len());
        assert_eq!(from_draws, fit_bag(&d, split, &params, 41));
    }

    #[test]
    fn permuted_bag_grows_the_same_tree() {
        let d = tied_dataset();
        let bag: Vec<(u32, u32)> = (0..d.len() as u32)
            .filter(|i| i % 4 != 1)
            .map(|i| (i, 1 + i % 3))
            .collect();
        let params = TreeParams {
            min_samples_leaf: 2,
            ..TreeParams::default()
        };
        let want = fit_bag(&d, bag.clone(), &params, 42);
        let mut reversed = bag.clone();
        reversed.reverse();
        assert_eq!(want, fit_bag(&d, reversed, &params, 42));
        let mut shuffled = bag;
        let mut rng = SmallRng::seed_from_u64(43);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        assert_eq!(want, fit_bag(&d, shuffled, &params, 42));
    }

    #[test]
    fn leaf_size_counts_draws_not_rows() {
        // Left of x = 1.5: two rows drawn 3 + 2 times; right: two rows
        // drawn 3 + 3 times. Every side holds at least 5 draws but only
        // 2 distinct rows, so the split stands at min_samples_leaf = 5.
        let mut d = Dataset::new(vec!["x".into()], 2);
        for (x, label) in [(0.0, 0), (1.0, 0), (2.0, 1), (3.0, 1)] {
            d.push(vec![x], label);
        }
        let draws = [0, 0, 0, 1, 1, 2, 2, 2, 3, 3, 3];
        let params = TreeParams {
            min_samples_leaf: 5,
            ..TreeParams::default()
        };
        let mut rng = SmallRng::seed_from_u64(44);
        let tree = DecisionTree::fit(&d, &draws, &params, 1, &mut rng);
        let flat = tree.to_flat();
        assert_eq!(flat.kind, vec![1, 0, 0]);
        assert_eq!(flat.threshold[0], 1.5);
        assert_eq!(flat.leaf_probabilities, vec![1.0, 0.0, 0.0, 1.0]);
        // Importance weighs the node by draws: 11 / 11 × gini 60/121.
        assert_eq!(tree.importances()[0], 1.0 - (25.0 + 36.0) / 121.0);

        // One draw fewer on the left and the split is refused.
        let mut rng = SmallRng::seed_from_u64(44);
        let short = DecisionTree::fit(&d, &draws[1..], &params, 1, &mut rng);
        assert_eq!(short.node_count(), 1);
    }

    /// What one split scan decides, with floats as bits: the best
    /// `(feature, threshold, decrease, left size, code)`, its left
    /// counts, the number of features scanned and the constant marks.
    type ScanOutcome = (
        Option<(usize, u64, u64, usize, u32)>,
        Vec<u64>,
        u64,
        Vec<u32>,
    );

    /// Scans every feature of the node `order[start..end]` of a fresh
    /// context over `bag`, keeping prefix counts in a `K`.
    fn scan_node<K: CountBuf>(
        d: &Dataset,
        bag: &[(u32, u32)],
        (start, end): (usize, usize),
        min_samples_leaf: usize,
    ) -> ScanOutcome {
        let rows: Vec<usize> = bag.iter().map(|&(row, _)| row as usize).collect();
        let pre = SplitPrecompute::build(d, &rows);
        let mut ctx = GrowContext::build(&pre, d, bag.to_vec());
        let counts = ctx.counts(start, end, d.class_count());
        let n: usize = bag[start..end].iter().map(|&(_, m)| m as usize).sum();
        ctx.feature_order.extend(0..d.feature_count());
        let params = TreeParams {
            min_samples_leaf,
            ..TreeParams::default()
        };
        let best = DecisionTree::scan_features::<K>(
            &mut ctx,
            start,
            end,
            n,
            &counts,
            gini(&counts, n as f64),
            d.feature_count(),
            &params,
        );
        assert!(
            ctx.hist.iter().all(|&h| h == 0) && ctx.occupied.iter().all(|&w| w == 0),
            "the scan leaves its histogram and bitset clean"
        );
        (
            best.map(|(f, t, dec, size, code)| (f, t.to_bits(), dec.to_bits(), size, code)),
            ctx.split_counts.iter().map(|v| v.to_bits()).collect(),
            ctx.stats.split_scans,
            ctx.constant_marks,
        )
    }

    #[test]
    fn array_and_vec_count_buffers_scan_alike() {
        // Scans seen whose occupied ranks span several bitset words,
        // hold ranks 63 and 64 (both sides of a word edge), and hold
        // one rank (constant in the node).
        let mut covered = (0, 0, 0);
        for classes in [2, 3] {
            // f0 few ranks, f1 scattered ranks over three bitset words,
            // f2 constant over runs of 20 rows, f3 constant.
            let mut d = Dataset::new((0..4).map(|f| format!("f{f}")).collect(), classes);
            for i in 0..200 {
                let row = vec![
                    (i % 5) as f64,
                    ((i * 37) % 200) as f64,
                    (i / 20) as f64,
                    1.0,
                ];
                d.push(row, (i * 7 % 11 + i / 50) % classes);
            }
            let bag: Vec<(u32, u32)> = (0..200u32)
                .filter(|i| i % 5 != 2)
                .map(|i| (i, 1 + i % 3))
                .collect();
            let rows: Vec<usize> = bag.iter().map(|&(row, _)| row as usize).collect();
            let pre = SplitPrecompute::build(&d, &rows);
            for node in [(0, bag.len()), (40, 90), (0, 12), (3, 9)] {
                for leaf in [1, 4] {
                    let want = scan_node::<Vec<f64>>(&d, &bag, node, leaf);
                    let got = match classes {
                        2 => scan_node::<[f64; 2]>(&d, &bag, node, leaf),
                        _ => scan_node::<[f64; 3]>(&d, &bag, node, leaf),
                    };
                    assert_eq!(got, want, "{classes} classes, node {node:?}, leaf {leaf}");
                    assert!(want.0.is_some(), "node {node:?} splits");
                    assert_eq!(want.2, 3, "every feature but the global constant scanned");
                }
                for codes in &pre.codes[..3] {
                    let ranks: Vec<u32> = bag[node.0..node.1]
                        .iter()
                        .map(|&(row, _)| codes[row as usize])
                        .collect();
                    let (lo, hi) = (ranks.iter().min().unwrap(), ranks.iter().max().unwrap());
                    covered.0 += usize::from(lo >> 6 != hi >> 6);
                    covered.1 += usize::from(ranks.contains(&63) && ranks.contains(&64));
                    covered.2 += usize::from(lo == hi);
                }
            }
        }
        assert!(
            covered.0 > 0 && covered.1 > 0 && covered.2 > 0,
            "multi-word, word-edge and constant-in-node scans all ran: {covered:?}"
        );
    }

    #[test]
    fn row_predictions_match_slice_predictions() {
        let d = axis_dataset();
        let idx: Vec<usize> = (0..d.len()).collect();
        let mut rng = SmallRng::seed_from_u64(11);
        let tree = DecisionTree::fit(&d, &idx, &TreeParams::default(), 2, &mut rng);
        for i in 0..d.len() {
            let row = d.row(i);
            assert_eq!(tree.predict_proba_row(&d, i), tree.predict_proba(&row));
            assert_eq!(tree.predict_row(&d, i), tree.predict(&row));
        }
    }

    #[test]
    fn flat_roundtrip_is_lossless() {
        let d = axis_dataset();
        let idx: Vec<usize> = (0..d.len()).collect();
        let mut rng = SmallRng::seed_from_u64(21);
        let tree = DecisionTree::fit(&d, &idx, &TreeParams::default(), 2, &mut rng);
        let flat = tree.to_flat();
        assert_eq!(flat.kind.len(), tree.node_count());
        assert_eq!(
            flat.leaf_probabilities.len(),
            tree.leaf_count() * tree.class_count()
        );
        let back = DecisionTree::from_flat(&flat).expect("valid flat");
        assert_eq!(back, tree);
        assert_eq!(back.to_flat(), flat);
        assert_eq!(back.depth(), tree.depth());
    }

    #[test]
    fn from_flat_rejects_malformed_layouts() {
        let d = axis_dataset();
        let idx: Vec<usize> = (0..d.len()).collect();
        let mut rng = SmallRng::seed_from_u64(22);
        let tree = DecisionTree::fit(&d, &idx, &TreeParams::default(), 2, &mut rng);
        let good = tree.to_flat();
        assert!(DecisionTree::from_flat(&good).is_ok());
        let split = good
            .kind
            .iter()
            .position(|&k| k == 1)
            .expect("tree has a split");

        // Empty tree.
        let mut bad = good.clone();
        bad.kind.clear();
        assert!(DecisionTree::from_flat(&bad).is_err());

        // Ragged columns.
        let mut bad = good.clone();
        bad.left.pop();
        assert!(DecisionTree::from_flat(&bad).is_err());

        // Unknown node kind.
        let mut bad = good.clone();
        bad.kind[0] = 7;
        assert!(DecisionTree::from_flat(&bad).is_err());

        // Feature out of range.
        let mut bad = good.clone();
        bad.feature[split] = bad.feature_count as u32;
        assert!(DecisionTree::from_flat(&bad).is_err());

        // Self-referential child (would loop forever unchecked).
        let mut bad = good.clone();
        bad.left[split] = split as u32;
        assert!(DecisionTree::from_flat(&bad).is_err());

        // Backward child edge (a cycle through an earlier node).
        let mut bad = good.clone();
        bad.right[split] = 0;
        assert!(DecisionTree::from_flat(&bad).is_err());

        // Child index past the node array.
        let mut bad = good.clone();
        bad.right[split] = bad.kind.len() as u32;
        assert!(DecisionTree::from_flat(&bad).is_err());

        // Non-finite threshold.
        let mut bad = good.clone();
        bad.threshold[split] = f64::NAN;
        assert!(DecisionTree::from_flat(&bad).is_err());

        // Leaf distribution too short.
        let mut bad = good.clone();
        bad.leaf_probabilities.pop();
        assert!(DecisionTree::from_flat(&bad).is_err());

        // Probability outside [0, 1].
        let mut bad = good.clone();
        bad.leaf_probabilities[0] = 1.5;
        assert!(DecisionTree::from_flat(&bad).is_err());

        // Importances misaligned with the feature count.
        let mut bad = good.clone();
        bad.importances.push(0.0);
        assert!(DecisionTree::from_flat(&bad).is_err());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_leaf_probabilities_sum_to_one(
                rows in prop::collection::vec((0.0..1.0_f64, 0.0..1.0_f64, 0usize..2), 2..80),
                query in (0.0..1.0_f64, 0.0..1.0_f64),
            ) {
                let mut d = Dataset::new(vec!["a".into(), "b".into()], 2);
                for (a, b, label) in &rows {
                    d.push(vec![*a, *b], *label);
                }
                let idx: Vec<usize> = (0..d.len()).collect();
                let mut rng = SmallRng::seed_from_u64(1);
                let tree = DecisionTree::fit(&d, &idx, &TreeParams::default(), 2, &mut rng);
                let probs = tree.predict_proba(&[query.0, query.1]);
                let total: f64 = probs.iter().sum();
                prop_assert!((total - 1.0).abs() < 1e-9);
                prop_assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
            }

            #[test]
            fn prop_training_rows_predict_their_leaf_majority(
                rows in prop::collection::vec((0.0..1.0_f64, 0usize..2), 4..60),
            ) {
                // With unlimited depth and leaf size 1, any training row
                // with a unique feature value is classified exactly.
                let mut d = Dataset::new(vec!["x".into()], 2);
                for (x, label) in &rows {
                    d.push(vec![*x], *label);
                }
                let idx: Vec<usize> = (0..d.len()).collect();
                let mut rng = SmallRng::seed_from_u64(2);
                // Depth must exceed the row count: pathological splits
                // can peel one row per level.
                let params = TreeParams {
                    max_depth: rows.len() + 1,
                    ..TreeParams::default()
                };
                let tree = DecisionTree::fit(&d, &idx, &params, 1, &mut rng);
                for i in 0..d.len() {
                    let x = d.value(i, 0);
                    let unique = rows.iter().filter(|(v, _)| *v == x).count() == 1;
                    if unique {
                        prop_assert_eq!(tree.predict(&d.row(i)), d.label(i));
                    }
                }
            }

            #[test]
            fn prop_importances_nonnegative(
                rows in prop::collection::vec((0.0..1.0_f64, 0.0..1.0_f64, 0usize..2), 2..60),
            ) {
                let mut d = Dataset::new(vec!["a".into(), "b".into()], 2);
                for (a, b, label) in &rows {
                    d.push(vec![*a, *b], *label);
                }
                let idx: Vec<usize> = (0..d.len()).collect();
                let mut rng = SmallRng::seed_from_u64(3);
                let tree = DecisionTree::fit(&d, &idx, &TreeParams::default(), 2, &mut rng);
                prop_assert!(tree.importances().iter().all(|&v| v >= 0.0));
            }
        }
    }

    #[test]
    fn dump_renders_structure() {
        let d = axis_dataset();
        let idx: Vec<usize> = (0..d.len()).collect();
        let mut rng = SmallRng::seed_from_u64(30);
        let tree = DecisionTree::fit(&d, &idx, &TreeParams::default(), 2, &mut rng);
        let names = vec!["x".to_string(), "noise".to_string()];
        let text = tree.dump(&names, 10);
        assert!(text.contains("x <= "), "{text}");
        assert!(text.contains("leaf ["), "{text}");
        // Truncation at depth 0 shows only the ellipsis.
        let truncated = tree.dump(&names, 0);
        assert_eq!(truncated.trim(), "…");
    }

    #[test]
    #[should_panic]
    fn dump_rejects_wrong_name_count() {
        let d = axis_dataset();
        let idx: Vec<usize> = (0..d.len()).collect();
        let mut rng = SmallRng::seed_from_u64(31);
        let tree = DecisionTree::fit(&d, &idx, &TreeParams::default(), 2, &mut rng);
        tree.dump(&["only-one".to_string()], 5);
    }

    #[test]
    fn xor_needs_depth_two() {
        let mut d = Dataset::new(vec!["a".into(), "b".into()], 2);
        for i in 0..200 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            d.push(vec![a, b], ((a != b) as usize).min(1));
        }
        let idx: Vec<usize> = (0..d.len()).collect();
        let mut rng = SmallRng::seed_from_u64(9);
        let tree = DecisionTree::fit(&d, &idx, &TreeParams::default(), 2, &mut rng);
        assert_eq!(tree.predict(&[0.0, 0.0]), 0);
        assert_eq!(tree.predict(&[1.0, 1.0]), 0);
        assert_eq!(tree.predict(&[1.0, 0.0]), 1);
        assert_eq!(tree.predict(&[0.0, 1.0]), 1);
    }
}
