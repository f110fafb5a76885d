//! Branchless, cache-blocked flat-forest inference kernel.
//!
//! The recursive predictor ([`crate::DecisionTree::predict_proba`])
//! chases `Node` enum pointers and a heap-allocated `Vec<f64>` per
//! leaf — every step is an unpredictable branch plus a cold cache
//! line. This module linearizes the whole forest into one packed node
//! array and replaces the branch with arithmetic node stepping:
//!
//! ```text
//! next = node.kids[!(value <= node.threshold)]
//! ```
//!
//! **Node layout.** Each node is one 24-byte record: threshold,
//! feature index, and both child indices — a step touches at most two
//! cache lines. All trees share the global array; within a tree's
//! slice the internal nodes come first and the leaves after them, so
//! `idx < leaf_start[t]` is the "still walking" test without
//! inspecting the node. Leaves fold into the same array as self-loops
//! (both children point back at the leaf, threshold `+inf`), keeping
//! the step function total.
//!
//! **Missing values.** `NaN` fails every ordered comparison, so the
//! recursive `value <= threshold → left` walk always sends `NaN`
//! right. The kernel's single compare `!(value <= threshold)` is true
//! for `NaN` too, so missing values go right by the compare itself,
//! with no mask — bitwise parity with the recursive path.
//!
//! **Blocking.** The traversal works on [`ROW_TILE`]-row tiles held
//! feature-major (stride `ROW_TILE`), so one level of stepping reads
//! a handful of consecutive cache lines instead of one line per row.
//! Each tree walks the whole tile one level at a time
//! (level-synchronous, so the independent per-row chains pipeline)
//! while its nodes stay hot across the tile, and rows that reach a
//! leaf compact out of a *live list* so retired rows cost nothing on
//! deeper levels. [`ForestKernel::score_tile_into`] consumes a
//! pre-gathered feature-major tile (the serving layer fills it with
//! one memcpy per feature column); [`ForestKernel::score_block_into`]
//! accepts row-major input and transposes each tile into scratch
//! first.
//!
//! **Parity.** Per row, leaf distributions accumulate in ascending
//! tree order and divide by the tree count last — the exact f64
//! operation sequence of `RandomForest::predict_proba`, so the kernel
//! agrees *bitwise* with the recursive path on every input,
//! including `NaN`, `±0.0`, and threshold-equal values.

use crate::random_forest::RandomForest;
use crate::tree::FlatTree;

/// Rows per traversal tile. 64 rows × ~60 features × 8 bytes ≈ 30 KB
/// of gathered features per tile — sized so the tile plus one tree's
/// node columns fit in L2 comfortably. Matches the serving layer's
/// chunk size, so one scoring chunk is exactly one tile.
pub const ROW_TILE: usize = 64;

/// Whether `value` takes the right child: the single compare
/// `!(value <= threshold)`. Unlike `value > threshold` it is true for
/// `NaN`, which fails the ordered compare and falls right — exactly
/// where the recursive `value <= threshold → left` walk sends it.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn goes_right(value: f64, threshold: f64) -> bool {
    !(value <= threshold)
}

/// Traversal statistics of one kernel call — fed to the
/// `serve.kernel.*` obs counters by the scoring layer. Deterministic:
/// a pure function of `(kernel, rows, tile boundaries)`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Node-step operations executed — one per internal node actually
    /// visited (retired rows compact out of the working set, so
    /// finished rows cost nothing).
    pub node_steps: u64,
    /// Row tiles traversed.
    pub row_tiles: u64,
}

impl KernelStats {
    /// Accumulates another call's stats into this one.
    pub fn merge(&mut self, other: KernelStats) {
        self.node_steps += other.node_steps;
        self.row_tiles += other.row_tiles;
    }
}

/// Reusable per-worker traversal scratch: the per-row node cursors of
/// the current tile. Construct once per worker and pass to every
/// [`ForestKernel::score_block_into`] call — the hot loop then allocates
/// nothing.
#[derive(Debug)]
pub struct KernelScratch {
    cursors: Vec<u32>,
    /// Rows of the current tile still walking the current tree.
    live: Vec<u32>,
    /// Column-major (feature-major) copy of the current tile, stride
    /// [`ROW_TILE`]. Grown on first use — the per-tile transpose then
    /// allocates nothing.
    tile: Vec<f64>,
}

impl KernelScratch {
    /// A scratch sized for [`ROW_TILE`]-row tiles (the maximum any
    /// block call uses).
    pub fn new() -> KernelScratch {
        KernelScratch {
            cursors: vec![0; ROW_TILE],
            live: vec![0; ROW_TILE],
            tile: Vec::new(),
        }
    }
}

impl Default for KernelScratch {
    fn default() -> Self {
        KernelScratch::new()
    }
}

/// One linearized node, kept as a single 24-byte record so a step
/// touches one or two cache lines instead of one line per column.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Split threshold (`+inf` for leaves, so every finite value
    /// self-loops left and `NaN` self-loops right).
    threshold: f64,
    /// Feature index tested. Leaves store feature 0.
    feature: u32,
    /// Absolute child indices; leaves point at themselves.
    kids: [u32; 2],
}

/// The linearized forest: every tree's nodes flattened into one
/// shared node array, internal nodes before leaves per tree, leaves
/// as self-loops.
#[derive(Debug, Clone)]
pub struct ForestKernel {
    feature_count: usize,
    class_count: usize,
    /// All trees' nodes, tree-contiguous, internal-first per tree.
    nodes: Vec<Node>,
    /// Per node: offset of the node's distribution inside
    /// `leaf_probabilities` (leaves only; 0 for internal nodes).
    leaf_off: Vec<u32>,
    /// Leaf class distributions, `class_count` per leaf, concatenated.
    leaf_probabilities: Vec<f64>,
    /// Per tree: absolute index of the root node.
    roots: Vec<u32>,
    /// Per tree: absolute index of the first leaf slot — a cursor has
    /// reached a leaf exactly when `idx >= leaf_start[t]`.
    leaf_start: Vec<u32>,
}

impl ForestKernel {
    /// Linearizes a fitted forest. The layout build is `O(nodes)` and
    /// timed under the `kernel_build` obs span; do it once per model,
    /// not per batch.
    pub fn from_forest(model: &RandomForest) -> ForestKernel {
        let _span = obs::span!("kernel_build");
        let mut kernel = ForestKernel {
            feature_count: model.feature_names().len(),
            class_count: model.class_count(),
            nodes: Vec::new(),
            leaf_off: Vec::new(),
            leaf_probabilities: Vec::new(),
            roots: Vec::with_capacity(model.tree_count()),
            leaf_start: Vec::with_capacity(model.tree_count()),
        };
        for tree in model.trees() {
            kernel.push_tree(&tree.to_flat());
        }
        kernel.validate_layout();
        obs::count("forest.kernel_nodes", kernel.nodes.len() as u64);
        kernel
    }

    /// Appends one tree, renumbering its nodes internal-first. The
    /// flat layout comes from [`crate::DecisionTree::to_flat`], whose
    /// invariants (children in range and strictly forward, leaf runs
    /// consistent) already held in the validated source tree.
    fn push_tree(&mut self, flat: &FlatTree) {
        let n = flat.kind.len();
        let base = self.nodes.len() as u32;
        let internal_count = flat.kind.iter().filter(|&&k| k == 1).count() as u32;

        // Old node index -> new absolute index: internals keep their
        // relative order in [base, base + internal), leaves theirs in
        // [base + internal, base + n).
        let mut map = vec![0u32; n];
        let mut next_internal = base;
        let mut next_leaf = base + internal_count;
        for (i, &kind) in flat.kind.iter().enumerate() {
            if kind == 1 {
                map[i] = next_internal;
                next_internal += 1;
            } else {
                map[i] = next_leaf;
                next_leaf += 1;
            }
        }

        self.roots.push(map[0]);
        self.leaf_start.push(base + internal_count);
        let total = base as usize + n;
        self.nodes.resize(
            total,
            Node {
                threshold: 0.0,
                feature: 0,
                kids: [0, 0],
            },
        );
        self.leaf_off.resize(total, 0);

        let mut prob_run = 0usize; // cursor into flat.leaf_probabilities
        for (i, &kind) in flat.kind.iter().enumerate() {
            let slot = map[i] as usize;
            if kind == 1 {
                debug_assert!((flat.feature[i] as usize) < self.feature_count);
                self.nodes[slot] = Node {
                    threshold: flat.threshold[i],
                    feature: flat.feature[i],
                    kids: [map[flat.left[i] as usize], map[flat.right[i] as usize]],
                };
            } else {
                // Leaf self-loop: threshold +inf keeps every finite
                // value on the left self-edge and NaN on the right
                // one. Feature 0 is always in range, so the (dead)
                // load stays in bounds.
                self.nodes[slot] = Node {
                    threshold: f64::INFINITY,
                    feature: 0,
                    kids: [slot as u32, slot as u32],
                };
                self.leaf_off[slot] = self.leaf_probabilities.len() as u32;
                self.leaf_probabilities.extend_from_slice(
                    &flat.leaf_probabilities[prob_run..prob_run + self.class_count],
                );
                prob_run += self.class_count;
            }
        }
        debug_assert_eq!(prob_run, flat.leaf_probabilities.len());
    }

    /// Verifies the layout invariants the unchecked hot loops rely on
    /// (see [`ForestKernel::score_block_into`]): every stored child
    /// index is a valid node slot, every feature index is in range, and
    /// every leaf's distribution offset stays inside
    /// `leaf_probabilities`. Runs once per build — `O(nodes)` next to
    /// an `O(nodes)` construction — so traversal never needs a bounds
    /// check.
    fn validate_layout(&self) {
        let n = self.nodes.len();
        assert_eq!(self.leaf_off.len(), n);
        assert_eq!(self.roots.len(), self.leaf_start.len());
        assert!(self.feature_count <= u32::MAX as usize);
        for (&root, &leaf_start) in self.roots.iter().zip(&self.leaf_start) {
            assert!((root as usize) < n, "root out of range");
            assert!(leaf_start as usize <= n, "leaf_start out of range");
        }
        for (i, node) in self.nodes.iter().enumerate() {
            assert!(
                (node.feature as usize) < self.feature_count,
                "feature index out of range at node {i}"
            );
            assert!(
                (node.kids[0] as usize) < n && (node.kids[1] as usize) < n,
                "child index out of range at node {i}"
            );
            if node.kids[0] as usize == i {
                assert!(
                    self.leaf_off[i] as usize + self.class_count <= self.leaf_probabilities.len(),
                    "leaf distribution out of range at node {i}"
                );
            }
        }
    }

    /// Features per row this kernel expects.
    pub fn feature_count(&self) -> usize {
        self.feature_count
    }

    /// Classes per output distribution.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Trees in the linearized forest.
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// Total nodes across all trees (leaves included).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// One arithmetic node step: never branches on the outcome.
    /// `idx` must be a valid node slot and `row` must have
    /// `feature_count` entries (checked at the public entry points;
    /// `validate_layout` pins every stored child and feature index in
    /// range at build time, so the loads need no bounds checks).
    #[inline(always)]
    fn step(&self, idx: usize, row: &[f64]) -> u32 {
        // SAFETY: `idx` is a root or a stored child index and `row`
        // has `feature_count` entries — `validate_layout` (run at
        // every build) keeps all of them in bounds.
        unsafe {
            let node = self.nodes.get_unchecked(idx);
            let value = *row.get_unchecked(node.feature as usize);
            let right = goes_right(value, node.threshold) as u32;
            *node.kids.get_unchecked(right as usize)
        }
    }

    /// Branchless single-row scoring: averaged class probabilities
    /// into `out`. Bitwise-identical to
    /// `RandomForest::predict_proba`. Returns the node steps taken.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != feature_count` or
    /// `out.len() != class_count`.
    pub fn predict_proba_into(&self, row: &[f64], out: &mut [f64]) -> u64 {
        assert_eq!(row.len(), self.feature_count, "row arity mismatch");
        assert_eq!(out.len(), self.class_count, "output arity mismatch");
        out.fill(0.0);
        let mut steps = 0u64;
        for (&root, &leaf_start) in self.roots.iter().zip(&self.leaf_start) {
            let mut idx = root;
            while idx < leaf_start {
                idx = self.step(idx as usize, row);
                steps += 1;
            }
            let off = self.leaf_off[idx as usize] as usize;
            for (acc, p) in out
                .iter_mut()
                .zip(&self.leaf_probabilities[off..off + self.class_count])
            {
                *acc += p;
            }
        }
        let nt = self.tree_count() as f64;
        for acc in out.iter_mut() {
            *acc /= nt;
        }
        steps
    }

    /// Branchless single-row scoring, allocating the output.
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.class_count];
        self.predict_proba_into(row, &mut out);
        out
    }

    /// Cache-blocked batch scoring: `n_rows` rows stored row-major in
    /// `rows` (`n_rows × feature_count`), averaged distributions
    /// written row-major to `out` (`n_rows × class_count`).
    ///
    /// Rows advance in [`ROW_TILE`]-sized tiles; each tile is
    /// transposed feature-major into scratch, then every tree walks
    /// all rows one level at a time (level-synchronous), so the
    /// tree's nodes stay cache-hot across the tile. The hot loop
    /// performs no allocation — `scratch` carries the only mutable
    /// traversal state.
    ///
    /// # Panics
    ///
    /// Panics if the buffer shapes disagree with `n_rows` and the
    /// kernel's arities.
    pub fn score_block_into(
        &self,
        rows: &[f64],
        n_rows: usize,
        scratch: &mut KernelScratch,
        out: &mut [f64],
    ) -> KernelStats {
        let nf = self.feature_count;
        let cc = self.class_count;
        assert_eq!(rows.len(), n_rows * nf, "row buffer shape mismatch");
        assert_eq!(out.len(), n_rows * cc, "output buffer shape mismatch");
        let mut stats = KernelStats::default();

        if scratch.tile.len() < nf * ROW_TILE {
            scratch.tile.resize(nf * ROW_TILE, 0.0);
        }
        let KernelScratch {
            cursors: scratch_cursors,
            live: scratch_live,
            tile,
        } = scratch;

        let mut tile_lo = 0usize;
        while tile_lo < n_rows {
            let tile_len = ROW_TILE.min(n_rows - tile_lo);
            stats.row_tiles += 1;
            let tile_rows = &rows[tile_lo * nf..(tile_lo + tile_len) * nf];
            let tile_out = &mut out[tile_lo * cc..(tile_lo + tile_len) * cc];
            // Transpose the tile feature-major (stride ROW_TILE): at
            // shallow levels every live row probes the same feature,
            // so the value loads of one pass land on a handful of
            // consecutive cache lines instead of one line per row.
            //
            // SAFETY: `tile` holds `nf * ROW_TILE` slots, `tile_rows`
            // holds `tile_len * nf`, and `r < tile_len <= ROW_TILE`,
            // `f < nf`.
            for r in 0..tile_len {
                for f in 0..nf {
                    unsafe {
                        *tile.get_unchecked_mut(f * ROW_TILE + r) =
                            *tile_rows.get_unchecked(r * nf + f);
                    }
                }
            }
            stats.node_steps +=
                self.traverse_tile(tile, tile_len, scratch_cursors, scratch_live, tile_out);
            tile_lo += tile_len;
        }
        stats
    }

    /// Scores one already-gathered feature-major tile — the zero-copy
    /// entry point for callers that own columnar data (the serving
    /// layer's dataset path fills the tile with one memcpy per
    /// feature column, so no transpose sits between the gather and
    /// the traversal).
    ///
    /// `tile` holds `feature_count` columns of stride [`ROW_TILE`]
    /// (`tile[f * ROW_TILE + r]` is feature `f` of row `r`); column
    /// slots at `tile_len..ROW_TILE` are never read. The averaged
    /// distributions for rows `0..tile_len` are written row-major to
    /// `out`, bitwise identical to [`ForestKernel::score_block_into`] over
    /// the same rows.
    ///
    /// # Panics
    ///
    /// Panics if `tile_len > ROW_TILE` or the buffer shapes disagree
    /// with `tile_len` and the kernel's arities.
    pub fn score_tile_into(
        &self,
        tile: &[f64],
        tile_len: usize,
        scratch: &mut KernelScratch,
        out: &mut [f64],
    ) -> KernelStats {
        assert!(
            tile_len <= ROW_TILE,
            "tile_len {tile_len} exceeds ROW_TILE {ROW_TILE}"
        );
        assert!(
            tile.len() >= self.feature_count * ROW_TILE,
            "tile buffer shape mismatch"
        );
        assert_eq!(
            out.len(),
            tile_len * self.class_count,
            "output buffer shape mismatch"
        );
        KernelStats {
            node_steps: self.traverse_tile(
                tile,
                tile_len,
                &mut scratch.cursors,
                &mut scratch.live,
                out,
            ),
            row_tiles: 1,
        }
    }

    /// The shared per-tile traversal behind
    /// [`ForestKernel::score_block_into`] and
    /// [`ForestKernel::score_tile_into`]: walks every tree over one
    /// feature-major tile and writes the averaged distributions for
    /// rows `0..tile_len` to `tile_out`. Returns the internal-node
    /// steps taken.
    ///
    /// Callers guarantee `tile.len() >= feature_count * ROW_TILE`,
    /// `cursors.len() >= tile_len`, `live.len() >= tile_len`, and
    /// `tile_out.len() == tile_len * class_count` — together with
    /// `validate_layout` (run at every kernel build) these bound all
    /// the unchecked accesses below.
    fn traverse_tile(
        &self,
        tile: &[f64],
        tile_len: usize,
        cursors: &mut [u32],
        live: &mut [u32],
        tile_out: &mut [f64],
    ) -> u64 {
        let cc = self.class_count;
        let nodes = self.nodes.as_slice();
        let leaf_off = self.leaf_off.as_slice();
        let leaf_probabilities = self.leaf_probabilities.as_slice();
        tile_out.fill(0.0);
        let mut steps = 0u64;
        {
            for (&root, &leaf_start) in self.roots.iter().zip(&self.leaf_start) {
                let cursors = &mut cursors[..tile_len];
                // Level-synchronous walk with live-row compaction:
                // every live row advances one level per pass, and rows
                // that reached a leaf drop out of the live list, so
                // retired rows cost nothing on later passes. Within a
                // pass the rows are independent dependency chains, so
                // the stepping pipelines — which is the entire point
                // of advancing rows level-synchronously instead of
                // walking each row to its leaf.
                //
                // SAFETY: `validate_layout` (run at every kernel
                // build) guarantees all roots/children are valid node
                // slots and every feature index is `< feature_count`,
                // so `idx`, `node.kids[right]`, and
                // `feature * ROW_TILE + r` stay in bounds; every `r`
                // in the live list is `< tile_len`, bounding the
                // cursor and live-list accesses.
                if root >= leaf_start {
                    // Leaf-only tree: every row lands on the root.
                    cursors.fill(root);
                } else {
                    let live = &mut live[..tile_len];
                    // Step a row one level. SAFETY: contract above.
                    macro_rules! step_row {
                        ($idx:expr, $r:expr) => {{
                            let node = nodes.get_unchecked($idx as usize);
                            let value = *tile.get_unchecked(node.feature as usize * ROW_TILE + $r);
                            let right = goes_right(value, node.threshold) as u32;
                            *node.kids.get_unchecked(right as usize)
                        }};
                    }
                    // First pass: all rows step from the root; rows
                    // still internal compact into the live list. The
                    // write of `live[w]` is unconditional (branchless)
                    // — `w` only advances for survivors.
                    let mut n_live = 0usize;
                    for r in 0..tile_len {
                        unsafe {
                            let next = step_row!(root, r);
                            *cursors.get_unchecked_mut(r) = next;
                            *live.get_unchecked_mut(n_live) = r as u32;
                            n_live += (next < leaf_start) as usize;
                        }
                    }
                    steps += tile_len as u64;
                    // Later passes: only live rows step.
                    while n_live > 0 {
                        steps += n_live as u64;
                        let mut w = 0usize;
                        for s in 0..n_live {
                            unsafe {
                                let r = *live.get_unchecked(s) as usize;
                                let idx = *cursors.get_unchecked(r) as usize;
                                let next = step_row!(idx, r);
                                *cursors.get_unchecked_mut(r) = next;
                                *live.get_unchecked_mut(w) = r as u32;
                                w += (next < leaf_start) as usize;
                            }
                        }
                        n_live = w;
                    }
                }
                // Accumulate this tree's leaves in tree order — the
                // same f64 op sequence as `average_probas`. The
                // binary-class case (every trained survivability
                // model) gets a branch-free two-lane unrolling.
                //
                // SAFETY: cursors hold validated node slots, and
                // `validate_layout` pins every leaf's distribution
                // inside `leaf_probabilities`.
                if cc == 2 {
                    for r in 0..tile_len {
                        unsafe {
                            let off = *leaf_off.get_unchecked(*cursors.get_unchecked(r) as usize)
                                as usize;
                            *tile_out.get_unchecked_mut(2 * r) +=
                                *leaf_probabilities.get_unchecked(off);
                            *tile_out.get_unchecked_mut(2 * r + 1) +=
                                *leaf_probabilities.get_unchecked(off + 1);
                        }
                    }
                } else {
                    for (r, &cursor) in cursors.iter().enumerate() {
                        let off = self.leaf_off[cursor as usize] as usize;
                        let src = &leaf_probabilities[off..off + cc];
                        for (acc, p) in tile_out[r * cc..(r + 1) * cc].iter_mut().zip(src) {
                            *acc += p;
                        }
                    }
                }
            }
        }
        let nt = self.tree_count() as f64;
        for acc in tile_out.iter_mut() {
            *acc /= nt;
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, RandomForestParams};

    fn fixture(n_trees: usize, seed: u64) -> (Dataset, RandomForest) {
        let mut d = Dataset::new(vec!["x0".into(), "x1".into(), "x2".into(), "x3".into()], 2);
        for i in 0..240 {
            let x0 = i as f64 / 240.0;
            let x1 = ((i * 53) % 240) as f64 / 240.0;
            let x2 = ((i * 17) % 240) as f64 / 240.0;
            let x3 = if i % 5 == 0 { 0.0 } else { -0.0 }; // signed zeros
            d.push(vec![x0, x1, x2, x3], (x0 + 0.4 * x1 > 0.7) as usize);
        }
        let params = RandomForestParams {
            n_trees,
            ..RandomForestParams::default()
        };
        let model = RandomForest::fit(&d, &params, seed);
        (d, model)
    }

    #[test]
    fn branchless_matches_recursive_bitwise() {
        let (data, model) = fixture(11, 7);
        let kernel = ForestKernel::from_forest(&model);
        assert_eq!(kernel.tree_count(), 11);
        for i in 0..data.len() {
            let row = data.row(i);
            assert_eq!(
                kernel.predict_proba(&row),
                model.predict_proba(&row),
                "row {i}"
            );
        }
    }

    #[test]
    fn blocked_matches_branchless_bitwise() {
        let (data, model) = fixture(9, 21);
        let kernel = ForestKernel::from_forest(&model);
        // Batch sizes straddling the tile size, including ragged tails.
        for n in [1usize, 7, 63, 64, 65, 200] {
            let n = n.min(data.len());
            let mut rows = Vec::with_capacity(n * kernel.feature_count());
            for i in 0..n {
                rows.extend(data.row(i));
            }
            let mut out = vec![0.0; n * kernel.class_count()];
            let mut scratch = KernelScratch::new();
            let stats = kernel.score_block_into(&rows, n, &mut scratch, &mut out);
            assert!(stats.node_steps > 0);
            assert_eq!(stats.row_tiles as usize, n.div_ceil(ROW_TILE));
            for i in 0..n {
                let expected = kernel.predict_proba(&data.row(i));
                assert_eq!(
                    &out[i * kernel.class_count()..(i + 1) * kernel.class_count()],
                    expected.as_slice(),
                    "row {i} of {n}"
                );
            }
        }
    }

    #[test]
    fn nan_goes_right_like_the_recursive_walk() {
        let (_, model) = fixture(13, 3);
        let kernel = ForestKernel::from_forest(&model);
        // NaN in every position, plus mixed NaN/finite rows: the
        // recursive walk (NaN fails `<=`, goes right) is ground truth.
        let patterns: Vec<Vec<f64>> = vec![
            vec![f64::NAN, 0.5, 0.5, 0.0],
            vec![0.5, f64::NAN, 0.5, -0.0],
            vec![f64::NAN, f64::NAN, f64::NAN, f64::NAN],
            vec![0.1, 0.9, f64::NAN, 0.0],
        ];
        for row in &patterns {
            assert_eq!(kernel.predict_proba(row), model.predict_proba(row));
        }
        // Blocked path agrees too.
        let n = patterns.len();
        let flat: Vec<f64> = patterns.iter().flatten().copied().collect();
        let mut out = vec![0.0; n * kernel.class_count()];
        kernel.score_block_into(&flat, n, &mut KernelScratch::new(), &mut out);
        for (i, row) in patterns.iter().enumerate() {
            assert_eq!(
                &out[i * kernel.class_count()..(i + 1) * kernel.class_count()],
                model.predict_proba(row).as_slice()
            );
        }
    }

    #[test]
    fn signed_zero_and_threshold_equal_values_agree() {
        let (data, model) = fixture(7, 99);
        let kernel = ForestKernel::from_forest(&model);
        // Rows built from the model's own split thresholds hit the
        // `value == threshold` boundary exactly.
        let mut boundary_rows: Vec<Vec<f64>> = Vec::new();
        for tree in model.trees() {
            let flat = tree.to_flat();
            for (i, &k) in flat.kind.iter().enumerate().take(8) {
                if k == 1 {
                    let mut row = data.row(0);
                    row[flat.feature[i] as usize] = flat.threshold[i];
                    boundary_rows.push(row);
                }
            }
        }
        boundary_rows.push(vec![0.0, -0.0, 0.0, -0.0]);
        boundary_rows.push(vec![-0.0, 0.0, -0.0, 0.0]);
        for row in &boundary_rows {
            assert_eq!(kernel.predict_proba(row), model.predict_proba(row));
        }
    }

    #[test]
    fn single_node_trees_score_immediately() {
        // A degenerate dataset (one class value dominates) can yield
        // leaf-only trees; depth-0 roots must terminate instantly.
        let mut d = Dataset::new(vec!["x0".into()], 2);
        for i in 0..40 {
            d.push(vec![i as f64], 0);
        }
        let params = RandomForestParams {
            n_trees: 3,
            ..RandomForestParams::default()
        };
        let model = RandomForest::fit(&d, &params, 5);
        let kernel = ForestKernel::from_forest(&model);
        let steps = kernel.predict_proba_into(&[1.5], &mut [0.0, 0.0]);
        assert_eq!(steps, 0, "leaf-only trees take no steps");
        assert_eq!(kernel.predict_proba(&[1.5]), model.predict_proba(&[1.5]));
    }

    #[test]
    fn layout_is_internal_first_with_leaf_self_loops() {
        let (_, model) = fixture(4, 13);
        let kernel = ForestKernel::from_forest(&model);
        let total: usize = model.trees().iter().map(|t| t.node_count()).sum();
        assert_eq!(kernel.node_count(), total);
        for t in 0..kernel.tree_count() {
            let ls = kernel.leaf_start[t] as usize;
            let end = if t + 1 < kernel.tree_count() {
                // Trees are contiguous; internals of tree t start at
                // the previous tree's end.
                kernel.roots[t + 1].min(kernel.leaf_start[t + 1]) as usize
            } else {
                kernel.node_count()
            };
            for idx in ls..end {
                assert_eq!(kernel.nodes[idx].kids[0] as usize, idx, "leaf self-loop");
                assert_eq!(kernel.nodes[idx].kids[1] as usize, idx);
                assert!(kernel.nodes[idx].threshold.is_infinite());
            }
        }
    }
}
