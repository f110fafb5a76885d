//! `batcher_transparency` — property tests pinning that micro-batching
//! is an invisible optimization.
//!
//! Two properties, over randomly partitioned request streams:
//!
//! 1. **Order preservation** — flushing the batcher yields the requests
//!    in exactly their arrival order, partitioned into contiguous runs.
//! 2. **Bitwise identity** — scoring the coalesced batches and
//!    splitting the results back per request reproduces, `f64 ==`
//!    exact, what scoring each request alone produces — across batch
//!    policies `max_rows ∈ {1, 7, 64}` and forest thread limits
//!    `{1, 8}` (the daemon's "1 vs 8 workers" axis: scoring
//!    parallelism must not leak into probabilities).
//!
//! The forest thread limit is process-global, so everything runs in
//! one `#[test]` body; batch-policy and thread-limit sweeps nest
//! inside the property closure.
//!
//! A third property, `natural_batching_holds_nothing_when_idle`, pins
//! the work-conserving flush rule: under a frozen clock, any
//! interleaving of arrivals and batcher steps leaves no request held
//! once the intake runs dry, while batches still partition arrival
//! order and respect `max_rows`.

use proptest::prelude::*;
use std::collections::VecDeque;
use survd::{BatchPolicy, BatcherCore, Clock, ManualClock};

/// A small but non-trivial model over a deterministic synthetic
/// dataset, plus a scoring corpus drawn from the same feature space.
fn fixture() -> (serve::SavedModel, Vec<Vec<f64>>) {
    let mut data = forest::Dataset::new(vec!["x0".into(), "x1".into(), "x2".into()], 2);
    for i in 0..160 {
        let x0 = i as f64 / 160.0;
        let x1 = ((i * 37) % 160) as f64 / 160.0;
        let x2 = ((i * 11) % 13) as f64 / 13.0;
        let label = (x0 + x1 * 0.5 > 0.6) as usize;
        data.push(vec![x0, x1, x2], label);
    }
    let params = forest::RandomForestParams {
        n_trees: 8,
        ..forest::RandomForestParams::default()
    };
    let forest = forest::RandomForest::fit(&data, &params, 7);
    let model = serve::SavedModel::new(
        forest,
        serve::ModelMeta {
            positive_fraction: data.class_fraction(1),
            seed: 7,
            params,
            grid: None,
        },
    );
    let corpus: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i)).collect();
    (model, corpus)
}

/// Drains `core` completely, batch by batch, asserting each batch is
/// non-empty; returns the flushed batches.
fn drain(core: &mut BatcherCore<(usize, Vec<Vec<f64>>)>) -> Vec<Vec<(usize, Vec<Vec<f64>>)>> {
    let mut batches = Vec::new();
    while !core.is_empty() {
        let batch = core.take_batch();
        assert!(!batch.is_empty(), "take_batch on a non-empty core");
        batches.push(batch);
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batcher_transparency(
        // Request sizes: up to 10 requests of 1..=9 rows each.
        sizes in prop::collection::vec(1usize..=9, 1..=10),
        offset in 0usize..160,
    ) {
        let (model, corpus) = fixture();
        let q = model.meta.positive_fraction;

        // Cut the request stream out of the corpus: request r takes
        // the next `sizes[r]` rows starting at a random offset.
        let mut cursor = offset;
        let requests: Vec<(usize, Vec<Vec<f64>>)> = sizes
            .iter()
            .enumerate()
            .map(|(r, &rows)| {
                let slice: Vec<Vec<f64>> = (0..rows)
                    .map(|j| corpus[(cursor + j) % corpus.len()].clone())
                    .collect();
                cursor += rows;
                (r, slice)
            })
            .collect();

        for &threads in &[1usize, 8] {
            forest::parallel::set_thread_limit(Some(threads));

            // Ground truth at this thread limit: each request scored
            // alone, no coalescing.
            let alone: Vec<Vec<f64>> = requests
                .iter()
                .map(|(_, rows)| serve::score_rows(&model.forest, rows, q).positives())
                .collect();

            for &max_rows in &[1usize, 7, 64] {
                let mut core = BatcherCore::new(BatchPolicy { max_rows, max_wait_ms: 2 });
                for (r, rows) in &requests {
                    core.push((*r, rows.clone()), rows.len(), 0);
                }
                let batches = drain(&mut core);

                // Property 1: batches partition arrival order.
                let flat: Vec<usize> = batches
                    .iter()
                    .flat_map(|b| b.iter().map(|(r, _)| *r))
                    .collect();
                let expected_order: Vec<usize> = (0..requests.len()).collect();
                prop_assert_eq!(&flat, &expected_order,
                    "request order broke at max_rows {}", max_rows);

                // Property 2: score each coalesced batch, split the
                // rows back per request, compare bitwise.
                for batch in &batches {
                    let all_rows: Vec<Vec<f64>> = batch
                        .iter()
                        .flat_map(|(_, rows)| rows.iter().cloned())
                        .collect();
                    let scored = serve::score_rows(&model.forest, &all_rows, q).positives();
                    let mut taken = 0usize;
                    for (r, rows) in batch {
                        let part = &scored[taken..taken + rows.len()];
                        prop_assert_eq!(part, alone[*r].as_slice(),
                            "request {} diverged at max_rows {} threads {}",
                            r, max_rows, threads);
                        taken += rows.len();
                    }
                    prop_assert_eq!(taken, scored.len());
                }
            }
        }

        // Cross-thread-limit identity: 1-thread ground truth equals
        // 8-thread ground truth (set above ends at 8; recompute at 1).
        forest::parallel::set_thread_limit(Some(1));
        for (r, rows) in &requests {
            let single = serve::score_rows(&model.forest, rows, q).positives();
            forest::parallel::set_thread_limit(Some(8));
            let multi = serve::score_rows(&model.forest, rows, q).positives();
            forest::parallel::set_thread_limit(Some(1));
            prop_assert_eq!(&single, &multi, "request {} varies with thread limit", r);
        }
        forest::parallel::set_thread_limit(None);
    }
}

/// Flushes one batch and checks it against the row cap: a batch is
/// non-empty and either fits `max_rows` or is one oversized request.
fn flush_one(core: &mut BatcherCore<(usize, usize)>, max_rows: usize, flushed: &mut Vec<usize>) {
    let batch = core.take_batch();
    let rows: usize = batch.iter().map(|&(_, rows)| rows).sum();
    prop_assert!(!batch.is_empty(), "a due core flushes something");
    prop_assert!(
        rows <= max_rows || batch.len() == 1,
        "batch of {} requests carries {} rows over max_rows {}",
        batch.len(),
        rows,
        max_rows
    );
    flushed.extend(batch.iter().map(|&(id, _)| id));
}

/// One pass of the server's batch loop at the frozen instant `now`:
/// pop if the intake yields, flush if due. Once the intake is empty,
/// every held request must flush without the clock moving.
fn step(
    core: &mut BatcherCore<(usize, usize)>,
    intake: &mut VecDeque<(usize, usize)>,
    now: u64,
    flushed: &mut Vec<usize>,
) {
    let max_rows = core.policy().max_rows;
    let intake_empty = match intake.pop_front() {
        Some((id, rows)) => {
            core.push((id, rows), rows, now);
            false
        }
        None => true,
    };
    if core.due(now, intake_empty) {
        flush_one(core, max_rows, flushed);
    }
    if intake_empty {
        while !core.is_empty() {
            prop_assert!(core.due(now, true), "work held with an empty intake");
            flush_one(core, max_rows, flushed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn natural_batching_holds_nothing_when_idle(
        // 0 = one batcher step; k > 0 = a request of k rows arrives in
        // the intake.
        events in prop::collection::vec(0usize..=12, 1..=60),
        max_rows in 1usize..=16,
        max_wait_ms in 1u64..=5,
    ) {
        // The clock never moves, so `max_wait_ms` never binds: every
        // flush is owed to the row cap or to an empty intake.
        let clock = ManualClock::new();
        let now = clock.now_us();
        let mut core = BatcherCore::new(BatchPolicy { max_rows, max_wait_ms });
        let mut intake: VecDeque<(usize, usize)> = VecDeque::new();
        let mut arrived = 0usize;
        let mut flushed: Vec<usize> = Vec::new();

        for &event in &events {
            if event == 0 {
                step(&mut core, &mut intake, now, &mut flushed);
            } else {
                intake.push_back((arrived, event));
                arrived += 1;
            }
        }
        // Arrivals stop: the batcher drains the intake and goes idle.
        while !intake.is_empty() || !core.is_empty() {
            step(&mut core, &mut intake, now, &mut flushed);
        }
        prop_assert_eq!(core.pending_rows(), 0);
        let expected: Vec<usize> = (0..arrived).collect();
        prop_assert_eq!(flushed, expected, "batches must partition arrival order");
    }
}
