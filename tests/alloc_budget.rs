//! The hot loops allocate per unit of scheduling, never per unit of
//! data: steps 2 and 3 and one board entry, counted by a global
//! allocator that sees every thread.
//!
//! The genome-side bank is prepared once, like an engine's, and a first
//! query warms it; the counts are read on a second query four times the
//! size. Step 2 may allocate a few times per work unit, per chunk and
//! per worker, step 3 a scratch per worker and the board a result
//! vector per entry — never once per key, window or anchor. A `realloc`
//! is not counted (see [`psc_alloc_count::Counting`]): reused scratch
//! may grow to its high-water mark.
//!
//! This target holds one test, so nothing else allocates while it
//! counts.

use psc_align::{gapped_extend, ExtendScratch};
use psc_core::step2::{self, Step2Params, Step2Schedule};
use psc_core::{NullRecorder, Pipeline, PipelineConfig};
use psc_datagen::{mutate_protein, random_bank, BankConfig, MutationConfig};
use psc_index::KeyCounts;
use psc_rasc::{FunctionalOperator, OperatorConfig};
use psc_score::blosum62;
use psc_seqio::prng::SplitMix64;
use psc_seqio::{Bank, Seq, SeqKind};

#[global_allocator]
static COUNTING: psc_alloc_count::Counting = psc_alloc_count::Counting;

/// Fresh allocations `f` makes, on any thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = psc_alloc_count::allocations();
    let out = f();
    (out, psc_alloc_count::allocations() - before)
}

/// Step 2's allowance: a candidate vector per unit, a scratch set, a
/// thread and a result list per worker, and the call's own set-up (lane
/// filters, unit list, merge).
fn step2_budget(units: usize, workers: usize) -> u64 {
    (2 * units + 16 * workers + 16) as u64
}

/// Step 3's allowance for one worker's extensions: its scratch.
const STEP3_BUDGET: u64 = 4;

/// One board entry's allowance: its result vector.
const ENTRY_BUDGET: u64 = 4;

/// A query of `count` proteins, each a mutated copy of one of `genome`'s.
fn query(genome: &Bank, count: usize, seed: u64) -> Bank {
    let mut rng = SplitMix64::new(seed);
    let mut bank = Bank::new();
    for i in 0..count {
        let ancestor = &genome.get(i % genome.len()).residues;
        let residues = mutate_protein(&mut rng, ancestor, &MutationConfig::default());
        bank.push(Seq::from_codes(format!("q{i}"), residues, SeqKind::Protein));
    }
    bank
}

#[test]
fn hot_loops_allocate_per_unit_not_per_key() {
    let cfg = PipelineConfig::default();
    let pipeline = Pipeline::new(cfg.clone());
    let genome = random_bank(&BankConfig {
        count: 48,
        min_len: 200,
        max_len: 400,
        seed: 0xa110c,
    });
    let prep1 = pipeline.prepare_bank(1, &genome, &NullRecorder);
    let (matrix, model) = (blosum62(), cfg.seed.model());
    let (span, n_ctx) = (model.span(), cfg.n_ctx);
    let params = |schedule| Step2Params {
        matrix,
        kernel: cfg.kernel,
        span,
        n_ctx,
        threshold: cfg.threshold,
        kernel_backend: cfg.step2_kernel,
        schedule,
    };
    let warm = pipeline.prepare_bank(0, &query(&genome, 8, 1), &NullRecorder);
    step2::run_software(
        warm.flat(),
        warm.index(),
        prep1.flat(),
        prep1.index(),
        &params(Step2Schedule::Bucketed),
        2,
    );
    let prep0 = pipeline.prepare_bank(0, &query(&genome, 32, 2), &NullRecorder);
    let (flat0, idx0, flat1, idx1) = (prep0.flat(), prep0.index(), prep1.flat(), prep1.index());

    // Step 2 over the whole T1, at one and two workers, both schedules.
    let mut candidates = Vec::new();
    for (threads, schedule) in [
        (1, Step2Schedule::Bucketed),
        (2, Step2Schedule::Bucketed),
        (2, Step2Schedule::Contiguous),
    ] {
        let units = match (threads, schedule) {
            (1, _) => 1,
            (_, Step2Schedule::Contiguous) => threads,
            (_, Step2Schedule::Bucketed) => {
                step2::bucketed_items(step2::key_masses(idx0, |k| idx1.list(k).len())).len()
            }
        };
        let p = params(schedule);
        let ((out, stats), allocs) =
            counted(|| step2::run_software(flat0, idx0, flat1, idx1, &p, threads));
        let budget = step2_budget(units, threads.min(units));
        assert!(
            stats.active_keys > 4 * budget,
            "too few keys to tell: {stats:?}"
        );
        assert!(
            allocs <= budget,
            "step 2 at {threads} threads ({schedule:?}): {allocs} allocations over {units} \
             units and {} keys, budget {budget}",
            stats.active_keys
        );
        candidates = out;
    }

    // Step 2 a chunk of T1 at a time, as a one-shot query runs it.
    let seqs = (0..flat1.seq_count()).map(|s| (s, s + 1)).collect();
    let counts = KeyCounts::count(flat1, model.as_ref(), seqs, 1, Some(idx0));
    let parts = counts.parts();
    let chunks = [0..parts / 3, parts / 3..2 * parts / 3, 2 * parts / 3..parts];
    let mut t1 = psc_index::SeedIndex::default();
    let (mut allocs, mut keys) = (0, 0);
    for chunk in chunks.iter().cloned() {
        counts.scatter(chunk, 1, &mut t1);
        let p = params(Step2Schedule::Bucketed);
        let ((_, stats), n) = counted(|| step2::run_software(flat0, idx0, flat1, &t1, &p, 1));
        allocs += n;
        keys += stats.active_keys;
    }
    let budget = chunks.len() as u64 * step2_budget(1, 1);
    assert!(keys > 4 * budget, "too few keys to tell: {keys}");
    assert!(
        allocs <= budget,
        "step 2 over {} chunks: {allocs} allocations over {keys} keys, budget {budget}",
        chunks.len()
    );

    // Step 3: one worker's extensions of every candidate.
    let ((), allocs) = counted(|| {
        let mut scratch = ExtendScratch::new();
        for c in &candidates {
            let (s0, l0) = flat0.locate(c.pos0);
            let (s1, l1) = flat1.locate(c.pos1);
            gapped_extend(
                matrix,
                flat0.seq(s0),
                flat1.seq(s1),
                l0,
                l1,
                &cfg.gap,
                &mut scratch,
            );
        }
    });
    assert!(candidates.len() as u64 > 4 * STEP3_BUDGET);
    assert!(
        allocs <= STEP3_BUDGET,
        "step 3: {allocs} allocations over {} extensions, budget {STEP3_BUDGET}",
        candidates.len()
    );

    // One board entry, warmed on one key's windows, then one holding
    // the windows of the first 64 active keys.
    let mut op = FunctionalOperator::new(OperatorConfig::new(64), matrix).expect("operator fits");
    let active = (0..idx0.key_count() as u32)
        .filter(|&k| !idx0.list(k).is_empty() && !idx1.list(k).is_empty());
    let entry = |keys: usize| {
        let (mut il0, mut il1, mut buf) = (Vec::new(), Vec::new(), Vec::new());
        for key in active.clone().take(keys) {
            step2::gather_windows(flat0, idx0.list(key), span, n_ctx, &mut buf);
            il0.extend_from_slice(&buf);
            step2::gather_windows(flat1, idx1.list(key), span, n_ctx, &mut buf);
            il1.extend_from_slice(&buf);
        }
        (il0, il1)
    };
    let (small0, small1) = entry(1);
    op.run_entry(&small0, &small1);
    let (il0, il1) = entry(64);
    let (_, allocs) = counted(|| op.run_entry(&il0, &il1));
    let windows = (il0.len() + il1.len()) / cfg.window_len();
    assert!(windows as u64 > 4 * ENTRY_BUDGET);
    assert!(
        allocs <= ENTRY_BUDGET,
        "a board entry of {windows} windows: {allocs} allocations, budget {ENTRY_BUDGET}"
    );
}
