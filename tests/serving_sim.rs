//! Deterministic simulation of the continuous-batching scheduler.
//!
//! A seeded virtual-clock workload generator replays randomized arrival
//! traces (mixed prompt lengths, decode lengths, arrival gaps, priority
//! classes, kernels, page sizes, and admission modes) through
//! `gpa-serve`'s [`Scheduler`] and checks, for **every** trace:
//!
//! 1. **Bitwise equivalence** — each completed sequence's full output
//!    equals the naive one-sequence-at-a-time reference (chunked prefill +
//!    per-token decode) bit for bit — *including* sequences that were
//!    preempted and resumed: continuous batching and paged eviction change
//!    the schedule, never the numbers;
//! 2. **Page conservation** — after every tick, free pages plus every
//!    live sequence's page-table length equals the pool size, no page is
//!    mapped twice, and no cache outgrows its page table;
//! 3. **No starvation / no livelock** — every submitted sequence
//!    completes within a bound computed from the trace itself (worst-case
//!    serial service), and preemption events per tick are bounded by the
//!    in-flight cap;
//! 4. **FIFO within a priority class** — admission preserves submission
//!    order inside a class, and equal-shape same-class sequences complete
//!    in submission order, preemption or not;
//! 5. **Atomic rollback** — a failed batched launch rolls every
//!    sequence's cache and page table back, un-preempts and un-admits
//!    what the tick moved, and leaves the scheduler in a state that still
//!    serves bitwise-correct outputs once the offender is cancelled
//!    (separate tests below).
//!
//! The trace count of the headline loop defaults to 52 and can be raised
//! via `GPA_SIM_TRACES` (the nightly CI job runs 200).

use graph_attention::prelude::*;
use graph_attention::serve::{
    generate_model_trace, generate_trace, sequential_model_reference, sequential_reference,
    Completion, ModelId, ModelTraceEvent, Scheduler, ServeError, TraceEvent, TraceSpec,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Headline-loop trace count: `GPA_SIM_TRACES` or 52.
fn trace_count() -> u64 {
    std::env::var("GPA_SIM_TRACES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(52)
}

/// Scheduler + plans used by one simulated trace. Three length-free plans
/// (two single-kernel, one composed) so traces mix kernels per sequence.
fn build_scheduler(
    threads: usize,
    config: ServeConfig,
) -> (Scheduler<'static, f64>, Vec<graph_attention::serve::PlanId>) {
    let mut scheduler = Scheduler::new(AttentionEngine::with_threads(threads), config).unwrap();
    let plans = vec![
        scheduler
            .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap())
            .unwrap(),
        scheduler
            .register_plan(
                AttentionPlan::single(AttentionKernel::Dilated1d { w: 3, r: 2 }).unwrap(),
            )
            .unwrap(),
        scheduler
            .register_plan(
                AttentionPlan::new(&[
                    AttentionKernel::Local { n: 1 },
                    AttentionKernel::Dilated2d {
                        block_size: 3,
                        r: 1,
                    },
                ])
                .unwrap(),
            )
            .unwrap(),
    ];
    (scheduler, plans)
}

/// Scheduler + pattern choices for the adaptive traces: the three static
/// plans above, two routed plans (a bare causal router and a composed
/// Local + Routed), and the [`PatternChoice::Auto`] wildcard — so traces
/// mix static, content-routed, and scheduler-chosen sequences. Returns the
/// routed plan ids separately so tests can tell routed completions apart.
fn build_adaptive_scheduler(
    threads: usize,
    config: ServeConfig,
) -> (
    Scheduler<'static, f64>,
    Vec<PatternChoice>,
    Vec<graph_attention::serve::PlanId>,
) {
    let (mut scheduler, plans) = build_scheduler(threads, config);
    let routed = vec![
        scheduler
            .register_plan(
                AttentionPlan::single(AttentionKernel::Routed {
                    groups: 2,
                    seed: 0x0DD5,
                    causal: true,
                })
                .unwrap(),
            )
            .unwrap(),
        scheduler
            .register_plan(
                AttentionPlan::new(&[
                    AttentionKernel::Local { n: 1 },
                    AttentionKernel::Routed {
                        groups: 3,
                        seed: 0xB10C,
                        causal: true,
                    },
                ])
                .unwrap(),
            )
            .unwrap(),
    ];
    let mut patterns: Vec<PatternChoice> = plans.iter().map(|&p| p.into()).collect();
    patterns.extend(routed.iter().map(|&p| PatternChoice::from(p)));
    patterns.push(PatternChoice::Auto);
    (scheduler, patterns, routed)
}

/// Scheduler + plans + models used by one simulated mixed trace: the three
/// plans above, plus a single-layer full model and a three-layer
/// heterogeneous Full/Sparse/Full stack — so model traces mix stack depths
/// per sequence.
fn build_mixed_scheduler(
    threads: usize,
    config: ServeConfig,
) -> (
    Scheduler<'static, f64>,
    Vec<graph_attention::serve::PlanId>,
    Vec<(ModelId, usize)>,
) {
    let (mut scheduler, plans) = build_scheduler(threads, config);
    let single = scheduler.register_model(
        DecoderModel::new(
            LayerPattern::parse("F").unwrap(),
            vec![(
                'F',
                AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap(),
            )],
            8,
            2,
            4,
            0x1A7E,
        )
        .unwrap(),
    );
    let stacked = scheduler.register_model(
        DecoderModel::new(
            LayerPattern::parse("FSF").unwrap(),
            vec![
                (
                    'F',
                    AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap(),
                ),
                (
                    'S',
                    AttentionPlan::single(AttentionKernel::Dilated1d { w: 3, r: 2 }).unwrap(),
                ),
            ],
            12,
            3,
            4,
            0x5EED,
        )
        .unwrap(),
    );
    (scheduler, plans, vec![(single, 8), (stacked, 12)])
}

/// Worst-case ticks to drain `trace` on a healthy scheduler: last arrival
/// plus the arrival window plus fully *serial* service of every sequence
/// (each needs `ceil(prompt/chunk)` prefill ticks and one tick per decode
/// token), plus slack. Exceeding this bound means starvation — and since
/// the most urgent in-flight sequence is never evicted, it doubles as the
/// livelock bound under preemption: some sequence advances every tick, so
/// serial service still drains the trace.
fn starvation_bound(trace: &[TraceEvent<f64>], config: &ServeConfig) -> u64 {
    let service: u64 = trace
        .iter()
        .map(|e| {
            let prompt = e.request.prompt;
            let decode = e.request.q.rows() - prompt;
            (prompt.div_ceil(config.prefill_chunk) + decode + 1) as u64
        })
        .sum();
    let last_arrival = trace.last().map_or(0, |e| e.at);
    last_arrival + config.arrival_window + service + 64
}

/// Drive one trace through the scheduler tick by tick, checking the page
/// and scheduling invariants after every tick; returns the completions
/// and the peak number of sequences concurrently in flight during a tick.
fn drive(
    scheduler: &mut Scheduler<'_, f64>,
    trace: &[TraceEvent<f64>],
    max_ticks: u64,
) -> (Vec<Completion<f64>>, usize) {
    let mut completions = Vec::new();
    let mut peak_in_flight = 0usize;
    let mut next = 0usize;
    let mut ticks = 0u64;
    while next < trace.len() || !scheduler.is_idle() {
        while next < trace.len() && trace[next].at <= scheduler.now() {
            scheduler.submit(trace[next].request.clone()).unwrap();
            next += 1;
        }
        let report = scheduler.tick().unwrap();
        // Invariant 2: page conservation, no double-mapping, caches within
        // their page tables — after every single tick.
        scheduler.assert_kv_invariants();
        assert_eq!(
            scheduler.kv_free_pages() + scheduler.kv_used_pages(),
            scheduler.kv_total_pages(),
            "page conservation"
        );
        assert!(
            scheduler.in_flight_len() <= scheduler.config().max_in_flight,
            "in-flight cap violated"
        );
        // Admission and preemption are mutually exclusive per tick:
        // admission holds back this tick's decode appends, so it can never
        // force the eviction of a sequence it just admitted.
        if !report.preempted.is_empty() {
            assert!(
                report.admitted.is_empty() && report.resumed.is_empty(),
                "a tick may admit or preempt, never both"
            );
        }
        // Invariant 3 (livelock half): one tick evicts at most the
        // non-head in-flight sequences.
        assert!(
            report.preempted.len() < scheduler.config().max_in_flight.max(1) + 1,
            "preempted more sequences than could be in flight"
        );
        peak_in_flight = peak_in_flight.max(scheduler.in_flight_len() + report.completed.len());
        completions.extend(report.completed);
        ticks += 1;
        // Invariant 3: no starvation — the trace drains within its bound.
        assert!(
            ticks <= max_ticks,
            "not drained after {ticks} ticks (bound {max_ticks}): starvation"
        );
        assert!(
            scheduler.preemption_events() <= ticks * scheduler.config().max_in_flight as u64,
            "preemption-count bound exceeded: livelock"
        );
    }
    (completions, peak_in_flight)
}

/// Check invariants 1 and 4 on a drained trace's completions.
fn check_completions(
    scheduler: &Scheduler<'_, f64>,
    trace: &[TraceEvent<f64>],
    completions: &[Completion<f64>],
) {
    assert_eq!(completions.len(), trace.len(), "every sequence completes");

    // Invariant 1: bitwise equivalence with the sequential reference —
    // for preempted-and-resumed sequences exactly as for uninterrupted
    // ones.
    for c in completions {
        let request = &trace[c.id.as_u64() as usize].request;
        let plan = c.target.plan().expect("a plan-only trace");
        let expect = sequential_reference(
            scheduler.engine(),
            scheduler.plan(plan),
            request,
            scheduler.config().prefill_chunk,
        )
        .unwrap();
        assert_eq!(
            c.output,
            expect,
            "sequence {} ({} preemptions) must match the sequential serve bitwise",
            c.id.as_u64(),
            c.preemptions
        );
    }

    // Preemption accounting: per-completion counters sum to the
    // scheduler's event total (nothing was cancelled in these drives).
    assert_eq!(
        completions
            .iter()
            .map(|c| c.preemptions as u64)
            .sum::<u64>(),
        scheduler.preemption_events(),
        "per-sequence preemption counters must sum to the event total"
    );

    // Invariant 4: FIFO within a priority class. Ids are submission order.
    for a in completions {
        for b in completions {
            if a.priority != b.priority || a.id >= b.id {
                continue;
            }
            assert!(
                a.admitted <= b.admitted,
                "class {}: {} admitted after later submission {}",
                a.priority,
                a.id.as_u64(),
                b.id.as_u64()
            );
            // Equal-shape sequences of one class also *complete* FIFO
            // (both phases advance one unit per tick, and preemption
            // evicts most-recently-admitted first, so order is kept).
            let (ra, rb) = (
                &trace[a.id.as_u64() as usize].request,
                &trace[b.id.as_u64() as usize].request,
            );
            if ra.prompt == rb.prompt && ra.q.rows() == rb.q.rows() {
                assert!(
                    a.completed <= b.completed,
                    "class {}: equal-shape completion order inverted ({} vs {})",
                    a.priority,
                    a.id.as_u64(),
                    b.id.as_u64()
                );
            }
        }
    }
}

/// [`starvation_bound`] generalized to a mixed workload: serial service of
/// every plan sequence plus every model sequence (a model sequence's
/// per-tick unit of work is one chunk or one token, exactly like a plan
/// sequence's — depth multiplies the work per tick, not the tick count).
fn mixed_starvation_bound(
    attn: &[TraceEvent<f64>],
    models: &[ModelTraceEvent<f64>],
    config: &ServeConfig,
) -> u64 {
    let model_service: u64 = models
        .iter()
        .map(|e| {
            let prompt = e.request.prompt;
            let decode = e.request.x.rows() - prompt;
            (prompt.div_ceil(config.prefill_chunk) + decode + 1) as u64
        })
        .sum();
    let last_arrival = models.last().map_or(0, |e| e.at);
    starvation_bound(attn, config) + last_arrival + model_service
}

/// [`drive`] for a mixed plan + model workload: submits both traces on the
/// virtual clock and checks the same per-tick invariants — page
/// conservation now spans every layer of every model sequence's state.
fn drive_mixed(
    scheduler: &mut Scheduler<'_, f64>,
    attn: &[TraceEvent<f64>],
    models: &[ModelTraceEvent<f64>],
    max_ticks: u64,
) -> Vec<Completion<f64>> {
    let mut completions = Vec::new();
    let (mut next_a, mut next_m) = (0usize, 0usize);
    let mut ticks = 0u64;
    while next_a < attn.len() || next_m < models.len() || !scheduler.is_idle() {
        while next_a < attn.len() && attn[next_a].at <= scheduler.now() {
            scheduler.submit(attn[next_a].request.clone()).unwrap();
            next_a += 1;
        }
        while next_m < models.len() && models[next_m].at <= scheduler.now() {
            scheduler
                .submit_model(models[next_m].request.clone())
                .unwrap();
            next_m += 1;
        }
        let report = scheduler.tick().unwrap();
        scheduler.assert_kv_invariants();
        assert_eq!(
            scheduler.kv_free_pages() + scheduler.kv_used_pages(),
            scheduler.kv_total_pages(),
            "page conservation across per-layer tables"
        );
        assert!(scheduler.in_flight_len() <= scheduler.config().max_in_flight);
        if !report.preempted.is_empty() {
            assert!(
                report.admitted.is_empty() && report.resumed.is_empty(),
                "a tick may admit or preempt, never both"
            );
        }
        completions.extend(report.completed);
        ticks += 1;
        assert!(
            ticks <= max_ticks,
            "not drained after {ticks} ticks (bound {max_ticks}): starvation"
        );
    }
    completions
}

/// Bitwise check for a mixed drive's completions: every plan completion
/// equals [`sequential_reference`], every model completion equals
/// [`sequential_model_reference`] — preempted-and-resumed multi-layer
/// sequences exactly like uninterrupted ones. Ids map to events through
/// the submission order (the two sorted traces merged by arrival tick,
/// plan events first on ties — `drive_mixed`'s per-tick order).
fn check_mixed_completions(
    scheduler: &Scheduler<'_, f64>,
    attn: &[TraceEvent<f64>],
    models: &[ModelTraceEvent<f64>],
    completions: &[Completion<f64>],
) {
    assert_eq!(completions.len(), attn.len() + models.len());
    let mut order: Vec<(bool, usize)> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < attn.len() || j < models.len() {
        if j >= models.len() || (i < attn.len() && attn[i].at <= models[j].at) {
            order.push((false, i));
            i += 1;
        } else {
            order.push((true, j));
            j += 1;
        }
    }
    let chunk = scheduler.config().prefill_chunk;
    for c in completions {
        let (is_model, idx) = order[c.id.as_u64() as usize];
        match c.target {
            ServeTarget::Plan(plan) => {
                assert!(!is_model, "submission order maps ids to flavors");
                let expect = sequential_reference(
                    scheduler.engine(),
                    scheduler.plan(plan),
                    &attn[idx].request,
                    chunk,
                )
                .unwrap();
                assert_eq!(
                    c.output,
                    expect,
                    "plan sequence {} ({} preemptions) bitwise",
                    c.id.as_u64(),
                    c.preemptions
                );
            }
            ServeTarget::Model(model) => {
                assert!(is_model, "submission order maps ids to flavors");
                let expect = sequential_model_reference(
                    scheduler.engine(),
                    scheduler.model(model),
                    &models[idx].request,
                    chunk,
                )
                .unwrap();
                assert_eq!(
                    c.output,
                    expect,
                    "model sequence {} ({} preemptions, {} layers) bitwise",
                    c.id.as_u64(),
                    c.preemptions,
                    scheduler.model(model).layers()
                );
            }
        }
    }
}

/// The headline: ≥ `GPA_SIM_TRACES` (default 52) randomized seeded
/// traces, each with its own workload shape, page geometry, *and*
/// scheduler policy — all always-on invariants checked end to end, with
/// page budgets tight enough that a healthy share of traces preempt.
#[test]
fn randomized_traces_match_the_sequential_reference_bitwise() {
    let mut preempted_completions = 0u64;
    let traces = trace_count();
    for trace_seed in 0u64..traces {
        let mut knobs = StdRng::seed_from_u64(0xC0FFEE ^ trace_seed);
        let prompt_lo = 1 + knobs.gen_range(0..6);
        let prompt_hi = prompt_lo + knobs.gen_range(0..12);
        let decode_hi = knobs.gen_range(0..8);
        let spec = TraceSpec {
            sequences: 4 + knobs.gen_range(0..8),
            prompt: (prompt_lo, prompt_hi),
            decode: (0, decode_hi),
            dk: 1 + knobs.gen_range(0..8),
            arrival_gap: (0, knobs.gen_range(0..4) as u64),
            priority_classes: 1 + knobs.gen_range(0..3) as u8,
            seed: trace_seed.wrapping_mul(0x9E37_79B9) ^ 0x5EED,
        };
        let max_total = prompt_hi + decode_hi;
        let page_size = 1 + knobs.gen_range(0..6);
        // Sometimes a tight pool (forces preemption under decode growth),
        // sometimes a loose one; always enough pages for the largest
        // single sequence, so nothing is rejected at submission.
        let kv_pages = max_total.div_ceil(page_size) + knobs.gen_range(0..2 * spec.sequences);
        // Every fourth trace runs worst-case reservation — the mode that
        // can never preempt — so both admission paths stay exercised.
        let admission = if trace_seed % 4 == 3 {
            AdmissionMode::WorstCaseReserve
        } else {
            AdmissionMode::PagedUsage
        };
        // Every third trace parks victims in the swap arena instead of
        // recomputing, and every sixth gets a byte cap tight enough that
        // some parks fall back — all bitwise-invisible by construction.
        let eviction = if trace_seed % 3 == 1 {
            EvictionMode::Swap
        } else {
            EvictionMode::Recompute
        };
        let swap_bytes = if trace_seed % 6 == 4 {
            96 * std::mem::size_of::<f64>()
        } else {
            usize::MAX
        };
        let config = ServeConfig {
            max_in_flight: 1 + knobs.gen_range(0..5),
            kv_pages,
            page_size,
            arrival_window: knobs.gen_range(0..3) as u64,
            prefill_chunk: 1 + knobs.gen_range(0..6),
            admission,
            eviction,
            swap_bytes,
        };
        let (mut scheduler, plans) = build_scheduler(2, config);
        let trace: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans);
        let bound = starvation_bound(&trace, &config);
        let (completions, _) = drive(&mut scheduler, &trace, bound);
        check_completions(&scheduler, &trace, &completions);
        assert!(scheduler.is_idle());
        assert_eq!(
            scheduler.kv_used_pages(),
            0,
            "trace {trace_seed}: all pages released"
        );
        assert_eq!(scheduler.kv_reserved_pages(), 0);
        assert_eq!(
            scheduler.swap_parked_bytes(),
            0,
            "trace {trace_seed}: a drained scheduler parks nothing"
        );
        if eviction == EvictionMode::Recompute {
            assert_eq!(
                scheduler.swap_peak_bytes(),
                0,
                "trace {trace_seed}: recompute never touches the arena"
            );
        }
        if admission == AdmissionMode::WorstCaseReserve {
            assert_eq!(
                scheduler.preemption_events(),
                0,
                "trace {trace_seed}: worst-case reservation never preempts"
            );
        }
        preempted_completions += completions.iter().filter(|c| c.preemptions > 0).count() as u64;
    }
    // The suite's claim is only meaningful if preemption actually fired:
    // the bitwise check above must have covered preempted-and-resumed
    // sequences, not just uninterrupted ones.
    assert!(
        preempted_completions > 0,
        "no trace preempted — tighten the page budgets"
    );
}

/// A deterministic preemption workload (independent of the randomized
/// loop): a tight pool under a decode-heavy burst must preempt, resume,
/// and still complete every sequence bitwise equal to the reference.
#[test]
fn preempted_and_resumed_sequences_complete_bitwise() {
    let config = ServeConfig {
        max_in_flight: 4,
        kv_pages: 6,
        page_size: 2,
        arrival_window: 0,
        prefill_chunk: 2,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let (mut scheduler, plans) = build_scheduler(2, config);
    let spec = TraceSpec {
        sequences: 4,
        prompt: (2, 2),
        decode: (8, 8),
        dk: 4,
        arrival_gap: (0, 0),
        priority_classes: 1,
        seed: 0xFACE,
    };
    let trace: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans);
    let bound = starvation_bound(&trace, &config);
    let (completions, _) = drive(&mut scheduler, &trace, bound);
    check_completions(&scheduler, &trace, &completions);
    assert!(
        completions.iter().any(|c| c.preemptions > 0),
        "this workload must preempt: 4 sequences grow to 5 pages each in a 6-page pool"
    );
}

/// The same deterministic preemption workload under
/// [`EvictionMode::Swap`]: victims park their caches in the swap arena
/// and resume by re-adopting pages in O(1). The mode must be invisible —
/// every completion bitwise equal to the sequential reference *and*
/// field-for-field identical (admission tick, completion tick, preemption
/// count, output) to the evict-and-recompute run of the same trace.
#[test]
fn swapped_and_resumed_sequences_match_the_recompute_run_exactly() {
    let spec = TraceSpec {
        sequences: 4,
        prompt: (2, 2),
        decode: (8, 8),
        dk: 4,
        arrival_gap: (0, 0),
        priority_classes: 1,
        seed: 0xFACE,
    };
    let mut runs = Vec::new();
    for eviction in [EvictionMode::Recompute, EvictionMode::Swap] {
        let config = ServeConfig {
            max_in_flight: 4,
            kv_pages: 6,
            page_size: 2,
            arrival_window: 0,
            prefill_chunk: 2,
            admission: AdmissionMode::PagedUsage,
            eviction,
            swap_bytes: usize::MAX,
        };
        let (mut scheduler, plans) = build_scheduler(2, config);
        let trace: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans);
        let bound = starvation_bound(&trace, &config);
        let (completions, _) = drive(&mut scheduler, &trace, bound);
        check_completions(&scheduler, &trace, &completions);
        assert!(
            completions.iter().any(|c| c.preemptions > 0),
            "{eviction:?}: this workload must preempt"
        );
        if eviction == EvictionMode::Swap {
            assert!(
                scheduler.swap_peak_bytes() > 0,
                "swap mode with an unbounded arena must actually park bytes"
            );
            assert_eq!(
                scheduler.swap_fallbacks(),
                0,
                "an unbounded arena never refuses a park"
            );
            assert_eq!(scheduler.swap_parked_bytes(), 0, "drained ⇒ arena empty");
        }
        runs.push(completions);
    }
    let (recompute, swap) = (&runs[0], &runs[1]);
    assert_eq!(recompute.len(), swap.len());
    for (r, s) in recompute.iter().zip(swap) {
        assert_eq!(r.id, s.id, "eviction mode must not reorder completions");
        assert_eq!(
            r.admitted,
            s.admitted,
            "seq {}: admission tick differs",
            r.id.as_u64()
        );
        assert_eq!(
            r.completed,
            s.completed,
            "seq {}: completion tick differs",
            r.id.as_u64()
        );
        assert_eq!(
            r.preemptions,
            s.preemptions,
            "seq {}: preemption count differs",
            r.id.as_u64()
        );
        assert_eq!(
            r.output,
            s.output,
            "seq {}: output differs across modes",
            r.id.as_u64()
        );
    }
}

/// Swap mode with a zero-byte arena: every park is refused and falls back
/// to evict-and-recompute. The fallback is counted, the arena stays
/// untouched, and the run remains bitwise equal to the reference.
#[test]
fn zero_byte_swap_arena_falls_back_to_recompute_bitwise() {
    let config = ServeConfig {
        max_in_flight: 4,
        kv_pages: 6,
        page_size: 2,
        arrival_window: 0,
        prefill_chunk: 2,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Swap,
        swap_bytes: 0,
    };
    let (mut scheduler, plans) = build_scheduler(2, config);
    let spec = TraceSpec {
        sequences: 4,
        prompt: (2, 2),
        decode: (8, 8),
        dk: 4,
        arrival_gap: (0, 0),
        priority_classes: 1,
        seed: 0xFACE,
    };
    let trace: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans);
    let bound = starvation_bound(&trace, &config);
    let (completions, _) = drive(&mut scheduler, &trace, bound);
    check_completions(&scheduler, &trace, &completions);
    assert!(completions.iter().any(|c| c.preemptions > 0));
    assert!(
        scheduler.swap_fallbacks() > 0,
        "a zero-byte arena must refuse every park"
    );
    assert_eq!(
        scheduler.swap_peak_bytes(),
        0,
        "refused parks leave no trace in the arena"
    );
}

/// Adaptive-sparsity traces: randomized seeded workloads drawing each
/// sequence's pattern from the static plans, two causal routed plans, and
/// [`PatternChoice::Auto`] — one scheduler, one page pool. Every always-on
/// invariant of the headline loop holds, every completion (Auto sequences
/// checked under the plan the scheduler resolved at admission) is bitwise
/// its sequential reference, and across the loop at least one **routed**
/// sequence is preempted and resumed — eviction and resume must re-adopt
/// the same content routing, or the bitwise check would fail.
#[test]
fn routed_and_auto_traces_match_the_sequential_reference_bitwise() {
    let mut routed_preempted = 0u64;
    let mut auto_served = 0u64;
    for trace_seed in 0u64..16 {
        let mut knobs = StdRng::seed_from_u64(0xADA7 ^ trace_seed);
        let prompt_lo = 1 + knobs.gen_range(0..5);
        let prompt_hi = prompt_lo + knobs.gen_range(0..10);
        let decode_hi = knobs.gen_range(0..8);
        let spec = TraceSpec {
            sequences: 4 + knobs.gen_range(0..6),
            prompt: (prompt_lo, prompt_hi),
            decode: (0, decode_hi),
            dk: 2 + knobs.gen_range(0..6),
            arrival_gap: (0, knobs.gen_range(0..3) as u64),
            priority_classes: 1 + knobs.gen_range(0..3) as u8,
            seed: trace_seed.wrapping_mul(0x9E37_79B9) ^ 0x40E7,
        };
        let max_total = prompt_hi + decode_hi;
        let page_size = 1 + knobs.gen_range(0..5);
        // Tighter than the headline loop: just enough pages for the
        // largest single sequence plus a sliver, so routed sequences get
        // evicted mid-decode often.
        let kv_pages = max_total.div_ceil(page_size) + knobs.gen_range(0..spec.sequences);
        let config = ServeConfig {
            max_in_flight: 1 + knobs.gen_range(0..4),
            kv_pages,
            page_size,
            arrival_window: knobs.gen_range(0..3) as u64,
            prefill_chunk: 1 + knobs.gen_range(0..5),
            admission: AdmissionMode::PagedUsage,
            // Alternate eviction modes: a routed cache's grouping rides
            // the swapped cache, so swap resume must be bitwise too.
            eviction: if trace_seed % 2 == 1 {
                EvictionMode::Swap
            } else {
                EvictionMode::Recompute
            },
            swap_bytes: usize::MAX,
        };
        let (mut scheduler, patterns, routed) = build_adaptive_scheduler(2, config);
        let trace: Vec<TraceEvent<f64>> = generate_trace(&spec, &patterns);
        let bound = starvation_bound(&trace, &config);
        let (completions, _) = drive(&mut scheduler, &trace, bound);
        check_completions(&scheduler, &trace, &completions);
        assert!(scheduler.is_idle());
        assert_eq!(
            scheduler.kv_used_pages(),
            0,
            "trace {trace_seed}: all pages released"
        );
        for c in &completions {
            let resolved = c.target.plan().expect("a plan-only trace");
            if routed.contains(&resolved) && c.preemptions > 0 {
                routed_preempted += 1;
            }
            if trace[c.id.as_u64() as usize].request.pattern == PatternChoice::Auto {
                auto_served += 1;
            }
        }
    }
    assert!(
        routed_preempted > 0,
        "no routed sequence was evicted and resumed — tighten the page budgets"
    );
    assert!(
        auto_served > 0,
        "no Auto sequence was drawn — widen the pattern mix"
    );
}

/// The adaptive acceptance scenario: one tick flattens a batch mixing
/// three static patterns and routed sequences into **shared** launches —
/// eight sequences, two per pattern, admitted together and prefilled in a
/// single tick as four batched launches (one per distinct plan, not one
/// per sequence) — and every completion is bitwise the sequential
/// reference.
#[test]
fn one_tick_flattens_static_and_routed_sequences_into_shared_launches() {
    let config = ServeConfig {
        max_in_flight: 8,
        kv_pages: 32,
        page_size: 4,
        arrival_window: 0,
        prefill_chunk: 8,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let (mut scheduler, patterns, routed) = build_adaptive_scheduler(2, config);
    // Two sequences per pattern: the three static plans plus the bare
    // causal routed plan — 8 sequences over 4 distinct plans.
    let chosen = [patterns[0], patterns[1], patterns[2], routed[0].into()];
    let (prompt, decode) = (6usize, 2usize);
    let mut requests = Vec::new();
    for (i, &pattern) in chosen.iter().cycle().take(8).enumerate() {
        let (q, k, v) = init::qkv::<f64>(prompt + decode, 4, 0x51 + i as u64);
        requests.push(graph_attention::serve::ServeRequest {
            pattern,
            priority: 0,
            prompt,
            q,
            k,
            v,
        });
    }
    let ids: Vec<_> = requests
        .iter()
        .map(|r| scheduler.submit(r.clone()).unwrap())
        .collect();
    let report = scheduler.tick().unwrap();
    assert_eq!(report.admitted.len(), 8, "all eight admitted in one tick");
    assert_eq!(
        report.launches, 4,
        "8 sequences share 4 launches — one per distinct plan, static and routed alike"
    );
    assert_eq!(
        report.rows_computed,
        8 * prompt,
        "every prompt prefilled whole inside the shared launches"
    );
    let mut completions = Vec::new();
    for _ in 0..32 {
        completions.extend(scheduler.tick().unwrap().completed);
        if scheduler.is_idle() {
            break;
        }
    }
    assert_eq!(completions.len(), 8);
    for c in &completions {
        let idx = ids.iter().position(|&id| id == c.id).unwrap();
        let plan = c.target.plan().expect("a plan-only workload");
        let expect = sequential_reference(
            scheduler.engine(),
            scheduler.plan(plan),
            &requests[idx],
            config.prefill_chunk,
        )
        .unwrap();
        assert_eq!(c.output, expect, "sequence {} bitwise", c.id.as_u64());
    }
}

/// Acceptance A/B: on the same page budget at saturating load, paged
/// admission sustains strictly more concurrent in-flight sequences than
/// worst-case reservation — and both serve every sequence bitwise equal
/// to the reference.
#[test]
fn paged_admission_sustains_more_concurrency_than_reservation() {
    let spec = TraceSpec {
        sequences: 8,
        prompt: (4, 4),
        decode: (12, 12),
        dk: 4,
        arrival_gap: (0, 0),
        priority_classes: 1,
        seed: 0xAB,
    };
    let mut peaks = Vec::new();
    for admission in [AdmissionMode::PagedUsage, AdmissionMode::WorstCaseReserve] {
        let config = ServeConfig {
            max_in_flight: 6,
            // 8 pages × 4 tokens: each 16-token sequence needs 4 pages at
            // completion, so reservation fits two at a time while paged
            // admission packs six one-page prompts.
            kv_pages: 8,
            page_size: 4,
            arrival_window: 0,
            prefill_chunk: 4,
            admission,
            eviction: EvictionMode::Recompute,
            swap_bytes: usize::MAX,
        };
        let (mut scheduler, plans) = build_scheduler(2, config);
        let trace: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans);
        let bound = starvation_bound(&trace, &config);
        let (completions, peak) = drive(&mut scheduler, &trace, bound);
        check_completions(&scheduler, &trace, &completions);
        if admission == AdmissionMode::WorstCaseReserve {
            assert_eq!(scheduler.preemption_events(), 0);
        }
        peaks.push(peak);
    }
    let (paged, reserved) = (peaks[0], peaks[1]);
    assert_eq!(reserved, 2, "reservation caps concurrency at 8/4 pages");
    assert!(
        paged > reserved,
        "paged admission must sustain strictly more concurrent sequences \
         ({paged} vs {reserved})"
    );
}

/// Duplicate-shape burst: many equal-shape sequences in two classes,
/// arriving together — the case where the FIFO-completion half of
/// invariant 4 actually bites (and priority classes visibly reorder).
#[test]
fn equal_shape_bursts_complete_fifo_within_class_and_by_priority() {
    let config = ServeConfig {
        max_in_flight: 2,
        kv_pages: 10,
        page_size: 4,
        arrival_window: 0,
        prefill_chunk: 4,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let (mut scheduler, plans) = build_scheduler(2, config);
    let spec = TraceSpec {
        sequences: 10,
        prompt: (6, 6),
        decode: (3, 3),
        dk: 4,
        arrival_gap: (0, 0),
        priority_classes: 2,
        seed: 0xBEEF,
    };
    let trace: Vec<TraceEvent<f64>> = generate_trace(&spec, &plans);
    assert!(
        trace.iter().any(|e| e.request.priority == 0)
            && trace.iter().any(|e| e.request.priority == 1),
        "trace must exercise both classes"
    );
    let bound = starvation_bound(&trace, &config);
    let (completions, _) = drive(&mut scheduler, &trace, bound);
    check_completions(&scheduler, &trace, &completions);
    // With simultaneous arrivals and strict priority, every class-0
    // sequence is admitted no later than every class-1 sequence.
    let last_high = completions
        .iter()
        .filter(|c| c.priority == 0)
        .map(|c| c.admitted)
        .max()
        .unwrap();
    let first_low = completions
        .iter()
        .filter(|c| c.priority == 1)
        .map(|c| c.admitted)
        .min()
        .unwrap();
    assert!(
        last_high <= first_low,
        "class 0 must be fully admitted before class 1 starts"
    );
}

/// Invariant 5: a failed batched launch rolls every sequence's cache and
/// page table back and the scheduler keeps serving bitwise-correct
/// outputs once the offending sequence is cancelled. Also: over-capacity
/// submissions are rejected without creating or mutating any cache.
#[test]
fn launch_failure_rolls_back_and_over_capacity_is_rejected_cleanly() {
    let config = ServeConfig {
        max_in_flight: 8,
        kv_pages: 16,
        page_size: 8,
        arrival_window: 0,
        prefill_chunk: 4,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let mut scheduler: Scheduler<'static, f64> =
        Scheduler::new(AttentionEngine::with_threads(2), config).unwrap();
    let healthy = scheduler
        .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap())
        .unwrap();
    // A Global set pinned to a context length no sequence will ever have:
    // compiles fine, passes submission checks, fails request validation
    // inside the batched launch.
    let globals: &'static GlobalSet = Box::leak(Box::new(GlobalSet::new(97, vec![0])));
    let broken = scheduler
        .register_plan(
            AttentionPlan::single(AttentionKernel::Global { globals, n_sub: 0 }).unwrap(),
        )
        .unwrap();

    // Over-capacity submission: 129 tokens need 17 pages of 8; the whole
    // pool is 16. Rejected before any cache exists.
    let (q, k, v) = init::qkv::<f64>(129, 4, 1);
    let err = scheduler
        .submit(graph_attention::serve::ServeRequest {
            pattern: healthy.into(),
            priority: 0,
            prompt: 8,
            q,
            k,
            v,
        })
        .unwrap_err();
    assert!(matches!(
        err,
        ServeError::OverCapacity {
            need_pages: 17,
            total_pages: 16
        }
    ));
    assert_eq!(scheduler.kv_used_pages(), 0);
    assert!(scheduler.is_idle());

    // Two healthy sequences decode for a few ticks first.
    let mut healthy_ids = Vec::new();
    for seed in 0..2u64 {
        let (q, k, v) = init::qkv::<f64>(12, 4, 10 + seed);
        healthy_ids.push(
            scheduler
                .submit(graph_attention::serve::ServeRequest {
                    pattern: healthy.into(),
                    priority: 0,
                    prompt: 6,
                    q,
                    k,
                    v,
                })
                .unwrap(),
        );
    }
    for _ in 0..4 {
        scheduler.tick().unwrap();
        scheduler.assert_kv_invariants();
    }
    assert_eq!(scheduler.in_flight_len(), 2, "both mid-flight");

    // Now a sequence on the broken plan joins the batch.
    let (q, k, v) = init::qkv::<f64>(5, 4, 99);
    let broken_id = scheduler
        .submit(graph_attention::serve::ServeRequest {
            pattern: broken.into(),
            priority: 0,
            prompt: 3,
            q: q.clone(),
            k,
            v,
        })
        .unwrap();
    let used_before = scheduler.kv_used_pages();
    let tokens_before = scheduler.kv_used_tokens();
    let now_before = scheduler.now();
    // The failing tick is fully transactional: the broken sequence's
    // admission is undone (back to its queue, pages released), every
    // decode append is rolled back, and the error NAMES the offender.
    let err = scheduler.tick().unwrap_err();
    let ServeError::Launch { request, source: _ } = err else {
        panic!("expected a launch failure, got {err:?}");
    };
    assert_eq!(request, Some(broken_id), "the error must name the offender");
    assert_eq!(
        scheduler.kv_used_pages(),
        used_before,
        "a failed tick leaves no page trace, admissions included"
    );
    assert_eq!(scheduler.kv_used_tokens(), tokens_before);
    assert_eq!(
        scheduler.now(),
        now_before,
        "a failed tick does not advance time"
    );
    assert_eq!(scheduler.in_flight_len(), 2, "the offender was un-admitted");
    assert_eq!(scheduler.pending_len(), 1, "…and returned to its queue");
    scheduler.assert_kv_invariants();
    // Failure is stable: retrying re-admits, fails identically, and
    // un-admits again without growing state.
    assert!(scheduler.tick().is_err());
    assert_eq!(scheduler.kv_used_pages(), used_before);

    // Cancel the offender the error named; the survivors drain to
    // bitwise-correct outputs — possible only if every rollback was clean.
    assert!(scheduler.cancel(request.unwrap()));
    let mut completions = Vec::new();
    for _ in 0..64 {
        completions.extend(scheduler.tick().unwrap().completed);
        if scheduler.is_idle() {
            break;
        }
    }
    assert_eq!(completions.len(), 2);
    for c in &completions {
        assert!(healthy_ids.contains(&c.id));
        let seed = 10 + c.id.as_u64() - healthy_ids[0].as_u64();
        let (q, k, v) = init::qkv::<f64>(12, 4, seed);
        let request = graph_attention::serve::ServeRequest {
            pattern: healthy.into(),
            priority: 0,
            prompt: 6,
            q,
            k,
            v,
        };
        let expect = sequential_reference(
            scheduler.engine(),
            scheduler.plan(healthy),
            &request,
            config.prefill_chunk,
        )
        .unwrap();
        assert_eq!(
            c.output,
            expect,
            "survivor {} bitwise intact",
            c.id.as_u64()
        );
    }
    assert_eq!(scheduler.kv_used_pages(), 0);
}

/// What a failed tick must leave exactly as it found it.
fn rollback_snapshot(s: &Scheduler<'_, f64>) -> [u64; 8] {
    [
        s.kv_used_pages() as u64,
        s.kv_used_tokens() as u64,
        s.swap_parked_bytes() as u64,
        s.pending_len() as u64,
        s.parked_len() as u64,
        s.in_flight_len() as u64,
        s.preemption_events(),
        s.now(),
    ]
}

/// A tick's outcome with the outputs flattened to comparable values.
type TickTrace = (
    u64,
    Vec<u64>,
    Vec<u64>,
    Vec<u64>,
    usize,
    usize,
    Vec<(u64, u64, u32, Vec<f64>)>,
);

/// Tick `s` until idle, recording every report.
fn drain_reports(s: &mut Scheduler<'_, f64>) -> Vec<TickTrace> {
    let ids = |v: &[graph_attention::serve::RequestId]| v.iter().map(|id| id.as_u64()).collect();
    let mut out = Vec::new();
    for _ in 0..256 {
        if s.is_idle() {
            return out;
        }
        let r = s.tick().unwrap();
        s.assert_kv_invariants();
        out.push((
            r.tick,
            ids(&r.admitted),
            ids(&r.resumed),
            ids(&r.preempted),
            r.launches,
            r.rows_computed,
            r.completed
                .iter()
                .map(|c| {
                    (
                        c.id.as_u64(),
                        c.completed,
                        c.preemptions,
                        c.output.as_slice().to_vec(),
                    )
                })
                .collect(),
        ));
    }
    panic!("not drained after 256 ticks");
}

/// Invariant 5 with preemption in the failed tick: the tick evicts a
/// victim to fund an append and then fails a launch. Under both eviction
/// modes the victim must come back in place (its cache, its in-flight
/// position, its arena bytes), and every counter a tick moves must be
/// restored. After the offender is cancelled, the run must drain exactly
/// like a control run that cancelled the offender before the failed tick
/// — same admissions, evictions, resumes and completion order — and
/// bitwise equal to the sequential references.
#[test]
fn a_failed_tick_un_preempts_its_victims_in_place_in_both_eviction_modes() {
    for eviction in [EvictionMode::Recompute, EvictionMode::Swap] {
        let config = ServeConfig {
            max_in_flight: 4,
            kv_pages: 6,
            page_size: 2,
            arrival_window: 0,
            prefill_chunk: 2,
            admission: AdmissionMode::PagedUsage,
            eviction,
            swap_bytes: usize::MAX,
        };
        let mut runs = Vec::new();
        for fail_first in [true, false] {
            let mut s: Scheduler<'static, f64> =
                Scheduler::new(AttentionEngine::with_threads(2), config).unwrap();
            let healthy = s
                .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap())
                .unwrap();
            // Pinned to the offender's 6-token prompt: its prefill chunks
            // run, its first decode row (7 keys) cannot.
            let globals: &'static GlobalSet = Box::leak(Box::new(GlobalSet::new(6, vec![0])));
            let pinned = s
                .register_plan(
                    AttentionPlan::single(AttentionKernel::Global { globals, n_sub: 0 }).unwrap(),
                )
                .unwrap();
            let request = |plan, priority, prompt, total, seed| {
                let (q, k, v) = init::qkv::<f64>(total, 4, seed);
                graph_attention::serve::ServeRequest {
                    pattern: PatternChoice::from(plan),
                    priority,
                    prompt,
                    q,
                    k,
                    v,
                }
            };
            // b, c and a in submission order; a arrives at tick 2.
            let healthy_requests = [
                request(healthy, 1, 2, 5, 91),
                request(healthy, 2, 2, 8, 92),
                request(healthy, 0, 2, 3, 93),
            ];
            let x = s.submit(request(pinned, 0, 6, 7, 90)).unwrap();
            let b = s.submit(healthy_requests[0].clone()).unwrap();
            let c = s.submit(healthy_requests[1].clone()).unwrap();
            // Tick 0 admits x, b and c into 5 of the 6 pages; at tick 1
            // the decode appends of b and c need a page each and only c's
            // eviction funds b's.
            assert_eq!(s.tick().unwrap().admitted, vec![x, b, c]);
            assert_eq!(s.tick().unwrap().preempted, vec![c]);
            let a = s.submit(healthy_requests[2].clone()).unwrap();
            assert_eq!(s.tick().unwrap().admitted, vec![a], "in flight: x, b, a");
            s.assert_kv_invariants();
            if eviction == EvictionMode::Swap {
                assert!(s.swap_parked_bytes() > 0, "c sits in the arena");
            }
            // Tick 3: x, b and a each need a page, so b — the least urgent,
            // in the middle of the in-flight list — is evicted to fund
            // them, and then x's first decode launch fails. Retrying fails
            // the same way.
            if fail_first {
                let before = rollback_snapshot(&s);
                let peak_before = s.swap_peak_bytes();
                for _ in 0..2 {
                    let err = s.tick().unwrap_err();
                    let ServeError::Launch { request, .. } = err else {
                        panic!("{eviction:?}: expected a launch failure, got {err:?}");
                    };
                    assert_eq!(request, Some(x), "{eviction:?}: the offender is named");
                    assert_eq!(
                        rollback_snapshot(&s),
                        before,
                        "{eviction:?}: a failed tick with a preemption leaves no trace"
                    );
                    s.assert_kv_invariants();
                }
                if eviction == EvictionMode::Swap {
                    assert!(
                        s.swap_peak_bytes() > peak_before,
                        "the failed tick parked b in the arena before rolling back"
                    );
                }
            }
            assert!(s.cancel(x));
            let reports = drain_reports(&mut s);
            // b and a both finish on the next tick, and a tick retires in
            // in-flight order: b first only if it came back in place.
            let first: Vec<u64> = reports[0].6.iter().map(|done| done.0).collect();
            assert_eq!(
                first,
                vec![b.as_u64(), a.as_u64()],
                "{eviction:?}: the victim keeps its in-flight position"
            );
            let ids = [b, c, a];
            for (id, r) in ids.iter().zip(&healthy_requests) {
                let (_, _, _, out) = reports
                    .iter()
                    .flat_map(|t| &t.6)
                    .find(|done| done.0 == id.as_u64())
                    .expect("every survivor completes");
                let want =
                    sequential_reference(s.engine(), s.plan(healthy), r, config.prefill_chunk)
                        .unwrap();
                assert_eq!(out.as_slice(), want.as_slice(), "{eviction:?}: bitwise");
            }
            assert_eq!(s.kv_used_pages(), 0);
            assert_eq!(s.swap_parked_bytes(), 0);
            runs.push(reports);
        }
        assert_eq!(
            runs[0], runs[1],
            "{eviction:?}: the failed ticks must leave the schedule untouched"
        );
    }
}

/// Invariant 5 for decoder stacks: a tick that resumes a parked model
/// sequence and admits a model request fails on a later model's launch.
/// Every layer of every stack the earlier, successful model launch
/// appended to must be truncated back, the resumed sequence must park
/// again with its computed caches intact, and the admitted request must
/// return to the front of its queue, ahead of the request held behind it.
#[test]
fn a_failed_tick_truncates_every_layer_and_un_admits_model_requests() {
    let config = ServeConfig {
        max_in_flight: 4,
        kv_pages: 14,
        page_size: 2,
        arrival_window: 0,
        prefill_chunk: 4,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let mut runs = Vec::new();
    for fail_first in [true, false] {
        let mut s: Scheduler<'static, f64> =
            Scheduler::new(AttentionEngine::with_threads(2), config).unwrap();
        // Registered first, so its launches run before the failing model's.
        let healthy = s.register_model(
            DecoderModel::new(
                LayerPattern::parse("FSF").unwrap(),
                vec![
                    (
                        'F',
                        AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap(),
                    ),
                    (
                        'S',
                        AttentionPlan::single(AttentionKernel::Dilated1d { w: 3, r: 2 }).unwrap(),
                    ),
                ],
                12,
                3,
                4,
                0x5EED,
            )
            .unwrap(),
        );
        // A layer pinned to the offender's 2-token prompt: its prefill
        // runs, its first decode row cannot.
        let globals: &'static GlobalSet = Box::leak(Box::new(GlobalSet::new(2, vec![0])));
        let pinned = s.register_model(
            DecoderModel::new(
                LayerPattern::parse("G").unwrap(),
                vec![(
                    'G',
                    AttentionPlan::single(AttentionKernel::Global { globals, n_sub: 0 }).unwrap(),
                )],
                8,
                2,
                4,
                0xBAD,
            )
            .unwrap(),
        );
        let request = |model, priority, prompt, total, width, seed| ModelRequest {
            model,
            priority,
            prompt,
            x: init::gaussian_matrix(total, width, 1.0, seed),
        };
        let h_req = request(healthy, 0, 2, 4, 12, 71);
        let p_req = request(healthy, 1, 4, 6, 12, 72);
        let r_req = request(healthy, 1, 2, 3, 12, 73);
        let s_req = request(healthy, 1, 2, 3, 12, 74);
        let h = s.submit_model(h_req.clone()).unwrap();
        let p = s.submit_model(p_req.clone()).unwrap();
        assert_eq!(s.tick().unwrap().admitted, vec![h, p]);
        // Both first decode rows need 3 pages; only h's fit, so p parks
        // with its 3 layers of 4 tokens held inline.
        assert_eq!(s.tick().unwrap().preempted, vec![p]);
        let x = s.submit_model(request(pinned, 0, 2, 4, 8, 75)).unwrap();
        let report = s.tick().unwrap();
        assert_eq!(report.admitted, vec![x], "p cannot resume yet");
        assert_eq!(report.completed.len(), 1, "h finishes, freeing its pages");
        let r = s.submit_model(r_req.clone()).unwrap();
        let s_id = s.submit_model(s_req.clone()).unwrap();
        // Tick 3 resumes p and admits r (the pool has no room for s), runs
        // both through the healthy stack, which appends to all 3 layers of
        // each, and then x's first decode row fails.
        if fail_first {
            let before = rollback_snapshot(&s);
            let err = s.tick().unwrap_err();
            let ServeError::Launch { request, .. } = err else {
                panic!("expected a launch failure, got {err:?}");
            };
            assert_eq!(request, Some(x), "the offender is named");
            assert_eq!(
                rollback_snapshot(&s),
                before,
                "every layer truncated, p parked again, r un-admitted, the clock still"
            );
            s.assert_kv_invariants();
        }
        assert!(s.cancel(x));
        let reports = drain_reports(&mut s);
        assert_eq!(
            (reports[0].1.clone(), reports[0].2.clone()),
            (vec![r.as_u64()], vec![p.as_u64()]),
            "p resumes, then r is admitted from the queue front, ahead of s"
        );
        for (id, req) in [(p, &p_req), (r, &r_req), (s_id, &s_req)] {
            let (_, _, _, out) = reports
                .iter()
                .flat_map(|t| &t.6)
                .find(|done| done.0 == id.as_u64())
                .expect("every survivor completes");
            let want =
                sequential_model_reference(s.engine(), s.model(healthy), req, config.prefill_chunk)
                    .unwrap();
            assert_eq!(out.as_slice(), want.as_slice(), "bitwise");
        }
        assert_eq!(s.kv_used_pages(), 0);
        runs.push(reports);
    }
    assert_eq!(
        runs[0], runs[1],
        "the failed tick must leave the schedule untouched"
    );
}

/// Mixed plan + model traces: randomized seeded workloads drawing both
/// bare-plan sequences and decoder-stack sequences (single-layer and
/// 3-layer heterogeneous models) through one scheduler and one page pool —
/// page conservation spans every layer's table after every tick, and every
/// completion of either flavor is bitwise its sequential reference.
#[test]
fn mixed_model_traces_match_the_sequential_references_bitwise() {
    let mut model_preempted = 0u64;
    for trace_seed in 0u64..12 {
        let mut knobs = StdRng::seed_from_u64(0x40D3 ^ trace_seed);
        let prompt_lo = 1 + knobs.gen_range(0..4);
        let prompt_hi = prompt_lo + knobs.gen_range(0..8);
        let decode_hi = knobs.gen_range(0..6);
        let attn_spec = TraceSpec {
            sequences: 2 + knobs.gen_range(0..4),
            prompt: (prompt_lo, prompt_hi),
            decode: (0, decode_hi),
            dk: 1 + knobs.gen_range(0..6),
            arrival_gap: (0, knobs.gen_range(0..3) as u64),
            priority_classes: 1 + knobs.gen_range(0..3) as u8,
            seed: trace_seed.wrapping_mul(0x9E37_79B9) ^ 0xA77,
        };
        let model_spec = TraceSpec {
            sequences: 2 + knobs.gen_range(0..4),
            seed: attn_spec.seed ^ 0xD0DE,
            ..attn_spec
        };
        let max_total = prompt_hi + decode_hi;
        let page_size = 1 + knobs.gen_range(0..4);
        // Enough pages for the deepest single sequence (3 layers), tight
        // enough that a healthy share of traces preempt.
        let kv_pages = 3 * max_total.div_ceil(page_size) + knobs.gen_range(0..6);
        let config = ServeConfig {
            max_in_flight: 1 + knobs.gen_range(0..4),
            kv_pages,
            page_size,
            arrival_window: knobs.gen_range(0..3) as u64,
            prefill_chunk: 1 + knobs.gen_range(0..5),
            admission: if trace_seed % 4 == 3 {
                AdmissionMode::WorstCaseReserve
            } else {
                AdmissionMode::PagedUsage
            },
            // Alternate eviction modes: whole decoder stacks park and
            // resume through the arena as a unit.
            eviction: if trace_seed % 2 == 1 {
                EvictionMode::Swap
            } else {
                EvictionMode::Recompute
            },
            swap_bytes: usize::MAX,
        };
        let (mut scheduler, plans, models) = build_mixed_scheduler(2, config);
        let attn: Vec<TraceEvent<f64>> = generate_trace(&attn_spec, &plans);
        let model_trace: Vec<ModelTraceEvent<f64>> = generate_model_trace(&model_spec, &models);
        let bound = mixed_starvation_bound(&attn, &model_trace, &config);
        let completions = drive_mixed(&mut scheduler, &attn, &model_trace, bound);
        check_mixed_completions(&scheduler, &attn, &model_trace, &completions);
        assert!(scheduler.is_idle());
        assert_eq!(
            scheduler.kv_used_pages(),
            0,
            "trace {trace_seed}: every layer's pages released"
        );
        model_preempted += completions
            .iter()
            .filter(|c| c.target.model().is_some() && c.preemptions > 0)
            .count() as u64;
    }
    assert!(
        model_preempted > 0,
        "no model sequence preempted — tighten the page budgets"
    );
}

/// Deterministic multi-layer preempt-and-resume (the acceptance
/// scenario): two 3-layer sequences under a pool that can hold only one
/// of them at full length. The younger is evicted with all three layers'
/// caches retained, resumes after the elder drains, and both complete
/// bitwise equal to the sequential decoder-stack reference.
#[test]
fn preempted_multi_layer_sequences_resume_and_complete_bitwise() {
    let config = ServeConfig {
        max_in_flight: 2,
        kv_pages: 9,
        page_size: 2,
        arrival_window: 0,
        prefill_chunk: 2,
        admission: AdmissionMode::PagedUsage,
        eviction: EvictionMode::Recompute,
        swap_bytes: usize::MAX,
    };
    let (mut scheduler, _, models) = build_mixed_scheduler(2, config);
    let stacked = models[1].0;
    // Each sequence: 2-token prompt, 4 decode tokens → 3 pages/layer = 9
    // pages at completion; both admit on 3 pages total.
    let spec = TraceSpec {
        sequences: 2,
        prompt: (2, 2),
        decode: (4, 4),
        dk: 4,
        arrival_gap: (0, 0),
        priority_classes: 1,
        seed: 0xCAFE,
    };
    let model_trace: Vec<ModelTraceEvent<f64>> =
        generate_model_trace(&spec, &[(stacked, models[1].1)]);
    let bound = mixed_starvation_bound(&[], &model_trace, &config);
    let completions = drive_mixed(&mut scheduler, &[], &model_trace, bound);
    check_mixed_completions(&scheduler, &[], &model_trace, &completions);
    assert!(
        completions.iter().any(|c| c.preemptions > 0),
        "this workload must preempt a multi-layer sequence"
    );
    assert!(scheduler.preemption_events() >= 1);
    assert_eq!(scheduler.kv_used_pages(), 0);
}

/// The multi-layer preemption scenario under [`EvictionMode::Swap`]: the
/// victim's *whole decoder stack* (one cache per layer) parks in the
/// arena as a unit and re-adopts as a unit. Completions stay bitwise
/// equal to the sequential decoder-stack reference and identical to the
/// recompute run — all three layers' worth of bytes transit the arena.
#[test]
fn swapped_multi_layer_stacks_park_and_resume_as_a_unit() {
    let spec = TraceSpec {
        sequences: 2,
        prompt: (2, 2),
        decode: (4, 4),
        dk: 4,
        arrival_gap: (0, 0),
        priority_classes: 1,
        seed: 0xCAFE,
    };
    let mut runs = Vec::new();
    for eviction in [EvictionMode::Recompute, EvictionMode::Swap] {
        let config = ServeConfig {
            max_in_flight: 2,
            kv_pages: 9,
            page_size: 2,
            arrival_window: 0,
            prefill_chunk: 2,
            admission: AdmissionMode::PagedUsage,
            eviction,
            swap_bytes: usize::MAX,
        };
        let (mut scheduler, _, models) = build_mixed_scheduler(2, config);
        let stacked = models[1].0;
        let model_trace: Vec<ModelTraceEvent<f64>> =
            generate_model_trace(&spec, &[(stacked, models[1].1)]);
        let bound = mixed_starvation_bound(&[], &model_trace, &config);
        let completions = drive_mixed(&mut scheduler, &[], &model_trace, bound);
        check_mixed_completions(&scheduler, &[], &model_trace, &completions);
        assert!(
            completions.iter().any(|c| c.preemptions > 0),
            "{eviction:?}: this workload must preempt a multi-layer sequence"
        );
        if eviction == EvictionMode::Swap {
            // The victim is a 3-layer f64 stack: its park must move a
            // stack's worth of bytes, not a single layer's.
            assert!(
                scheduler.swap_peak_bytes() > 0,
                "swap mode must park the evicted stack"
            );
            assert_eq!(scheduler.swap_fallbacks(), 0);
            assert_eq!(scheduler.swap_parked_bytes(), 0, "drained ⇒ arena empty");
        }
        runs.push(completions);
    }
    let (recompute, swap) = (&runs[0], &runs[1]);
    assert_eq!(recompute.len(), swap.len());
    for (r, s) in recompute.iter().zip(swap) {
        assert_eq!(r.id, s.id);
        assert_eq!(
            r.completed,
            s.completed,
            "seq {}: completion tick differs",
            r.id.as_u64()
        );
        assert_eq!(r.preemptions, s.preemptions);
        assert_eq!(
            r.output,
            s.output,
            "seq {}: output differs across modes",
            r.id.as_u64()
        );
    }
}
