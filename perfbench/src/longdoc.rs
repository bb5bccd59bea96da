//! The `longdoc` workload: one 2^20-token BigBird-style mask, dk 64, f32.
//! Each pass is one `AttentionEngine::run`: one launch of about 147 M edges,
//! with no scheduler, projection or paging, so the row kernel and the
//! parallel split carry nearly all of the time.
//!
//! The mask is `Local{n}` + `Global` (evenly spaced tokens, minus the local
//! window) + a CSR part holding a few random keys per row, minus local ∪
//! global. The random part is `RandomPerRow` through `Difference`, which
//! costs O(k) per row to build.

use crate::report::Outcome;
use crate::rng::{gaussian_matrix_par, Rng};
use crate::serve::THREADS;
use crate::spans::Tracer;
use crate::stats::{median, percentile, ratio};
use gpa_core::{AttentionEngine, AttentionKernel, AttentionPlan};
use gpa_masks::{
    Difference, GlobalMinusLocal, GlobalSet, LocalWindow, MaskPattern, RandomPerRow, Union,
};
use gpa_parallel::{parallel_for_stats, PoolReport};
use gpa_sparse::CsrMask;
use gpa_tensor::Matrix;
use std::time::{Duration, Instant};

const L: usize = 1 << 20;
const DK: usize = 64;
const WINDOW: usize = 64;
const GLOBALS: usize = 4;
const RANDOM_PER_ROW: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rows checked against an f64 softmax after every pass (plus one global
/// row, whose neighbour set is the whole document).
const SAMPLED_ROWS: usize = 256;
/// f32 online softmax against an f64 reference: |got − want| must stay
/// within ATOL + RTOL · |want| for every element of a sampled row.
/// The bound is loose enough for the global rows, whose f32 sums run
/// over the whole document.
const ATOL: f64 = 1e-4;
const RTOL: f64 = 1e-3;

struct Masks {
    globals: GlobalSet,
    random: CsrMask,
    /// Edges of local ∪ global ∪ random.
    nnz: u64,
}

fn build_masks(seed: u64) -> Masks {
    let globals = GlobalSet::evenly_spaced(L, GLOBALS);
    let global = GlobalMinusLocal::new(globals.clone(), WINDOW);
    let global_nnz = global.nnz();
    let covered = Union::new(LocalWindow::new(L, WINDOW), global);
    let random = Difference::new(RandomPerRow::new(L, RANDOM_PER_ROW, seed), covered).to_csr();
    let nnz = LocalWindow::new(L, WINDOW).nnz() + global_nnz + random.nnz();
    Masks {
        globals,
        random,
        nnz: nnz as u64,
    }
}

fn kernels(masks: &Masks) -> [AttentionKernel<'_>; 3] {
    [
        AttentionKernel::Local { n: WINDOW },
        AttentionKernel::Global {
            globals: &masks.globals,
            n_sub: WINDOW,
        },
        AttentionKernel::Csr(&masks.random),
    ]
}

/// Engine construction and mask construction (timed as one set-up with
/// the plan compile that follows).
fn engine(threads: usize, count_work: bool) -> AttentionEngine {
    AttentionEngine::builder()
        .threads(threads)
        .count_work(count_work)
        .build()
}

struct Inputs {
    q: Matrix<f32>,
    k: Matrix<f32>,
    v: Matrix<f32>,
}

/// Every sampled row of `o` against an f64 softmax over the row's
/// neighbour set; the sets of the three parts must be disjoint.
fn check_rows(masks: &Masks, x: &Inputs, o: &Matrix<f32>, rows: &[usize]) -> Result<(), String> {
    let global = GlobalMinusLocal::new(masks.globals.clone(), WINDOW);
    let scale = 1.0 / (DK as f64).sqrt();
    let mut cols: Vec<u32> = Vec::new();
    for &i in rows {
        cols.clear();
        let (lo, hi) = LocalWindow::row_range(L, WINDOW, i);
        cols.extend((lo..=hi).map(|j| j as u32));
        global.append_row(i, &mut cols);
        cols.extend_from_slice(masks.random.row(i));
        cols.sort_unstable();
        if cols.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!("row {i}: mask parts overlap"));
        }
        let qi = x.q.row(i);
        let scores: Vec<f64> = cols
            .iter()
            .map(|&j| {
                let kj = x.k.row(j as usize);
                qi.iter()
                    .zip(kj)
                    .map(|(&a, &b)| a as f64 * b as f64)
                    .sum::<f64>()
                    * scale
            })
            .collect();
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut want = [0.0f64; DK];
        let mut total = 0.0;
        for (&j, s) in cols.iter().zip(&scores) {
            let w = (s - max).exp();
            total += w;
            for (acc, &v) in want.iter_mut().zip(x.v.row(j as usize)) {
                *acc += w * v as f64;
            }
        }
        for (c, (&got, want)) in o.row(i).iter().zip(&want).enumerate() {
            let want = want / total;
            if (got as f64 - want).abs() > ATOL + RTOL * want.abs() {
                return Err(format!(
                    "row {i} col {c}: got {got}, f64 softmax gives {want}"
                ));
            }
        }
    }
    Ok(())
}

struct Pass {
    wall_s: f64,
    ok: bool,
}

/// One pass, then its checks (outside the timed region).
fn pass(
    engine: &AttentionEngine,
    plan: &AttentionPlan<'_>,
    masks: &Masks,
    x: &Inputs,
    rows: &[usize],
    out: &mut Outcome,
) -> Pass {
    let t = Instant::now();
    let result = engine.run(plan, &x.q, &x.k, &x.v);
    let wall_s = t.elapsed().as_secs_f64();
    out.attempted += 1;
    let ok = match result {
        Ok(o) => match check_rows(masks, x, &o, rows) {
            Ok(()) => true,
            Err(e) => {
                out.errors.push(e);
                false
            }
        },
        Err(e) => {
            out.errors.push(format!("run failed: {e}"));
            false
        }
    };
    if !ok {
        out.failed += 1;
    }
    Pass { wall_s, ok }
}

pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Outcome) {
    let x = Inputs {
        q: gaussian_matrix_par(L, DK, seed ^ 0x51, THREADS),
        k: gaussian_matrix_par(L, DK, seed ^ 0x52, THREADS),
        v: gaussian_matrix_par(L, DK, seed ^ 0x53, THREADS),
    };
    let mut rng = Rng::stream(seed, 2);
    let mut rows: Vec<usize> = (0..SAMPLED_ROWS).map(|_| rng.below(L)).collect();
    rows.push(GlobalSet::evenly_spaced(L, GLOBALS).indices()[1] as usize);
    let mask_seed = Rng::stream(seed, 3).next_u64();
    let budget = Duration::from_secs_f64(seconds);
    if traced {
        traced_run(mask_seed, &x, &rows, budget, out);
        return;
    }

    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let e = engine(THREADS, false);
        let masks = build_masks(mask_seed);
        let plan_ok = e.compile(&kernels(&masks)).is_ok();
        setups.push(t.elapsed().as_secs_f64());
        if !plan_ok {
            out.errors.push("the longdoc plan does not compile".into());
            return;
        }
        built = Some((e, masks));
    }
    let (engine, masks) = built.expect("at least one set-up");
    let plan = engine.compile(&kernels(&masks)).expect("compiled above");
    out.count("masks.nnz", masks.nnz);

    let began = Instant::now();
    let mut walls = Vec::new();
    loop {
        let p = pass(&engine, &plan, &masks, &x, &rows, out);
        walls.push(p.wall_s);
        if began.elapsed() >= budget || !p.ok {
            break;
        }
    }
    let n = walls.len();
    let note = format!("{n} passes");
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let per_row: Vec<f64> = ms.iter().map(|m| m / L as f64).collect();
    let wall = median(&walls);
    out.set(
        "ttft_p50_ms",
        median(&ms),
        format!("{note}; a document's rows all arrive when its pass returns"),
    );
    out.set("ttft_p90_ms", percentile(&ms, 90.0), &note);
    out.set(
        "itl_p50_ms",
        median(&per_row),
        format!("{note}; no generation: pass time per output row"),
    );
    out.set("itl_p99_ms", percentile(&per_row, 99.0), &note);
    out.set(
        "tok_s",
        ratio(L as f64, wall),
        format!("median of {note}, {L} rows each"),
    );
    out.set(
        "edges_per_s",
        ratio(masks.nnz as f64, wall),
        format!("median of {note}, {} edges each", masks.nnz),
    );
    out.set(
        "setup_s",
        median(&setups),
        format!("median of {SETUPS} set-ups"),
    );
}

/// Per-layer figures: cycles of an untraced and a traced pass, then one
/// 1-thread pass for `parallel.scaling`.
fn traced_run(mask_seed: u64, x: &Inputs, rows: &[usize], budget: Duration, out: &mut Outcome) {
    let began = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::new();
    let mut steals = Vec::new();
    let mut parks = Vec::new();
    loop {
        {
            let e = engine(THREADS, false);
            let masks = build_masks(mask_seed);
            let plan = e.compile(&kernels(&masks)).expect("a valid plan");
            untraced.push(pass(&e, &plan, &masks, x, rows, out).wall_s);
        }
        let root = tracer.open("longdoc.cycle", None, None);
        let span = tracer.open("engine.build", Some(root), None);
        let e = engine(THREADS, true);
        tracer.close(span);
        let span = tracer.open("masks.build", Some(root), None);
        let masks = build_masks(mask_seed);
        tracer.close(span);
        let span = tracer.open("engine.compile", Some(root), None);
        let plan = e.compile(&kernels(&masks)).expect("a valid plan");
        tracer.close(span);
        let before: PoolReport = e.pool().metrics().report();
        let span = tracer.open("engine.run", Some(root), None);
        let result = e.run(&plan, &x.q, &x.k, &x.v);
        tracer.close(span);
        traced.push(tracer.get(span).dur_ns() as f64 * 1e-9);
        let after = e.pool().metrics().report();
        steals
            .push((after.steals + after.range_steals - before.steals - before.range_steals) as f64);
        parks.push((after.parks - before.parks) as f64);
        tracer.close(root);
        out.attempted += 1;
        let checked = result
            .map_err(|e| e.to_string())
            .and_then(|o| check_rows(&masks, x, &o, rows));
        if let Err(e) = checked {
            out.failed += 1;
            out.errors.push(e);
        }
        let work = e.work_report().expect("counting is on");
        out.gate("masks.nnz", masks.nnz);
        out.gate("kernel.edges", work.dot_products);
        if !work.is_work_optimal(masks.nnz) {
            out.errors.push(format!(
                "not work-optimal: {} edges computed for a mask of {} (Section IV-B)",
                work.dot_products, masks.nnz
            ));
        }
        out.set("kernel.output_updates", work.output_updates as f64, "exact");
        if began.elapsed() >= budget || !out.errors.is_empty() {
            break;
        }
    }
    let one = {
        let e = engine(1, false);
        let masks = build_masks(mask_seed);
        let plan = e.compile(&kernels(&masks)).expect("a valid plan");
        pass(&e, &plan, &masks, x, rows, out).wall_s
    };
    let two = median(&untraced);
    let run_s = median(&traced);
    let edges = out.counters.get("kernel.edges").copied().unwrap_or(0) as f64;
    let n = traced.len();
    let note = format!("median of {n} traced passes");
    out.set(
        "engine.batch_us.p50",
        run_s * 1e6,
        format!("{note}; the pass is one launch"),
    );
    out.set("engine.rows_per_launch", L as f64, "exact");
    out.set("engine.run_s", run_s, &note);
    out.set(
        "engine.compile_s",
        median(&tracer.durations_s("engine.compile")),
        &note,
    );
    out.set("kernel.edges_per_row", edges / L as f64, "exact");
    out.set(
        "kernel.edge_rate",
        ratio(edges, run_s) * 1e-6,
        format!("{note}, over the run span"),
    );
    let noop = {
        let e = engine(THREADS, false);
        let samples: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(parallel_for_stats(e.pool(), L, e.schedule(), |r| {
                    std::hint::black_box(r);
                }));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples)
    };
    out.set(
        "parallel.noop_launch_us",
        noop,
        format!("median of 200 launches over {L} rows"),
    );
    out.set(
        "parallel.launch_share",
        ratio(noop * 1e-6, run_s),
        "one launch per pass",
    );
    out.set(
        "parallel.scaling",
        ratio(one, two),
        format!("1-thread pass {one:.4} s over 2-thread pass {two:.4} s"),
    );
    out.set("parallel.steals_per_launch", median(&steals), &note);
    out.set("parallel.parks_per_launch", median(&parks), &note);
    out.set(
        "masks.build_s",
        median(&tracer.durations_s("masks.build")),
        &note,
    );
    out.set(
        "trace.overhead",
        ratio(run_s, two) - 1.0,
        "traced pass (work counting on) over untraced pass",
    );
    out.trace = Some(tracer);
}
