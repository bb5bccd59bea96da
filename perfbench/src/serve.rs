//! The serving workloads, `serve_chat` and `serve_stack`: an open loop in
//! virtual time over `gpa_serve::Scheduler`.
//!
//! Each request is due at a fixed tick and is submitted just before that
//! tick runs, whatever has completed, so every run has the same batch
//! composition. A request's latency is the sum of the wall times of the
//! ticks it spans; a tick's wall time runs from the start of its loop
//! iteration (submits included) to the return of `tick`.

use crate::progress::{self, Progress, Shape, TickEvents, Unit};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::spans::{SpanId, Tracer};
use crate::stats::{mean, median, percentile, ratio};
use gpa_core::{
    AttentionEngine, AttentionKernel, AttentionRequest, KvCache, PagePool, SeqId, SwapArena,
    SwapTicket,
};
use gpa_model::{DecoderModel, LayerPattern, ModelKvState};
use gpa_parallel::{parallel_for_stats, PoolReport, WorkReport};
use gpa_serve::{
    sequential_model_reference, sequential_reference, AdmissionMode, Completion, EvictionMode,
    ModelId, ModelRequest, PatternChoice, PlanId, Scheduler, ServeConfig, ServeRequest,
    ServeTarget,
};
use gpa_tensor::Matrix;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Engine threads: the benchmark box has 2 cores. Set explicitly, never
/// read from `GPA_THREADS` or the library default.
pub const THREADS: usize = 2;
/// A replay that has not drained after this many ticks has failed.
const MAX_TICKS: usize = 200_000;
/// Seed of the routed plan's router and of the decoder's weights: fixed
/// parts of the system under test, not of the workload.
const ROUTER_SEED: u64 = 0x5EED;
const MODEL_SEED: u64 = 0x00DE_C0DE;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Short requests over three registered plans, most of them decode.
    Chat,
    /// Requests through one 12-layer decoder stack.
    Stack,
}

/// How due ticks are spaced.
#[derive(Clone, Copy)]
enum Arrivals {
    /// Gaps uniform over `0..=max` ticks.
    Uniform(usize),
    /// One request every `n` ticks.
    Every(usize),
}

struct Spec {
    kind: Kind,
    requests: usize,
    /// Prompt length range, inclusive; drawn log-uniform when `log_prompt`.
    prompt: (usize, usize),
    log_prompt: bool,
    /// Generated tokens, inclusive range.
    generated: (usize, usize),
    arrivals: Arrivals,
    /// Every `urgent_every`-th request, in a seeded order, is in priority
    /// class 0; the rest are in class 1.
    urgent_every: usize,
    /// Key / model width of the inputs.
    width: usize,
    config: ServeConfig,
}

/// `serve_chat` arrives below what its 64 in-flight slots can serve: at a
/// 1-tick mean gap the offered load is about twice capacity, the backlog
/// grows for the whole trace, and the time to first token measures queue
/// order more than the system (its median moved 4× across seeds). Its pool
/// is as tight as it can be while the p90 time to first token stays inside
/// one prefill bucket on every seed tried.
///
/// `serve_stack` arrives every 2 ticks, which saturates its 16 slots: every
/// tick runs a full batch, which makes its tick times far steadier than
/// half-empty ones. Its requests arrive evenly, so the wait is set by the
/// work queued ahead rather than by clumps, and a quarter of them are
/// urgent, so the median and p90 wait fall among class-1 requests instead
/// of on the edge between the classes. That wait is the service time of the
/// requests ahead; with 96 requests the median rested on a few dozen of them
/// and moved 23% across seeds, so the trace holds 288.
fn spec(kind: Kind) -> Spec {
    match kind {
        Kind::Chat => Spec {
            kind,
            requests: 1024,
            prompt: (16, 512),
            log_prompt: true,
            generated: (32, 256),
            arrivals: Arrivals::Uniform(10),
            urgent_every: 2,
            width: 32,
            config: ServeConfig {
                max_in_flight: 64,
                kv_pages: 620,
                page_size: 16,
                arrival_window: 0,
                prefill_chunk: 64,
                admission: AdmissionMode::PagedUsage,
                eviction: EvictionMode::Recompute,
                swap_bytes: 0,
            },
        },
        Kind::Stack => Spec {
            kind,
            requests: 288,
            prompt: (32, 256),
            log_prompt: false,
            generated: (16, 96),
            arrivals: Arrivals::Every(2),
            urgent_every: 4,
            width: 64,
            config: ServeConfig {
                max_in_flight: 16,
                kv_pages: 1500,
                page_size: 16,
                arrival_window: 0,
                prefill_chunk: 64,
                admission: AdmissionMode::PagedUsage,
                eviction: EvictionMode::Swap,
                // Holds every victim: the pool's whole capacity in K/V
                // bytes is far below this.
                swap_bytes: usize::MAX,
            },
        },
    }
}

fn chat_kernels() -> [AttentionKernel<'static>; 3] {
    [
        AttentionKernel::Local { n: 16 },
        AttentionKernel::Dilated1d { w: 8, r: 2 },
        AttentionKernel::Routed {
            groups: 8,
            seed: ROUTER_SEED,
            causal: true,
        },
    ]
}

const STACK_PATTERN: &str = "FFFSSSSSSFFF";
const STACK_HEADS: usize = 4;
const STACK_DK: usize = 16;

/// One generated request.
struct Req {
    due: usize,
    priority: u8,
    prompt: usize,
    total: usize,
    /// Chat only: index of the registered plan, or `None` for `Auto`.
    plan: Option<usize>,
    /// Chat: q, k, v. Stack: the embedding rows x.
    inputs: Vec<Matrix<f32>>,
}

impl Req {
    fn shape(&self) -> Shape {
        Shape {
            priority: self.priority,
            prompt: self.prompt,
            total: self.total,
        }
    }
}

fn generate(spec: &Spec, seed: u64) -> Vec<Req> {
    let n = spec.requests;
    let mut rng = Rng::stream(seed, 1);
    let u_prompt = rng.stratified(n);
    let u_gen = rng.stratified(n);
    let patterns = rng.permutation(n);
    let classes = rng.permutation(n);
    let draw = |(lo, hi): (usize, usize), u: f64, log: bool| -> usize {
        let x = if log {
            ((lo as f64).ln() + u * ((hi as f64).ln() - (lo as f64).ln())).exp()
        } else {
            lo as f64 + u * (hi - lo + 1) as f64
        };
        (x as usize).clamp(lo, hi)
    };
    let mut due = 0;
    (0..n)
        .map(|i| {
            if i > 0 {
                due += match spec.arrivals {
                    Arrivals::Uniform(max) => rng.below(max + 1),
                    Arrivals::Every(n) => n,
                };
            }
            let prompt = draw(spec.prompt, u_prompt[i], spec.log_prompt);
            let total = prompt + draw(spec.generated, u_gen[i], false);
            let mut data = Rng::stream(seed, 1000 + i as u64);
            let (plan, inputs) = match spec.kind {
                Kind::Chat => {
                    let plan = match patterns[i] % 4 {
                        0 => None,
                        p => Some(p - 1),
                    };
                    let qkv = (0..3)
                        .map(|_| data.gaussian_matrix(total, spec.width))
                        .collect();
                    (plan, qkv)
                }
                Kind::Stack => (None, vec![data.gaussian_matrix(total, spec.width)]),
            };
            Req {
                due,
                priority: u8::from(!classes[i].is_multiple_of(spec.urgent_every)),
                prompt,
                total,
                plan,
                inputs,
            }
        })
        .collect()
}

/// A scheduler with its plans (chat) or its model (stack) registered.
struct Served {
    sched: Scheduler<'static, f32>,
    plans: Vec<PlanId>,
    model: Option<ModelId>,
}

/// Build engine and scheduler, compile and register plans, build the
/// model's weights: everything `setup_s` counts.
fn setup(spec: &Spec, threads: usize, count_work: bool, mut tr: Option<&mut Tracer>) -> Served {
    let root = tr.as_mut().map(|t| t.open("setup", None, None));
    let engine = AttentionEngine::builder()
        .threads(threads)
        .count_work(count_work)
        .build();
    let mut sched = Scheduler::new(engine, spec.config).expect("a valid serving config");
    let mut compile = |sched: &Scheduler<'static, f32>, k: AttentionKernel<'static>| {
        let span = tr.as_mut().map(|t| t.open("engine.compile", root, None));
        let plan = sched.engine().compile(&[k]).expect("a valid kernel");
        if let (Some(t), Some(s)) = (tr.as_mut(), span) {
            t.close(s);
        }
        plan
    };
    let served = match spec.kind {
        Kind::Chat => {
            let mut plans = Vec::new();
            for k in chat_kernels() {
                let plan = compile(&sched, k);
                plans.push(sched.register_plan(plan).expect("a composable plan"));
            }
            Served {
                sched,
                plans,
                model: None,
            }
        }
        Kind::Stack => {
            let full = compile(&sched, AttentionKernel::Local { n: 32 });
            let sparse = compile(&sched, AttentionKernel::Dilated1d { w: 32, r: 2 });
            let model = DecoderModel::new(
                LayerPattern::parse(STACK_PATTERN).expect("a valid pattern"),
                vec![('F', full), ('S', sparse)],
                spec.width,
                STACK_HEADS,
                STACK_DK,
                MODEL_SEED,
            )
            .expect("a valid model");
            let model = Some(sched.register_model(model));
            Served {
                sched,
                plans: Vec::new(),
                model,
            }
        }
    };
    if let (Some(t), Some(s)) = (tr.as_mut(), root) {
        t.close(s);
    }
    served.sched.engine().reset_work();
    served
}

enum Submission {
    Plan(ServeRequest<f32>),
    Model(ModelRequest<f32>),
}

/// The requests in submittable form, copied before the loop starts so the
/// copies are not timed.
fn prepare(served: &Served, reqs: &[Req]) -> Vec<Option<Submission>> {
    reqs.iter()
        .map(|r| {
            Some(match served.model {
                None => Submission::Plan(ServeRequest {
                    pattern: r
                        .plan
                        .map_or(PatternChoice::Auto, |p| served.plans[p].into()),
                    priority: r.priority,
                    prompt: r.prompt,
                    q: r.inputs[0].clone(),
                    k: r.inputs[1].clone(),
                    v: r.inputs[2].clone(),
                }),
                Some(model) => Submission::Model(ModelRequest {
                    model,
                    priority: r.priority,
                    prompt: r.prompt,
                    x: r.inputs[0].clone(),
                }),
            })
        })
        .collect()
}

/// Scheduler gauges after a tick (traced runs only).
#[derive(Clone, Copy)]
struct Gauges {
    in_flight: usize,
    used_pages: usize,
    used_tokens: usize,
    work: WorkReport,
    pool: PoolReport,
}

fn gauges(sched: &Scheduler<'_, f32>) -> Gauges {
    Gauges {
        in_flight: sched.in_flight_len(),
        used_pages: sched.kv_used_pages(),
        used_tokens: sched.kv_used_tokens(),
        work: sched.engine().work_report().unwrap_or(WorkReport {
            dot_products: 0,
            output_updates: 0,
            neighbor_searches: 0,
        }),
        pool: sched.engine().pool().metrics().report(),
    }
}

/// Everything one pass of the open loop recorded.
struct Run {
    start: Vec<Instant>,
    end: Vec<Instant>,
    events: Vec<TickEvents>,
    launches: Vec<usize>,
    rows: Vec<usize>,
    /// Completions by request index.
    done: Vec<Option<Completion<f32>>>,
    /// Requests the scheduler refused, or left unfinished by an error.
    failed: usize,
    error: Option<String>,
    /// Traced runs: the gauges before the first tick and after each.
    gauges: Vec<Gauges>,
    /// Traced runs: the span of each tick.
    tick_spans: Vec<SpanId>,
    preemptions: u64,
    swap_peak_bytes: u64,
    swap_fallbacks: u64,
}

impl Run {
    /// `cum[t]`: summed wall time of ticks `0..t`, in seconds. The loop's
    /// own bookkeeping between ticks is in no tick.
    fn cum(&self) -> Vec<f64> {
        let mut cum = Vec::with_capacity(self.start.len() + 1);
        let mut total = 0.0;
        cum.push(total);
        for (a, b) in self.start.iter().zip(&self.end) {
            total += (*b - *a).as_secs_f64();
            cum.push(total);
        }
        cum
    }

    /// Summed wall time of every tick, first submit to last completion.
    fn wall_s(&self) -> f64 {
        self.cum().last().copied().unwrap_or(0.0)
    }
}

/// One pass of the open loop over a fresh scheduler.
fn open_loop(
    served: &mut Served,
    reqs: &[Req],
    mut subs: Vec<Option<Submission>>,
    mut tr: Option<&mut Tracer>,
) -> Run {
    let n = reqs.len();
    let mut run = Run {
        start: Vec::new(),
        end: Vec::new(),
        events: Vec::new(),
        launches: Vec::new(),
        rows: Vec::new(),
        done: (0..n).map(|_| None).collect(),
        failed: 0,
        error: None,
        gauges: Vec::new(),
        tick_spans: Vec::new(),
        preemptions: 0,
        swap_peak_bytes: 0,
        swap_fallbacks: 0,
    };
    // Scheduler ids are dense over accepted requests.
    let mut id_to_req: Vec<usize> = Vec::with_capacity(n);
    let sched = &mut served.sched;
    if tr.is_some() {
        run.gauges.push(gauges(sched));
    }
    let mut next = 0;
    while next < n || !sched.is_idle() {
        if run.start.len() >= MAX_TICKS {
            run.error = Some(format!("not drained after {MAX_TICKS} ticks"));
            break;
        }
        let start = Instant::now();
        let step = tr.as_mut().map(|t| t.open("serve.step", None, None));
        while next < n && reqs[next].due as u64 <= sched.now() {
            let span = tr
                .as_mut()
                .map(|t| t.open("serve.submit", step, Some(next as u64)));
            let result = match subs[next].take().expect("each request is submitted once") {
                Submission::Plan(r) => sched.submit(r),
                Submission::Model(r) => sched.submit_model(r),
            };
            if let (Some(t), Some(s)) = (tr.as_mut(), span) {
                t.close(s);
            }
            match result {
                Ok(_) => id_to_req.push(next),
                Err(_) => run.failed += 1,
            }
            next += 1;
        }
        let span = tr.as_mut().map(|t| t.open("serve.tick", step, None));
        let result = sched.tick();
        let end = Instant::now();
        if let (Some(t), Some(s), Some(st)) = (tr.as_mut(), span, step) {
            t.close(s);
            t.close(st);
            run.tick_spans.push(s);
        }
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                run.error = Some(format!("tick {} failed: {e}", sched.now()));
                break;
            }
        };
        if tr.is_some() {
            run.gauges.push(gauges(sched));
        }
        let req = |id: &gpa_serve::RequestId| id_to_req[id.as_u64() as usize];
        run.start.push(start);
        run.end.push(end);
        run.launches.push(report.launches);
        run.rows.push(report.rows_computed);
        let mut ev = TickEvents {
            admitted: report.admitted.iter().map(req).collect(),
            resumed: report.resumed.iter().map(req).collect(),
            preempted: report.preempted.iter().map(req).collect(),
            completed: Vec::with_capacity(report.completed.len()),
        };
        for c in report.completed {
            let r = req(&c.id);
            ev.completed.push(r);
            run.done[r] = Some(c);
        }
        run.events.push(ev);
    }
    if run.error.is_some() {
        run.failed = run.done.iter().filter(|d| d.is_none()).count();
    }
    run.preemptions = sched.preemption_events();
    run.swap_peak_bytes = sched.swap_peak_bytes() as u64;
    run.swap_fallbacks = sched.swap_fallbacks();
    run
}

/// Resolved plan index of each chat request (from `Completion.target`).
fn targets(served: &Served, run: &Run) -> Vec<usize> {
    run.done
        .iter()
        .map(|c| match c.as_ref().map(|c| c.target) {
            Some(ServeTarget::Plan(id)) => served.plans.iter().position(|&p| p == id).unwrap_or(0),
            _ => 0,
        })
        .collect()
}

/// The sequential reference output of every request, and the edges the
/// whole workload computes (counted on the reference engines). Two
/// 1-thread engines split the requests between them.
fn references(
    spec: &Spec,
    served: &Served,
    reqs: &[Req],
    plans: &[usize],
) -> (Vec<Matrix<f32>>, u64) {
    let chunk = spec.config.prefill_chunk;
    let reference = |engine: &AttentionEngine, r: &Req, p: usize| match served.model {
        None => {
            let request = ServeRequest {
                pattern: served.plans[p].into(),
                priority: r.priority,
                prompt: r.prompt,
                q: r.inputs[0].clone(),
                k: r.inputs[1].clone(),
                v: r.inputs[2].clone(),
            };
            sequential_reference(engine, served.sched.plan(served.plans[p]), &request, chunk)
                .expect("the reference runs")
        }
        Some(model) => {
            let request = ModelRequest {
                model,
                priority: r.priority,
                prompt: r.prompt,
                x: r.inputs[0].clone(),
            };
            sequential_model_reference(engine, served.sched.model(model), &request, chunk)
                .expect("the reference runs")
        }
    };
    type Half = (Vec<(usize, Matrix<f32>)>, u64);
    let halves: Vec<Half> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|w| {
                let reference = &reference;
                scope.spawn(move || {
                    let engine = AttentionEngine::builder()
                        .threads(1)
                        .count_work(true)
                        .build();
                    let outs: Vec<(usize, Matrix<f32>)> = (w..reqs.len())
                        .step_by(THREADS)
                        .map(|i| (i, reference(&engine, &reqs[i], plans[i])))
                        .collect();
                    (outs, engine.work_report().map_or(0, |r| r.dot_products))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("a reference worker panicked"))
            .collect()
    });
    let mut outs: Vec<Option<Matrix<f32>>> = (0..reqs.len()).map(|_| None).collect();
    let mut edges = 0;
    for (half, e) in halves {
        edges += e;
        for (i, o) in half {
            outs[i] = Some(o);
        }
    }
    let outs = outs
        .into_iter()
        .map(|o| o.expect("every request has a reference"))
        .collect();
    (outs, edges)
}

fn same_bits(a: &Matrix<f32>, b: &Matrix<f32>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What one replay measured, after its checks.
struct Measured {
    wall_s: f64,
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    rows: usize,
    progress: Option<Progress>,
}

/// Check a replay and derive its request-level samples. Failures count
/// against `out`; a replay that cannot be reconstructed is an error.
fn check_run(
    spec: &Spec,
    served: &Served,
    reqs: &[Req],
    run: &Run,
    plans: &[usize],
    reference: &[Matrix<f32>],
    out: &mut Outcome,
) -> Measured {
    let cum = run.cum();
    // Wall time of ticks `a..b`, in ms.
    let ms = |a: usize, b: usize| (cum[b] - cum[a]) * 1e3;
    let mut m = Measured {
        wall_s: cum.last().copied().unwrap_or(0.0),
        ttft_ms: Vec::new(),
        itl_ms: Vec::new(),
        queue_ms: Vec::new(),
        rows: 0,
        progress: None,
    };
    out.attempted += reqs.len() as u64;
    let mut failed = run.failed;
    if let Some(e) = &run.error {
        out.errors.push(e.clone());
        out.failed += failed as u64;
        return m;
    }
    for (r, c) in run.done.iter().enumerate() {
        let Some(c) = c else { continue };
        let target_ok = match served.model {
            None => c.target == ServeTarget::Plan(served.plans[plans[r]]),
            Some(model) => c.target == ServeTarget::Model(model),
        };
        if !target_ok || c.submitted as usize != reqs[r].due || !same_bits(&c.output, &reference[r])
        {
            failed += 1;
        }
    }
    out.failed += failed as u64;
    let shapes: Vec<Shape> = reqs.iter().map(Req::shape).collect();
    let progress = match progress::reconstruct(&shapes, spec.config.prefill_chunk, &run.events) {
        Ok(p) => p,
        Err(e) => {
            out.errors.push(format!("progress reconstruction: {e}"));
            return m;
        }
    };
    for (r, c) in run.done.iter().enumerate() {
        if let Some(c) = c {
            if progress.completed[r] != c.completed as usize
                || progress.admitted[r] != c.admitted as usize
            {
                out.errors.push(format!(
                    "request {r}: reconstructed admission/completion ticks {}/{} differ from the scheduler's {}/{}",
                    progress.admitted[r], progress.completed[r], c.admitted, c.completed
                ));
                break;
            }
        }
    }
    // Launches and rows follow from the reconstructed work.
    let layers = served.model.map_or(1, |id| served.sched.model(id).layers());
    for (t, tick) in progress.ticks.iter().enumerate() {
        let rows: usize = tick.work.iter().map(|(_, u)| u.rows()).sum();
        let (launches, rows) = match served.model {
            None => {
                let mut distinct: Vec<usize> = tick.work.iter().map(|&(r, _)| plans[r]).collect();
                distinct.sort_unstable();
                distinct.dedup();
                (distinct.len(), rows)
            }
            Some(_) => (
                if rows > 0 { layers } else { 0 },
                layers * STACK_HEADS * rows,
            ),
        };
        if launches != run.launches[t] || rows != run.rows[t] {
            out.errors.push(format!(
                "tick {t}: predicted {launches} launches / {rows} rows, scheduler reported {} / {}",
                run.launches[t], run.rows[t]
            ));
            break;
        }
    }
    for (r, req) in reqs.iter().enumerate() {
        let rt = &progress.row_ticks[r];
        m.ttft_ms.push(ms(req.due, rt[0] + 1));
        m.itl_ms
            .extend(rt.windows(2).map(|w| ms(w[0] + 1, w[1] + 1)));
        m.queue_ms.push(ms(req.due, progress.admitted[r]));
        m.rows += req.total;
    }
    out.gate("serve.ticks", run.start.len() as u64);
    out.gate("serve.preemptions", run.preemptions);
    out.gate(
        "serve.resumes",
        run.events.iter().map(|e| e.resumed.len() as u64).sum(),
    );
    out.gate("serve.launches", run.launches.iter().sum::<usize>() as u64);
    out.gate("serve.rows", run.rows.iter().sum::<usize>() as u64);
    out.gate("pages.swap_peak_bytes", run.swap_peak_bytes);
    m.progress = Some(progress);
    m
}

/// Run a serving workload and fill `out`.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, out: &mut Outcome) {
    let spec = spec(kind);
    let reqs = generate(&spec, seed);
    let mut served = setup(&spec, THREADS, false, None);
    // `Auto` requests resolve at admission: an unmeasured warm-up replay
    // learns their plans, which the references need. Model requests have
    // none.
    let plans = match kind {
        Kind::Chat => {
            let subs = prepare(&served, &reqs);
            let warm = open_loop(&mut served, &reqs, subs, None);
            if let Some(e) = &warm.error {
                out.errors.push(format!("warm-up replay: {e}"));
                out.attempted += reqs.len() as u64;
                out.failed += warm.failed as u64;
                return;
            }
            targets(&served, &warm)
        }
        Kind::Stack => vec![0; reqs.len()],
    };
    let (reference, edges) = references(&spec, &served, &reqs, &plans);
    out.count("kernel.edges", edges);
    drop(served);

    let budget = Duration::from_secs_f64(seconds);
    let began = Instant::now();
    let done = |out: &Outcome| began.elapsed() >= budget || !out.errors.is_empty();
    if traced {
        let mut cycles = Vec::new();
        loop {
            cycles.push(traced_cycle(&spec, &reqs, &plans, &reference, edges, out));
            if done(out) {
                break;
            }
        }
        per_layer(&spec, &reqs, cycles, out);
        return;
    }
    let mut setups = Vec::new();
    let mut summaries = Vec::new();
    loop {
        let t0 = Instant::now();
        let mut served = setup(&spec, THREADS, false, None);
        setups.push(t0.elapsed().as_secs_f64());
        let subs = prepare(&served, &reqs);
        let run = open_loop(&mut served, &reqs, subs, None);
        let m = check_run(&spec, &served, &reqs, &run, &plans, &reference, out);
        summaries.push(Summary::of(&m, edges));
        if done(out) {
            break;
        }
    }
    end_to_end(&summaries, &setups, edges, reqs.len(), out);
}

/// A replay's end-to-end figures; only these outlive the replay, so the
/// process's memory does not grow with the number of replays.
struct Summary {
    ttft_ms: [f64; 2],
    itl_ms: [f64; 2],
    itl_samples: usize,
    tok_s: f64,
    edges_per_s: f64,
}

impl Summary {
    fn of(m: &Measured, edges: u64) -> Self {
        Summary {
            ttft_ms: [percentile(&m.ttft_ms, 50.0), percentile(&m.ttft_ms, 90.0)],
            itl_ms: [percentile(&m.itl_ms, 50.0), percentile(&m.itl_ms, 99.0)],
            itl_samples: m.itl_ms.len(),
            tok_s: ratio(m.rows as f64, m.wall_s),
            edges_per_s: ratio(edges as f64, m.wall_s),
        }
    }
}

fn end_to_end(summaries: &[Summary], setups: &[f64], edges: u64, reqs: usize, out: &mut Outcome) {
    let per = |f: &dyn Fn(&Summary) -> f64| -> f64 {
        median(&summaries.iter().map(f).collect::<Vec<_>>())
    };
    let n = summaries.len();
    let itls = summaries.first().map_or(0, |s| s.itl_samples);
    let note = |k: usize| format!("median of {n} replays, {k} samples each");
    out.set("ttft_p50_ms", per(&|s| s.ttft_ms[0]), note(reqs));
    out.set("ttft_p90_ms", per(&|s| s.ttft_ms[1]), note(reqs));
    out.set("itl_p50_ms", per(&|s| s.itl_ms[0]), note(itls));
    out.set("itl_p99_ms", per(&|s| s.itl_ms[1]), note(itls));
    out.set("tok_s", per(&|s| s.tok_s), format!("median of {n} replays"));
    out.set(
        "edges_per_s",
        per(&|s| s.edges_per_s),
        format!("median of {n} replays, {edges} edges each"),
    );
    out.set(
        "setup_s",
        median(setups),
        format!("median of {} set-ups", setups.len()),
    );
}

/// What one traced cycle measured: an untraced replay, a traced replay of
/// the same inputs, and the layer replay of the traced one.
struct Cycle {
    untraced_s: f64,
    traced_s: f64,
    tracer: Tracer,
    run: Run,
    measured: Measured,
    layers: Layers,
}

fn traced_cycle(
    spec: &Spec,
    reqs: &[Req],
    plans: &[usize],
    reference: &[Matrix<f32>],
    edges: u64,
    out: &mut Outcome,
) -> Cycle {
    let mut served = setup(spec, THREADS, false, None);
    let subs = prepare(&served, reqs);
    let run = open_loop(&mut served, reqs, subs, None);
    let untraced_s = run.wall_s();
    check_run(spec, &served, reqs, &run, plans, reference, out);
    drop(served);

    let mut tracer = Tracer::new();
    let mut served = setup(spec, THREADS, true, Some(&mut tracer));
    let subs = prepare(&served, reqs);
    let run = open_loop(&mut served, reqs, subs, Some(&mut tracer));
    let traced_s = run.wall_s();
    let measured = check_run(spec, &served, reqs, &run, plans, reference, out);
    let counted = run.gauges.last().map_or(0, |g| g.work.dot_products);
    if counted != edges {
        out.errors.push(format!(
            "kernel edges {counted} differ from the reference's {edges}"
        ));
    }
    let mut layers = match &measured.progress {
        Some(p) => layer_replay(spec, &served, reqs, plans, p, &run, &mut tracer, out),
        None => Layers::default(),
    };
    let mut sizes = layers.launch_rows.clone();
    sizes.sort_unstable();
    let rows = sizes.get(sizes.len() / 2).copied().unwrap_or(1);
    layers.noop_launch_us = noop_launch_us(served.sched.engine(), rows);
    Cycle {
        untraced_s,
        traced_s,
        tracer,
        run,
        measured,
        layers,
    }
}

/// Summed replayed time per layer, plus per-launch samples.
#[derive(Default)]
struct Layers {
    replay_ticks: Vec<SpanId>,
    /// Rows of each replayed launch.
    launch_rows: Vec<usize>,
    noop_launch_us: f64,
}

/// Where a replayed sequence's cache lives while it is preempted.
enum ParkedKv {
    Dropped,
    Swapped(SwapTicket),
    Inline(Vec<KvCache<f32>>),
}

enum Live {
    Plan(SeqId),
    Model(ModelKvState),
}

/// Re-execute every tick's reconstructed work through the public calls
/// the tick is built from, one span per call, and check that it computes
/// exactly the completions' bits.
#[allow(clippy::too_many_arguments)]
fn layer_replay(
    spec: &Spec,
    served: &Served,
    reqs: &[Req],
    plans: &[usize],
    progress: &Progress,
    run: &Run,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Layers {
    let sched = &served.sched;
    let engine = sched.engine();
    let cfg = spec.config;
    let mut pool: PagePool<f32> = PagePool::new(cfg.kv_pages, cfg.page_size);
    let mut arena: SwapArena<f32> = SwapArena::new(cfg.swap_bytes);
    let n = reqs.len();
    let mut live: Vec<Option<Live>> = (0..n).map(|_| None).collect();
    let mut parked: Vec<Option<ParkedKv>> = (0..n).map(|_| None).collect();
    // Tokens a plan sequence's cache holds (what a dropped cache rebuilds).
    let mut cached = vec![0usize; n];
    let mut outputs: Vec<Matrix<f32>> = reqs
        .iter()
        .map(|r| match served.model {
            None => Matrix::zeros(r.total, r.inputs[2].cols()),
            Some(_) => Matrix::zeros(r.total, spec.width),
        })
        .collect();
    let mut layers = Layers::default();
    let model = served.model.map(|id| sched.model(id));
    let plan_of = |r: usize| sched.plan(served.plans[plans[r]]);

    for tick in &progress.ticks {
        let root = tr.open("replay.tick", None, None);
        // Parks, then joins (a tick never does both), as the tick does.
        for &r in &tick.preempted {
            let s = tr.open("pages.park", Some(root), Some(r as u64));
            let kv = match live[r].take().expect("a victim is live") {
                Live::Plan(seq) => {
                    let cache = pool.release(seq);
                    match cfg.eviction {
                        EvictionMode::Recompute => ParkedKv::Dropped,
                        EvictionMode::Swap => match arena.try_park(vec![cache]) {
                            Ok(t) => ParkedKv::Swapped(t),
                            Err(_) => ParkedKv::Dropped,
                        },
                    }
                }
                Live::Model(state) => {
                    let caches = state.release(&mut pool);
                    match cfg.eviction {
                        EvictionMode::Recompute => ParkedKv::Inline(caches),
                        EvictionMode::Swap => match arena.try_park(caches) {
                            Ok(t) => ParkedKv::Swapped(t),
                            Err(caches) => ParkedKv::Inline(caches),
                        },
                    }
                }
            };
            parked[r] = Some(kv);
            tr.close(s);
        }
        for &r in &tick.joined {
            let s = tr.open("pages.admit", Some(root), Some(r as u64));
            let req = &reqs[r];
            live[r] = Some(match (model, parked[r].take()) {
                (None, None | Some(ParkedKv::Dropped)) => {
                    let tokens = if cached[r] == 0 {
                        req.prompt
                    } else {
                        cached[r]
                    };
                    let (q, k, v) = (&req.inputs[0], &req.inputs[1], &req.inputs[2]);
                    let seq = pool.allocate(q.cols(), v.cols());
                    let ok =
                        pool.try_extend(seq, &k.rows_slice(0, tokens), &v.rows_slice(0, tokens));
                    assert!(ok, "the scheduler granted these pages");
                    if let Some(rs) = plan_of(r).routing_spec() {
                        pool.extend_routing(seq, rs, 0, &q.rows_slice(0, tokens))
                            .expect("a fresh cache adopts its plan's routing");
                    }
                    cached[r] = tokens;
                    Live::Plan(seq)
                }
                (None, Some(ParkedKv::Swapped(t))) => {
                    let cache = arena.take(t).pop().expect("one cache per plan sequence");
                    Live::Plan(
                        pool.try_adopt(cache)
                            .unwrap_or_else(|_| panic!("the scheduler granted these pages")),
                    )
                }
                (Some(m), None) => Live::Model(ModelKvState::allocate(m, &mut pool)),
                (Some(_), Some(kv)) => {
                    let caches = match kv {
                        ParkedKv::Swapped(t) => arena.take(t),
                        ParkedKv::Inline(c) => c,
                        ParkedKv::Dropped => unreachable!("model caches are never dropped"),
                    };
                    Live::Model(
                        ModelKvState::adopt(caches, &mut pool)
                            .unwrap_or_else(|_| panic!("the scheduler granted these pages")),
                    )
                }
                (None, Some(ParkedKv::Inline(_))) => {
                    unreachable!("plan sequences never park inline")
                }
            });
            tr.close(s);
        }
        match model {
            None => replay_plan_tick(
                engine,
                served,
                reqs,
                plans,
                tick,
                &live,
                &mut pool,
                &mut cached,
                &mut outputs,
                root,
                tr,
                &mut layers,
            ),
            Some(m) => replay_model_tick(
                engine,
                m,
                reqs,
                tick,
                &live,
                &mut pool,
                &mut outputs,
                root,
                tr,
                &mut layers,
            ),
        }
        for &r in &tick.completed {
            let s = tr.open("pages.release", Some(root), Some(r as u64));
            match live[r].take().expect("a completed sequence is live") {
                Live::Plan(seq) => drop(pool.release(seq)),
                Live::Model(state) => drop(state.release(&mut pool)),
            }
            tr.close(s);
        }
        tr.close(root);
        layers.replay_ticks.push(root);
    }
    for (r, c) in run.done.iter().enumerate() {
        if let Some(c) = c {
            if !same_bits(&outputs[r], &c.output) {
                out.errors.push(format!(
                    "layer replay of request {r} does not reproduce its completion bitwise"
                ));
                break;
            }
        }
    }
    layers
}

/// Each unit's query (chat) or embedding (stack) rows, as the tick slices
/// them.
fn windows(reqs: &[Req], tick: &progress::TickWork) -> Vec<Matrix<f32>> {
    tick.work
        .iter()
        .map(|&(r, unit)| reqs[r].inputs[0].rows_slice(unit.first(), unit.first() + unit.rows()))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn replay_plan_tick(
    engine: &AttentionEngine,
    served: &Served,
    reqs: &[Req],
    plans: &[usize],
    tick: &progress::TickWork,
    live: &[Option<Live>],
    pool: &mut PagePool<f32>,
    cached: &mut [usize],
    outputs: &mut [Matrix<f32>],
    root: SpanId,
    tr: &mut Tracer,
    layers: &mut Layers,
) {
    let sched = &served.sched;
    let seq_of = |r: usize| match live[r] {
        Some(Live::Plan(seq)) => seq,
        _ => unreachable!("plan work on a live plan sequence"),
    };
    let commit = tr.open("pages.commit", Some(root), None);
    for &(r, unit) in &tick.work {
        if let Unit::Decode { t } = unit {
            let (q, k, v) = (&reqs[r].inputs[0], &reqs[r].inputs[1], &reqs[r].inputs[2]);
            let seq = seq_of(r);
            assert!(
                pool.try_append(seq, k.row(t), v.row(t)),
                "granted at tick start"
            );
            if let Some(rs) = sched.plan(served.plans[plans[r]]).routing_spec() {
                pool.extend_routing(seq, rs, 0, &q.rows_slice(t, t + 1))
                    .expect("cache routing follows its plan");
            }
            cached[r] = t + 1;
        }
    }
    tr.close(commit);
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, &(r, _)) in tick.work.iter().enumerate() {
        groups.entry(plans[r]).or_default().push(i);
    }
    let windows = windows(reqs, tick);
    for (&p, items) in &groups {
        let requests: Vec<AttentionRequest<'_, f32>> = items
            .iter()
            .map(|&i| {
                let (r, unit) = tick.work[i];
                let cache = pool.cache(seq_of(r));
                match unit {
                    Unit::Prefill { start, .. } => {
                        AttentionRequest::windowed(&windows[i], cache.k(0), cache.v(0), start)
                    }
                    Unit::Decode { .. } => {
                        AttentionRequest::decode(&windows[i], cache.k(0), cache.v(0))
                    }
                }
                .with_routing(cache.routing(0))
            })
            .collect();
        let s = tr.open("engine.run_batch", Some(root), None);
        let outs = engine
            .run_batch(sched.plan(served.plans[p]), &requests)
            .expect("the scheduler ran this launch");
        tr.close(s);
        layers
            .launch_rows
            .push(requests.iter().map(AttentionRequest::rows).sum());
        for (&i, o) in items.iter().zip(outs) {
            let (r, unit) = tick.work[i];
            for row in 0..o.rows() {
                outputs[r]
                    .row_mut(unit.first() + row)
                    .copy_from_slice(o.row(row));
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn replay_model_tick(
    engine: &AttentionEngine,
    model: &DecoderModel<'static, f32>,
    reqs: &[Req],
    tick: &progress::TickWork,
    live: &[Option<Live>],
    pool: &mut PagePool<f32>,
    outputs: &mut [Matrix<f32>],
    root: SpanId,
    tr: &mut Tracer,
    layers: &mut Layers,
) {
    if tick.work.is_empty() {
        return;
    }
    let state_of = |r: usize| match &live[r] {
        Some(Live::Model(state)) => state,
        _ => unreachable!("model work on a live model sequence"),
    };
    let windows = windows(reqs, tick);
    let priors: Vec<usize> = tick
        .work
        .iter()
        .map(|&(r, _)| state_of(r).tokens(pool))
        .collect();
    let heads = model.heads();
    let mut xs = windows;
    for s in 0..model.layers() {
        let layer_span = tr.open("model.layer", Some(root), None);
        let layer = model.layer(s);
        let plan = model.plan_of(s);
        let span = tr.open("mha.project_qkv", Some(layer_span), None);
        let projected: Vec<_> = xs.iter().map(|x| layer.project_qkv(x)).collect();
        tr.close(span);
        let span = tr.open("pages.commit", Some(layer_span), None);
        for (&(r, _), (qh, kh, vh)) in tick.work.iter().zip(&projected) {
            let seq = state_of(r).layer_seqs()[s];
            assert!(pool.try_extend_heads(seq, kh, vh), "granted at tick start");
            if let Some(rs) = plan.routing_spec() {
                for (h, q) in qh.iter().enumerate() {
                    pool.extend_routing(seq, rs, h, q)
                        .expect("cache routing follows its plan");
                }
            }
        }
        tr.close(span);
        let requests: Vec<AttentionRequest<'_, f32>> = tick
            .work
            .iter()
            .zip(&projected)
            .zip(&priors)
            .flat_map(|((&(r, _), (qh, _, _)), &prior)| {
                let cache = pool.cache(state_of(r).layer_seqs()[s]);
                (0..heads).map(move |h| {
                    AttentionRequest::windowed(&qh[h], cache.k(h), cache.v(h), prior)
                        .with_routing(cache.routing(h))
                })
            })
            .collect();
        let span = tr.open("engine.run_batch", Some(layer_span), None);
        let outs = engine
            .run_batch(plan, &requests)
            .expect("the scheduler ran this launch");
        tr.close(span);
        layers
            .launch_rows
            .push(requests.iter().map(AttentionRequest::rows).sum());
        let span = tr.open("mha.combine_heads", Some(layer_span), None);
        let attn: Vec<Matrix<f32>> = outs.chunks(heads).map(|h| layer.combine_heads(h)).collect();
        tr.close(span);
        for (x, a) in xs.iter_mut().zip(&attn) {
            *x = Matrix::from_fn(x.rows(), x.cols(), |i, j| x.get(i, j) + a.get(i, j));
        }
        tr.close(layer_span);
    }
    for (&(r, unit), x) in tick.work.iter().zip(&xs) {
        for row in 0..x.rows() {
            outputs[r]
                .row_mut(unit.first() + row)
                .copy_from_slice(x.row(row));
        }
    }
}

/// The cost of launching an empty body over `rows` rows on `engine`'s pool
/// and schedule: the median of many launches, in µs.
fn noop_launch_us(engine: &AttentionEngine, rows: usize) -> f64 {
    let mut samples = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t = Instant::now();
        let stats = parallel_for_stats(engine.pool(), rows, engine.schedule(), |range| {
            std::hint::black_box(range);
        });
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(stats);
    }
    median(&samples)
}

/// One-thread replays for `parallel.scaling`, run only in the traced run.
/// Their counters must match the 2-thread replays'.
fn one_thread_wall_s(spec: &Spec, reqs: &[Req], out: &mut Outcome) -> f64 {
    let walls: Vec<f64> = (0..3)
        .map(|_| {
            let mut served = setup(spec, 1, false, None);
            let subs = prepare(&served, reqs);
            let run = open_loop(&mut served, reqs, subs, None);
            out.attempted += reqs.len() as u64;
            out.failed += run.failed as u64;
            out.gate("serve.ticks", run.start.len() as u64);
            out.gate("serve.preemptions", run.preemptions);
            out.gate("serve.launches", run.launches.iter().sum::<usize>() as u64);
            run.wall_s()
        })
        .collect();
    median(&walls)
}

fn per_layer(spec: &Spec, reqs: &[Req], cycles: Vec<Cycle>, out: &mut Outcome) {
    let Some(first) = cycles.first() else { return };
    let n = cycles.len();
    let per =
        |f: &dyn Fn(&Cycle) -> f64| -> f64 { median(&cycles.iter().map(f).collect::<Vec<_>>()) };
    let note = format!("median of {n} traced cycles");
    let replayed = format!("{note}, replayed");
    let ticks = first.run.start.len() as f64;
    let us = |s: f64| s * 1e6;
    let tick_us = |c: &Cycle| -> Vec<f64> {
        c.run
            .tick_spans
            .iter()
            .map(|&s| c.tracer.get(s).dur_ns() as f64 * 1e-3)
            .collect()
    };
    let counter = |name: &str| out.counters.get(name).copied().unwrap_or(0) as f64;
    let (launches, rows) = (counter("serve.launches"), counter("serve.rows"));
    let swap_peak = counter("pages.swap_peak_bytes");

    let each = format!("{note}, {ticks} ticks each");
    out.set(
        "serve.tick_us.p50",
        per(&|c| percentile(&tick_us(c), 50.0)),
        &each,
    );
    out.set(
        "serve.tick_us.p99",
        per(&|c| percentile(&tick_us(c), 99.0)),
        &each,
    );
    out.set(
        "serve.self_us.p50",
        per(&|c| {
            let child = c.tracer.child_time_s();
            let selfs: Vec<f64> = tick_us(c)
                .iter()
                .zip(&c.layers.replay_ticks)
                .map(|(t, &r)| t - us(child[r as usize]))
                .collect();
            percentile(&selfs, 50.0)
        }),
        format!("{note}; tick span minus replayed children (an estimate)"),
    );
    out.set("serve.rows_per_tick", rows / ticks, "exact ratio");
    out.set("serve.launches_per_tick", launches / ticks, "exact ratio");
    out.set(
        "serve.queue_wait_ms.p50",
        per(&|c| percentile(&c.measured.queue_ms, 50.0)),
        &note,
    );
    let after = &first.run.gauges[1..];
    let over_ticks = |f: &dyn Fn(&Gauges) -> f64| mean(&after.iter().map(f).collect::<Vec<_>>());
    out.set(
        "serve.inflight_mean",
        over_ticks(&|g| g.in_flight as f64),
        "exact, mean over ticks",
    );
    let util: Vec<f64> = after
        .iter()
        .filter(|g| g.used_pages > 0)
        .map(|g| g.used_tokens as f64 / (g.used_pages * spec.config.page_size) as f64)
        .collect();
    out.set(
        "pages.kv_util",
        mean(&util),
        "exact, mean over ticks holding pages",
    );
    out.set(
        "pages.used_peak",
        after.iter().map(|g| g.used_pages).max().unwrap_or(0) as f64,
        "exact, max over ticks",
    );
    out.set("pages.swap_peak_bytes", swap_peak, "exact");
    out.set(
        "pages.swap_fallbacks",
        first.run.swap_fallbacks as f64,
        "exact",
    );

    let per_tick = |name: &'static str| per(&|c| us(c.tracer.total_s(name)) / ticks);
    out.set("pages.commit_us", per_tick("pages.commit"), &replayed);
    // Plan requests have no projections: those layers stay unset on chat.
    if spec.kind == Kind::Stack {
        out.set("mha.project_us", per_tick("mha.project_qkv"), &replayed);
        out.set("mha.combine_us", per_tick("mha.combine_heads"), &replayed);
        out.set(
            "model.glue_us",
            per(&|c| {
                let child = c.tracer.child_time_s();
                let glue: f64 = c
                    .tracer
                    .spans()
                    .iter()
                    .zip(&child)
                    .filter(|(s, _)| s.name == "model.layer")
                    .map(|(s, kids)| s.dur_ns() as f64 * 1e-9 - kids)
                    .sum();
                us(glue) / ticks
            }),
            format!("{replayed}: layer span minus its children"),
        );
        out.set(
            "model.proj_share",
            per(&|c| {
                let t = &c.tracer;
                let proj = t.total_s("mha.project_qkv") + t.total_s("mha.combine_heads");
                ratio(proj, t.total_s("replay.tick"))
            }),
            format!("{replayed}, over the replayed total"),
        );
    }
    out.set(
        "engine.batch_us.p50",
        per(&|c| us(percentile(&c.tracer.durations_s("engine.run_batch"), 50.0))),
        format!("{replayed}, per launch"),
    );
    let launch_rows = &first.layers.launch_rows;
    out.set(
        "engine.rows_per_launch",
        ratio(
            launch_rows.iter().sum::<usize>() as f64,
            launch_rows.len() as f64,
        ),
        "exact, replayed",
    );
    out.set(
        "engine.compile_s",
        per(&|c| c.tracer.total_s("engine.compile")),
        format!("{note}, summed over the workload's plans"),
    );
    let delta = |c: &Cycle| {
        let g = &c.run.gauges;
        let (a, b) = (g[0], g[g.len() - 1]);
        let steals = b.pool.steals + b.pool.range_steals - a.pool.steals - a.pool.range_steals;
        (
            b.work.dot_products - a.work.dot_products,
            b.work.output_updates - a.work.output_updates,
            steals as f64,
            (b.pool.parks - a.pool.parks) as f64,
        )
    };
    let (edges, updates, _, _) = delta(first);
    out.set("kernel.output_updates", updates as f64, "exact");
    out.set("kernel.edges_per_row", ratio(edges as f64, rows), "exact");
    out.set(
        "kernel.edge_rate",
        per(&|c| ratio(edges as f64, c.tracer.total_s("engine.run_batch")) * 1e-6),
        format!("{replayed}, over the replayed run_batch time"),
    );
    out.set(
        "parallel.noop_launch_us",
        per(&|c| c.layers.noop_launch_us),
        format!("{note}, 2000 launches each at the median rows per launch"),
    );
    out.set(
        "parallel.launch_share",
        per(&|c| ratio(launches * c.layers.noop_launch_us, tick_us(c).iter().sum())),
        format!("{note}, launches x noop launch over summed tick time"),
    );
    out.set(
        "parallel.steals_per_launch",
        per(&|c| delta(c).2 / launches),
        &note,
    );
    out.set(
        "parallel.parks_per_launch",
        per(&|c| delta(c).3 / launches),
        &note,
    );
    let two = median(&cycles.iter().map(|c| c.untraced_s).collect::<Vec<_>>());
    let one = one_thread_wall_s(spec, reqs, out);
    out.set(
        "parallel.scaling",
        ratio(one, two),
        format!("1-thread replay {one:.4} s over 2-thread replay {two:.4} s"),
    );
    out.set(
        "trace.overhead",
        per(&|c| c.traced_s / c.untraced_s - 1.0),
        format!("{note}, traced over untraced replay wall"),
    );
    out.trace = cycles.into_iter().next().map(|c| c.tracer);
}
