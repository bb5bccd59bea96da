//! The continuous-batching scheduler.
//!
//! One [`Scheduler`] owns an [`AttentionEngine`], a set of registered
//! [`AttentionPlan`]s and [`DecoderModel`]s, per-priority queues, and a
//! block-paged [`PagePool`] of per-sequence KV caches. Time is a
//! **virtual clock** of ticks: every [`Scheduler::tick`] admits what fits,
//! then flattens *all* runnable work — each prefilling sequence's next
//! chunk of query rows plus each decoding sequence's next token row —
//! into **one** [`AttentionEngine::run_batch`] launch per distinct plan (a
//! single launch when the workload shares a plan), exactly the
//! mixed-geometry batch shape the engine's [`gpa_core::Geometry`] windows
//! exist for.
//!
//! ## One kind of sequence
//!
//! A request targets either a bare plan ([`Scheduler::submit`] — explicit
//! q/k/v rows through one attention kernel) or a registered decoder model
//! ([`Scheduler::submit_model`] — embedding rows through an N-layer stack
//! of [`gpa_core::MultiHeadAttention`] layers with heterogeneous plans).
//! Inside the scheduler both are the same sequence: a cursor over its
//! input rows plus a KV stack of pooled caches ([`ModelKvState`]). A
//! plan sequence is a one-layer, one-head stack whose K/V rows are the
//! request's own inputs; a model sequence's stack has one cache per layer,
//! filled by [`DecoderModel::advance_batched`] (one launch per layer, all
//! sequences × heads flattened). Pending, in-flight and parked sequences
//! share the queues, the page pool, the tick, and one park/resume path,
//! and every page of every layer is counted by the same arithmetic — an
//! `L`-layer sequence bills `L ×` the pages of a plan sequence of the
//! same length.
//!
//! ## Admission policy
//!
//! - **Arrival batching**: a request waits [`ServeConfig::arrival_window`]
//!   ticks in its queue before becoming eligible, so bursts admit (and
//!   prefill) together;
//! - **Strict priority, FIFO within a class**: classes admit in ascending
//!   priority value; within a class, preempted sequences resume before
//!   anything still pending (they are strictly older), the queue is FIFO,
//!   and an eligible head that does not fit blocks *all* lower-priority
//!   admission (no overtaking), which is what makes admission
//!   starvation-free for any request that can ever fit;
//! - **Paged KV** ([`AdmissionMode::PagedUsage`], the default): a
//!   sequence is admitted on its *current* page need, not its worst case,
//!   so short prompts with long decode budgets pack the pool instead of
//!   reserving it. Admission, resume and each tick's appends are all
//!   charged by one rule: `layers × pages_for(tokens cached after the
//!   sequence's next unit of work)`, less the pages it already holds. A
//!   plan sequence caches its whole prompt at admission (its prefill rows
//!   see the whole prompt); a model sequence caches its prompt chunk by
//!   chunk. The pages this tick's appends are about to consume are held
//!   back from admission, so newcomers can never take a page out from
//!   under a running sequence within the tick. A request whose *total*
//!   page need exceeds the whole pool is rejected at submission, before
//!   any cache exists for it.
//! - **Worst-case reservation** ([`AdmissionMode::WorstCaseReserve`]):
//!   the legacy policy, kept for A/B comparison — admission reserves
//!   `layers × pages_for(prompt + decode)` up front in a ledger, so an
//!   admitted sequence can always grow to completion and preemption never
//!   fires.
//!
//! ## Preemption
//!
//! Paged admission oversubscribes by design, so a tick can find that its
//! appends need more pages than are free. The scheduler then **preempts**:
//! walking sequences from most urgent (lowest priority class, earliest
//! admission) to least, it grants each append by evicting victims from
//! the opposite end — the lowest-priority, most-recently admitted
//! sequence first. A victim's pages always go back to the pool; what
//! happens to its KV stack is the [`EvictionMode`]:
//!
//! - **Recompute** (the default): a plan victim's cache is dropped —
//!   resume rebuilds it from the retained `prompt + generated` K/V rows
//!   bit-identically, since they are deterministic inputs. A model
//!   victim's per-layer caches hold *computed* K/V the scheduler cannot
//!   cheaply rebuild, so they are held inline, outside the pool, and
//!   re-adopted — all layers or none — on resume.
//! - **Swap**: the victim's whole stack moves into a host-side
//!   [`gpa_core::SwapArena`] and resume splices it back via
//!   [`ModelKvState::adopt`] — `O(1)` in context length instead of
//!   `O(context)`. The arena's byte cap ([`ServeConfig::swap_bytes`])
//!   bounds the arena only: a victim that does not fit falls back to the
//!   Recompute behavior for that park, so a refused model stack is held
//!   inline outside the cap.
//!
//! Either way the victim parks on its class's queue with its computed
//! output rows and cursor, and continues exactly where it stopped, so
//! every completed output is still **bitwise** the sequential reference —
//! the modes differ in resume *cost*, never in results or schedule (both
//! use the same page arithmetic). The most urgent in-flight sequence is
//! never evicted and always advances, so preemption cannot livelock.
//!
//! ## Failure atomicity
//!
//! A tick either applies completely or not at all: if any launch fails,
//! every layer of every surviving sequence's stack is truncated to its
//! pre-tick length (pages returned), this tick's preemptions are
//! **un-preempted** (victims resumed in place, queue positions restored),
//! this tick's admissions are **un-admitted** (pages released, sequences
//! returned to their queues in order), cursors do not advance, and the
//! virtual clock does not move — a failed tick leaves no trace. The
//! returned [`crate::ServeError::Launch`] names the offending request
//! when its geometry provably cannot run under its plan (or under any
//! layer of its model), so the caller can [`Scheduler::cancel`] it and
//! the rest of the workload drains untouched (exercised by
//! `tests/serving_sim.rs`).

use crate::error::ServeError;
use crate::request::{
    Completion, ModelId, ModelRequest, PatternChoice, PlanId, RequestId, ServeRequest, ServeTarget,
    TickReport,
};
use gpa_core::{
    AttentionEngine, AttentionPlan, AttentionRequest, AttnError, KvCache, PagePool, SwapArena,
    SwapTicket,
};
use gpa_model::{DecoderModel, ModelError, ModelKvState, ModelWorkItem};
use gpa_tensor::{Matrix, Real};
use std::collections::{BTreeMap, VecDeque};

/// How admission charges a sequence against the KV page pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Admit on *current* page usage: a sequence costs the pages its
    /// cached tokens occupy right now, decode growth allocates pages on
    /// append, and page exhaustion is resolved by preemption. The
    /// PagedAttention policy, and the default.
    #[default]
    PagedUsage,
    /// Admit on *worst-case* reservation: a sequence reserves pages for
    /// its full prompt + decode length up front, so it can always run to
    /// completion and preemption never fires. The legacy policy, kept as
    /// the A/B baseline — it strands the difference between reserved and
    /// used pages.
    WorstCaseReserve,
}

/// What happens to a preemption victim's KV cache.
///
/// Either way the victim's pages go back to the pool and its computed
/// output rows are kept — the modes differ only in how the cache comes
/// back, so completions are **bitwise identical** across modes and so is
/// the schedule (both modes use the same page arithmetic). See
/// `docs/SERVING.md` for the full state machine.
///
/// ```
/// use gpa_core::{AttentionEngine, AttentionKernel, AttentionPlan};
/// use gpa_serve::{AdmissionMode, EvictionMode, ServeConfig, ServeRequest, Scheduler};
/// use gpa_tensor::init;
///
/// // The same two-sequence page squeeze, once per mode: the victim's
/// // resume path differs, the bits and the schedule do not.
/// let mut outputs = Vec::new();
/// for eviction in [EvictionMode::Recompute, EvictionMode::Swap] {
///     let mut s: Scheduler<'static, f32> = Scheduler::new(
///         AttentionEngine::with_threads(1),
///         ServeConfig {
///             max_in_flight: 2,
///             kv_pages: 3,
///             page_size: 2,
///             arrival_window: 0,
///             prefill_chunk: 4,
///             admission: AdmissionMode::PagedUsage,
///             eviction,
///             swap_bytes: usize::MAX, // unbounded arena (Swap mode only)
///         },
///     )
///     .unwrap();
///     let plan = s
///         .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap())
///         .unwrap();
///     for seed in [1, 2] {
///         let (q, k, v) = init::qkv::<f32>(6, 4, seed);
///         s.submit(ServeRequest { pattern: plan.into(), priority: 0, prompt: 2, q, k, v })
///             .unwrap();
///     }
///     let mut done = Vec::new();
///     while !s.is_idle() {
///         done.extend(s.tick().unwrap().completed);
///     }
///     assert!(s.preemption_events() > 0, "the squeeze must preempt");
///     if eviction == EvictionMode::Swap {
///         assert!(s.swap_peak_bytes() > 0, "the victim transited the arena");
///         assert_eq!(s.swap_parked_bytes(), 0, "…and came back out");
///     }
///     outputs.push(done.into_iter().map(|c| c.output).collect::<Vec<_>>());
/// }
/// assert_eq!(outputs[0], outputs[1], "eviction mode never changes the bits");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvictionMode {
    /// Drop a plan victim's cache and re-extend its retained K/V input
    /// rows on resume; resume cost grows with context length. Uses no
    /// arena, but a model victim's computed per-layer caches are still
    /// held in host memory, inline and uncapped, until it resumes. The
    /// default.
    #[default]
    Recompute,
    /// Park the victim's caches in a host-side [`SwapArena`] and splice
    /// them back on resume — `O(1)` in context length, at the cost of
    /// holding the parked bytes in the arena (capped by
    /// [`ServeConfig::swap_bytes`]). A victim the arena cannot hold falls
    /// back to the `Recompute` behavior for that park, counted by
    /// [`Scheduler::swap_fallbacks`]; a refused model stack is then held
    /// inline, outside the cap.
    Swap,
}

/// Admission-policy knobs for a [`Scheduler`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Maximum sequences holding KV pages at once.
    pub max_in_flight: usize,
    /// Total pages in the KV pool.
    pub kv_pages: usize,
    /// Cached tokens per page.
    pub page_size: usize,
    /// Ticks a request waits in its queue before it is eligible for
    /// admission — lets bursts of arrivals batch their prefills together.
    pub arrival_window: u64,
    /// Query rows per prefill chunk: each prefilling sequence advances by
    /// at most this many rows per tick, bounding per-tick prefill work so
    /// decode rows never wait behind a whole long prompt.
    pub prefill_chunk: usize,
    /// How admission charges sequences against the pool.
    pub admission: AdmissionMode,
    /// What happens to a preemption victim's KV cache.
    pub eviction: EvictionMode,
    /// Byte cap of the host-side [`SwapArena`] under
    /// [`EvictionMode::Swap`] (unused — but harmless — under
    /// `Recompute`). A victim that would push the arena past this cap
    /// falls back to recompute for that park. The cap bounds the arena
    /// only: model stacks parked inline (under `Recompute`, or refused by
    /// the arena) are held outside it.
    pub swap_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            // 4096 × 16 = the same 65536-token capacity the old
            // token-budget default provided.
            max_in_flight: 32,
            kv_pages: 4096,
            page_size: 16,
            arrival_window: 0,
            prefill_chunk: 128,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Recompute,
            swap_bytes: usize::MAX,
        }
    }
}

/// What a sequence runs on.
enum Source<T> {
    /// A bare plan: a one-layer, one-head stack whose K/V rows are the
    /// request's own `k`/`v` inputs.
    Plan {
        /// The plan index, resolved from `pattern` at each fresh
        /// admission and fixed from then on.
        plan: usize,
        /// The choice as submitted, kept so an un-admitted sequence goes
        /// back to its queue unresolved.
        pattern: PatternChoice,
        k: Matrix<T>,
        v: Matrix<T>,
    },
    /// A registered decoder model, whose layer advance computes the K/V
    /// rows of every layer.
    Model(usize),
}

/// Where a sequence's KV stack lives.
enum Kv<T> {
    /// No cache: not yet admitted, or a plan sequence's cache dropped at
    /// park. Entering the pool builds it from the sequence's own K/V rows.
    Empty,
    /// Mapped into the page pool: the sequence is in flight.
    Pooled(ModelKvState),
    /// Parked in the scheduler's [`SwapArena`].
    Swapped(SwapTicket),
    /// A parked model stack held outside the pool and the arena.
    Inline(Vec<KvCache<T>>),
}

/// A pending, in-flight or parked sequence.
struct Seq<T> {
    id: RequestId,
    priority: u8,
    prompt: usize,
    /// Input rows processed so far: prefill while `pos < prompt`, then
    /// one decode row per tick until `pos == total`.
    pos: usize,
    submitted: u64,
    /// First admission tick — preemption does not reset it.
    admitted: u64,
    /// Times this sequence has been preempted so far; nonzero exactly
    /// for sequences that have been admitted and parked.
    preemptions: u32,
    /// Pages reserved in the ledger ([`AdmissionMode::WorstCaseReserve`]
    /// only; 0 under paged admission).
    reserved_pages: usize,
    source: Source<T>,
    /// Query-side input rows: `q` of a plan sequence, the embeddings `x`
    /// of a model sequence.
    x: Matrix<T>,
    /// Output rows; zero rows (of the output width) until admission.
    out: Matrix<T>,
    kv: Kv<T>,
}

impl<T: Real> Seq<T> {
    fn total(&self) -> usize {
        self.x.rows()
    }

    /// Rows the next unit of work processes: a prefill chunk, or one
    /// decode row.
    fn next_rows(&self, chunk: usize) -> usize {
        if self.pos < self.prompt {
            chunk.min(self.prompt - self.pos)
        } else {
            1
        }
    }

    /// Tokens the sequence's caches hold once its first `pos` rows are
    /// processed. A plan sequence caches its whole prompt at admission; a
    /// model sequence's caches grow with every processed row.
    fn cached_at(&self, pos: usize) -> usize {
        match self.source {
            Source::Plan { .. } => pos.max(self.prompt),
            Source::Model(_) => pos,
        }
    }

    fn target(&self) -> ServeTarget {
        match self.source {
            Source::Plan { plan, .. } => ServeTarget::Plan(PlanId(plan)),
            Source::Model(model) => ServeTarget::Model(ModelId(model)),
        }
    }

    /// The pooled stack of an in-flight sequence.
    fn stack(&self) -> &ModelKvState {
        match &self.kv {
            Kv::Pooled(state) => state,
            _ => panic!("only in-flight sequences hold pooled caches"),
        }
    }
}

/// The continuous-batching serving scheduler — see the [module
/// docs](self) for the policy and [`crate`] for an end-to-end example.
///
/// `'p` is the lifetime of mask data borrowed by the registered plans and
/// models (implicit-kernel plans borrow nothing and work with `'static`).
pub struct Scheduler<'p, T> {
    engine: AttentionEngine,
    config: ServeConfig,
    plans: Vec<AttentionPlan<'p>>,
    models: Vec<DecoderModel<'p, T>>,
    /// Per-priority queues in request-id order. Parked sequences sort
    /// ahead of pending ones: a sequence is admitted from its queue's
    /// head, so every admitted id precedes every id still pending.
    queues: BTreeMap<u8, VecDeque<Seq<T>>>,
    pending_len: usize,
    parked_len: usize,
    in_flight: Vec<Seq<T>>,
    pool: PagePool<T>,
    /// Host-side parking lot for evicted caches under
    /// [`EvictionMode::Swap`] (empty forever under `Recompute`).
    arena: SwapArena<T>,
    /// Reservation ledger, in pages ([`AdmissionMode::WorstCaseReserve`]
    /// only; stays 0 under paged admission).
    reserved_pages: usize,
    preemption_events: u64,
    /// Parks that wanted the arena but fell back to recompute/inline
    /// because the stack would not fit [`ServeConfig::swap_bytes`].
    swap_fallbacks: u64,
    now: u64,
    next_id: u64,
}

impl<'p, T: Real> Scheduler<'p, T> {
    /// Build a scheduler owning `engine` under the given admission policy.
    pub fn new(engine: AttentionEngine, config: ServeConfig) -> Result<Self, ServeError> {
        if config.max_in_flight == 0 {
            return Err(ServeError::BadConfig {
                what: "max_in_flight must be positive",
            });
        }
        if config.prefill_chunk == 0 {
            return Err(ServeError::BadConfig {
                what: "prefill_chunk must be positive",
            });
        }
        if config.kv_pages == 0 {
            return Err(ServeError::BadConfig {
                what: "kv_pages must be positive",
            });
        }
        if config.page_size == 0 {
            return Err(ServeError::BadConfig {
                what: "page_size must be positive",
            });
        }
        Ok(Scheduler {
            engine,
            config,
            plans: Vec::new(),
            models: Vec::new(),
            queues: BTreeMap::new(),
            pending_len: 0,
            parked_len: 0,
            in_flight: Vec::new(),
            pool: PagePool::new(config.kv_pages, config.page_size),
            arena: SwapArena::new(config.swap_bytes),
            reserved_pages: 0,
            preemption_events: 0,
            swap_fallbacks: 0,
            now: 0,
            next_id: 0,
        })
    }

    /// Register a compiled plan; submitted requests name it by the
    /// returned id. Dense-baseline plans are rejected — they have no
    /// prefill-window or decode-row form.
    pub fn register_plan(&mut self, plan: AttentionPlan<'p>) -> Result<PlanId, ServeError> {
        if !plan.is_composable() {
            return Err(ServeError::BadRequest {
                what: "dense baseline plans have no serving form",
            });
        }
        self.plans.push(plan);
        Ok(PlanId(self.plans.len() - 1))
    }

    /// Register a compiled decoder model; model requests name it by the
    /// returned id. [`DecoderModel::new`] already rejected dense-baseline
    /// plans, so every registered model has a serving form.
    pub fn register_model(&mut self, model: DecoderModel<'p, T>) -> ModelId {
        self.models.push(model);
        ModelId(self.models.len() - 1)
    }

    /// A registered plan.
    ///
    /// # Panics
    /// Panics if `id` did not come from this scheduler's
    /// [`Self::register_plan`].
    pub fn plan(&self, id: PlanId) -> &AttentionPlan<'p> {
        &self.plans[id.0]
    }

    /// A registered model.
    ///
    /// # Panics
    /// Panics if `id` did not come from this scheduler's
    /// [`Self::register_model`].
    pub fn model(&self, id: ModelId) -> &DecoderModel<'p, T> {
        &self.models[id.0]
    }

    /// The engine this scheduler launches through.
    pub fn engine(&self) -> &AttentionEngine {
        &self.engine
    }

    /// The admission policy.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Current virtual time (ticks executed so far).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Requests queued but not yet admitted.
    pub fn pending_len(&self) -> usize {
        self.pending_len
    }

    /// Preempted sequences waiting on resume queues.
    pub fn parked_len(&self) -> usize {
        self.parked_len
    }

    /// Sequences currently holding KV pages.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Pending + parked + in-flight sequences.
    pub fn outstanding(&self) -> usize {
        self.pending_len + self.parked_len + self.in_flight.len()
    }

    /// True when nothing is pending, parked, or in flight.
    pub fn is_idle(&self) -> bool {
        self.outstanding() == 0
    }

    /// Total pages in the KV pool.
    pub fn kv_total_pages(&self) -> usize {
        self.pool.total_pages()
    }

    /// Pages on the free list right now.
    pub fn kv_free_pages(&self) -> usize {
        self.pool.free_pages()
    }

    /// Pages mapped into live page tables right now.
    pub fn kv_used_pages(&self) -> usize {
        self.pool.used_pages()
    }

    /// Cached tokens per page.
    pub fn kv_page_size(&self) -> usize {
        self.pool.page_size()
    }

    /// KV tokens actually cached right now.
    pub fn kv_used_tokens(&self) -> usize {
        self.pool.used_tokens()
    }

    /// Pages held in the worst-case reservation ledger
    /// ([`AdmissionMode::WorstCaseReserve`]; always 0 under paged
    /// admission).
    pub fn kv_reserved_pages(&self) -> usize {
        self.reserved_pages
    }

    /// Total sequence preemptions so far (each park of each sequence
    /// counts once).
    pub fn preemption_events(&self) -> u64 {
        self.preemption_events
    }

    /// Bytes of K/V payload currently parked in the swap arena (always 0
    /// under [`EvictionMode::Recompute`], and whenever nothing is
    /// preempted).
    pub fn swap_parked_bytes(&self) -> usize {
        self.arena.parked_bytes()
    }

    /// High-water mark of [`Self::swap_parked_bytes`] over the
    /// scheduler's life — the arena memory a deployment actually needs.
    pub fn swap_peak_bytes(&self) -> usize {
        self.arena.peak_bytes()
    }

    /// Parks that wanted the arena but fell back to recompute/inline
    /// because the victim's stack would not fit
    /// [`ServeConfig::swap_bytes`]. Always 0 under
    /// [`EvictionMode::Recompute`].
    pub fn swap_fallbacks(&self) -> u64 {
        self.swap_fallbacks
    }

    /// Assert the paged-KV invariants: page conservation
    /// (`free + mapped == total`), no page double-mapped, every page
    /// table exactly covering its cache, swap-arena conservation (every
    /// parked byte owned by exactly one parked sequence's live ticket,
    /// the ledger matching the caches, nothing parked while idle), and —
    /// under worst-case reservation — the ledger in sync and every
    /// sequence (all layers counted) within its reservation. The serving
    /// simulation calls this after every tick.
    ///
    /// # Panics
    /// Panics when an invariant is violated.
    pub fn assert_kv_invariants(&self) {
        self.pool.assert_page_invariants();
        self.arena.assert_swap_invariants();
        let mut swapped = 0usize;
        let mut swapped_bytes = 0usize;
        for s in self.queues.values().flatten() {
            if let Kv::Swapped(ticket) = s.kv {
                swapped += 1;
                swapped_bytes += self.arena.bytes_of(ticket);
            }
        }
        assert_eq!(
            swapped,
            self.arena.len(),
            "arena stacks not owned 1:1 by parked sequences"
        );
        assert_eq!(
            swapped_bytes,
            self.arena.parked_bytes(),
            "parked tickets do not account every arena byte"
        );
        let ledger: usize = self.in_flight.iter().map(|s| s.reserved_pages).sum();
        assert_eq!(
            ledger, self.reserved_pages,
            "reservation ledger out of sync"
        );
        assert!(
            self.reserved_pages <= self.pool.total_pages(),
            "reserved {} pages exceed the pool's {}",
            self.reserved_pages,
            self.pool.total_pages()
        );
        for s in &self.in_flight {
            if s.reserved_pages > 0 {
                assert!(
                    s.stack().pages_held(&self.pool) <= s.reserved_pages,
                    "sequence holds more pages than it reserved"
                );
            }
        }
    }

    /// Queue a plan request. Validation is immediate (shape checks, plan
    /// lookup, and the can-it-ever-fit capacity check); admission happens
    /// on a later [`Self::tick`]. No KV cache exists — and nothing is
    /// mutated — for a rejected request.
    pub fn submit(&mut self, request: ServeRequest<T>) -> Result<RequestId, ServeError> {
        let plan = match request.pattern {
            PatternChoice::Explicit(id) if id.0 < self.plans.len() => id.0,
            PatternChoice::Auto if !self.plans.is_empty() => 0,
            _ => return Err(ServeError::UnknownPlan),
        };
        let total = request.q.rows();
        if total == 0 {
            return Err(ServeError::BadRequest {
                what: "a request needs at least one token",
            });
        }
        if request.k.rows() != total || request.v.rows() != total {
            return Err(ServeError::BadRequest {
                what: "Q/K/V row counts differ",
            });
        }
        if request.q.cols() != request.k.cols() {
            return Err(ServeError::BadRequest {
                what: "Q and K disagree on the key dimension",
            });
        }
        if request.q.cols() == 0 || request.v.cols() == 0 {
            return Err(ServeError::BadRequest {
                what: "key/value dimensions must be positive",
            });
        }
        let out_cols = request.v.cols();
        let source = Source::Plan {
            plan,
            pattern: request.pattern,
            k: request.k,
            v: request.v,
        };
        self.enqueue_new(
            request.priority,
            request.prompt,
            request.q,
            out_cols,
            source,
        )
    }

    /// Queue a decoder-model request. Validation is immediate; admission
    /// happens on a later [`Self::tick`]. The capacity check counts every
    /// layer: a sequence of `total` tokens through an `L`-layer model
    /// needs `L × pages_for(total)` pages resident at completion.
    pub fn submit_model(&mut self, request: ModelRequest<T>) -> Result<RequestId, ServeError> {
        let Some(model) = self.models.get(request.model.0) else {
            return Err(ServeError::UnknownModel);
        };
        if request.x.rows() == 0 {
            return Err(ServeError::BadRequest {
                what: "a request needs at least one token",
            });
        }
        if request.x.cols() != model.d_model() {
            return Err(ServeError::BadRequest {
                what: "input width must match the model's d_model",
            });
        }
        let out_cols = model.d_model();
        let source = Source::Model(request.model.0);
        self.enqueue_new(
            request.priority,
            request.prompt,
            request.x,
            out_cols,
            source,
        )
    }

    /// The checks both request kinds share — the prompt range and the
    /// can-it-ever-fit capacity check over every layer — then queue the
    /// new sequence.
    fn enqueue_new(
        &mut self,
        priority: u8,
        prompt: usize,
        x: Matrix<T>,
        out_cols: usize,
        source: Source<T>,
    ) -> Result<RequestId, ServeError> {
        if prompt == 0 || prompt > x.rows() {
            return Err(ServeError::BadRequest {
                what: "prompt must cover between 1 and all of the rows",
            });
        }
        let id = RequestId(self.next_id);
        let s = Seq {
            id,
            priority,
            prompt,
            pos: 0,
            submitted: self.now,
            admitted: 0,
            preemptions: 0,
            reserved_pages: 0,
            source,
            x,
            out: Matrix::zeros(0, out_cols),
            kv: Kv::Empty,
        };
        let need_pages = self.worst_case_pages(&s);
        if need_pages > self.pool.total_pages() {
            return Err(ServeError::OverCapacity {
                need_pages,
                total_pages: self.pool.total_pages(),
            });
        }
        self.next_id += 1;
        self.enqueue(s);
        Ok(id)
    }

    /// Put a pending or parked sequence on its class's queue, in id order.
    fn enqueue(&mut self, s: Seq<T>) {
        if s.preemptions > 0 {
            self.parked_len += 1;
        } else {
            self.pending_len += 1;
        }
        let queue = self.queues.entry(s.priority).or_default();
        let at = queue.partition_point(|x| x.id < s.id);
        queue.insert(at, s);
    }

    /// Drop a request — pending, parked, or in flight (releasing its KV
    /// pages, every layer's for a model sequence, or its arena bytes).
    /// Returns false when the id is unknown or already completed.
    pub fn cancel(&mut self, id: RequestId) -> bool {
        let queued = self.queues.values_mut().find_map(|queue| {
            let pos = queue.iter().position(|s| s.id == id)?;
            queue.remove(pos)
        });
        let mut s = match queued {
            Some(s) if s.preemptions > 0 => {
                self.parked_len -= 1;
                s
            }
            Some(s) => {
                self.pending_len -= 1;
                s
            }
            None => match self.in_flight.iter().position(|s| s.id == id) {
                Some(pos) => self.in_flight.remove(pos),
                None => return false,
            },
        };
        self.discard_kv(&mut s);
        true
    }

    /// Free what a sequence's KV holds — its pages or its arena bytes —
    /// and its reservation.
    fn discard_kv(&mut self, s: &mut Seq<T>) {
        self.reserved_pages -= s.reserved_pages;
        s.reserved_pages = 0;
        match std::mem::replace(&mut s.kv, Kv::Empty) {
            Kv::Pooled(state) => {
                state.release(&mut self.pool);
            }
            Kv::Swapped(ticket) => {
                let _ = self.arena.take(ticket);
            }
            Kv::Empty | Kv::Inline(_) => {}
        }
    }

    /// Resolve a request's pattern choice to a concrete plan index — the
    /// admission-time cost model behind [`PatternChoice::Auto`]. The
    /// registered plans are ranked cheapest-first by
    /// [`AttentionPlan::estimated_edges`] at the request's prompt length,
    /// and the pool's free-page fraction indexes the ranking: an empty
    /// pool picks the cheapest pattern, a wide-open one the densest. Both
    /// inputs are deterministic scheduler state, so a replayed trace
    /// resolves identically every run.
    fn resolve_pattern(
        plans: &[AttentionPlan<'_>],
        pool: &PagePool<T>,
        pattern: PatternChoice,
        prompt: usize,
    ) -> usize {
        match pattern {
            PatternChoice::Explicit(id) => id.0,
            PatternChoice::Auto => {
                let mut ranked: Vec<usize> = (0..plans.len()).collect();
                ranked.sort_by_key(|&p| (plans[p].estimated_edges(prompt), p));
                let frac = pool.free_pages() as f64 / pool.total_pages() as f64;
                let pick = ((frac * ranked.len() as f64) as usize).min(ranked.len() - 1);
                ranked[pick]
            }
        }
    }

    /// Layers in a sequence's KV stack.
    fn layers(&self, s: &Seq<T>) -> usize {
        match s.source {
            Source::Plan { .. } => 1,
            Source::Model(model) => self.models[model].layers(),
        }
    }

    /// The plan a sequence's layer `l` runs under.
    fn layer_plan(&self, s: &Seq<T>, l: usize) -> &AttentionPlan<'p> {
        match s.source {
            Source::Plan { plan, .. } => &self.plans[plan],
            Source::Model(model) => self.models[model].plan_of(l),
        }
    }

    /// Pages a sequence takes from the pool to hold its KV after its next
    /// unit of work: `layers × pages_for(tokens cached then)`, less the
    /// pages it holds now. The one charge behind fresh paged admission,
    /// resume (a parked or pending sequence holds nothing) and every
    /// tick's appends.
    fn page_need(&self, s: &Seq<T>) -> usize {
        let layers = self.layers(s);
        let after = s.cached_at(s.pos + s.next_rows(self.config.prefill_chunk));
        let held = match s.kv {
            Kv::Pooled(_) => self.pool.pages_for(s.cached_at(s.pos)),
            _ => 0,
        };
        layers * (self.pool.pages_for(after) - held)
    }

    /// Pages a sequence holds at completion — the
    /// [`AdmissionMode::WorstCaseReserve`] charge and the submission-time
    /// capacity check.
    fn worst_case_pages(&self, s: &Seq<T>) -> usize {
        self.layers(s) * self.pool.pages_for(s.total())
    }

    /// True when a sequence's next unit of work provably cannot run: a
    /// plan of its stack pins a key count other than the tokens the
    /// window will see, or bounds the query range below the window's end.
    fn breaks_geometry(&self, s: &Seq<T>) -> bool {
        let q_end = s.pos + s.next_rows(self.config.prefill_chunk);
        let kv_rows = s.cached_at(q_end);
        (0..self.layers(s)).any(|l| {
            let plan = self.layer_plan(s, l);
            plan.kv_pin().is_some_and(|pin| kv_rows != pin)
                || plan.q_bound().is_some_and(|bound| q_end > bound)
        })
    }

    /// Fill a plan sequence's one-layer stack with its own K/V rows up to
    /// `to` tokens, routing their query rows too (a routed plan's cache
    /// carries its routing). Model stacks fill inside the layer advance
    /// instead. The caller granted the pages.
    fn fill_own_rows(pool: &mut PagePool<T>, plans: &[AttentionPlan<'_>], s: &Seq<T>, to: usize) {
        let Source::Plan { plan, k, v, .. } = &s.source else {
            return;
        };
        let seq = s.stack().layer_seqs()[0];
        let from = pool.cache(seq).len();
        if from == to {
            return;
        }
        // One decode row appends in place; longer ranges extend in one
        // reservation.
        let ok = if to == from + 1 {
            pool.try_append(seq, k.row(from), v.row(from))
        } else {
            pool.try_extend(seq, &k.rows_slice(from, to), &v.rows_slice(from, to))
        };
        assert!(ok, "appends were granted their pages");
        if let Some(spec) = plans[*plan].routing_spec() {
            pool.extend_routing(seq, spec, 0, &s.x.rows_slice(from, to))
                .expect("cache routing follows its plan's spec");
        }
    }

    /// Map a sequence's KV stack into the pool at its cursor: re-adopt a
    /// swapped or inline stack whole, or build a fresh one — empty for a
    /// model, refilled with its own K/V rows for a plan. Rebuilt rows (and
    /// their routing, a pure function of the query rows) are
    /// bit-identical to the evicted ones. The caller granted the pages
    /// (both eviction modes need the same count), so failure here is a
    /// scheduler bug.
    fn enter_pool(&mut self, s: &mut Seq<T>) {
        let caches = match std::mem::replace(&mut s.kv, Kv::Empty) {
            Kv::Swapped(ticket) => self.arena.take(ticket),
            Kv::Inline(caches) => caches,
            Kv::Empty => {
                let state = match &s.source {
                    Source::Plan { v, .. } => {
                        ModelKvState::single(s.x.cols(), v.cols(), &mut self.pool)
                    }
                    Source::Model(model) => {
                        ModelKvState::allocate(&self.models[*model], &mut self.pool)
                    }
                };
                s.kv = Kv::Pooled(state);
                Self::fill_own_rows(&mut self.pool, &self.plans, s, s.cached_at(s.pos));
                return;
            }
            Kv::Pooled(_) => panic!("an in-flight sequence is already in the pool"),
        };
        let Ok(state) = ModelKvState::adopt(caches, &mut self.pool) else {
            panic!("resume was granted its pages");
        };
        s.kv = Kv::Pooled(state);
    }

    /// Evict an in-flight sequence's KV from the pool. Its pages always
    /// return to the free list and its computed output rows are kept;
    /// under [`EvictionMode::Swap`] the stack parks in the arena, and
    /// otherwise — or when the arena's byte cap refuses it — a plan
    /// sequence's cache is dropped (resume rebuilds it from its own rows)
    /// and a model sequence's computed stack is held inline. Parking
    /// never fails.
    fn park(&mut self, s: &mut Seq<T>) {
        let Kv::Pooled(state) = std::mem::replace(&mut s.kv, Kv::Empty) else {
            panic!("only in-flight sequences park");
        };
        let caches = state.release(&mut self.pool);
        let caches = match self.config.eviction {
            EvictionMode::Swap => match self.arena.try_park(caches) {
                Ok(ticket) => {
                    s.kv = Kv::Swapped(ticket);
                    return;
                }
                Err(caches) => caches,
            },
            EvictionMode::Recompute => caches,
        };
        if let Source::Model(_) = s.source {
            s.kv = Kv::Inline(caches);
        }
    }

    /// Admit eligible sequences in (priority class, id) order until one
    /// does not fit — within a class, parked sequences resume before
    /// anything pending is admitted. A fresh sequence resolves its plan,
    /// takes its output buffer and enters the pool at cursor 0; a resumed
    /// one re-enters at its cursor.
    ///
    /// `append_needs` is the page count this tick's already-running
    /// appends will consume; paged admission keeps that many pages off
    /// the table so admission can never force a preemption in the same
    /// tick.
    fn admit(&mut self, now: u64, append_needs: usize) -> (Vec<RequestId>, Vec<RequestId>) {
        let mut fresh = Vec::new();
        let mut resumed = Vec::new();
        let mut headroom = match self.config.admission {
            AdmissionMode::PagedUsage => self.pool.free_pages().saturating_sub(append_needs),
            AdmissionMode::WorstCaseReserve => self.pool.total_pages() - self.reserved_pages,
        };
        let classes: Vec<u8> = self.queues.keys().copied().collect();
        'classes: for class in classes {
            while let Some(front) = self.queues[&class].front() {
                let is_fresh = front.preemptions == 0;
                if now < front.submitted + self.config.arrival_window {
                    // Class head still batching arrivals (only a pending
                    // head can be: a parked one was admitted after its
                    // window); it does not block other classes, and FIFO
                    // within the class holds — later requests are younger.
                    break;
                }
                if self.in_flight.len() >= self.config.max_in_flight {
                    break 'classes;
                }
                let need = match self.config.admission {
                    AdmissionMode::WorstCaseReserve if is_fresh => self.worst_case_pages(front),
                    _ => self.page_need(front),
                };
                if need > headroom {
                    // An eligible head that cannot be placed blocks all
                    // lower-priority admission: no overtaking, so every
                    // placeable request is eventually admitted.
                    break 'classes;
                }
                headroom -= need;
                let queue = self.queues.get_mut(&class).expect("class exists");
                let mut s = queue.pop_front().expect("front exists");
                if is_fresh {
                    self.pending_len -= 1;
                    if let Source::Plan { plan, pattern, .. } = &mut s.source {
                        *plan = Self::resolve_pattern(&self.plans, &self.pool, *pattern, s.prompt);
                    }
                    s.admitted = now;
                    s.out = Matrix::zeros(s.total(), s.out.cols());
                    if self.config.admission == AdmissionMode::WorstCaseReserve {
                        s.reserved_pages = need;
                        self.reserved_pages += need;
                    }
                    fresh.push(s.id);
                } else {
                    self.parked_len -= 1;
                    resumed.push(s.id);
                }
                self.enter_pool(&mut s);
                self.in_flight.push(s);
            }
        }
        (fresh, resumed)
    }

    /// Advance the virtual clock by one tick: admit (resuming preempted
    /// sequences first), preempt if this tick's appends outstrip the free
    /// pages, gather every in-flight sequence's next unit of work, launch
    /// it all batched (one `run_batch` per distinct plan, plus one per
    /// layer per distinct model), apply outputs, and retire finished
    /// sequences.
    ///
    /// On a launch failure the tick is rolled back atomically — appends
    /// truncated (pages returned), victims resumed in place, admissions
    /// un-admitted, no cursor or clock movement — and the returned error
    /// names the offending request when identifiable; see the [module
    /// docs](self).
    pub fn tick(&mut self) -> Result<TickReport<T>, ServeError> {
        let now = self.now;
        let chunk = self.config.prefill_chunk;

        // Pages this tick's appends will consume, counted before
        // admission so newcomers cannot take them. Because of this guard,
        // a tick admits or preempts, never both — which is what lets the
        // rollback below restore victims at their exact positions.
        let pre_needs: usize = self.in_flight.iter().map(|s| self.page_need(s)).sum();
        let (admitted, resumed) = self.admit(now, pre_needs);

        // Preemption resolution: when the appends still outstrip the free
        // pages (growth of previously admitted sequences, not admission),
        // grant appends from most urgent to least, evicting from the
        // opposite end.
        let needs: Vec<usize> = self.in_flight.iter().map(|s| self.page_need(s)).collect();
        let mut staged: Vec<(usize, Seq<T>)> = Vec::new();
        let mut preempted: Vec<RequestId> = Vec::new();
        if needs.iter().sum::<usize>() > self.pool.free_pages() {
            debug_assert!(
                admitted.is_empty() && resumed.is_empty(),
                "the admission guard makes admit-and-preempt ticks impossible"
            );
            // Urgency = admission order under strict priority: class
            // ascending, in-flight position (admission recency) ascending.
            let mut urgency: Vec<usize> = (0..self.in_flight.len()).collect();
            urgency.sort_by_key(|&i| (self.in_flight[i].priority, i));
            let mut available = self.pool.free_pages();
            let mut victim = vec![false; self.in_flight.len()];
            let mut hi = urgency.len();
            for p in 0..urgency.len() {
                if p >= hi {
                    break; // everyone from here on is already a victim
                }
                let i = urgency[p];
                let need = needs[i];
                while need > available && hi > p + 1 {
                    hi -= 1;
                    let v = urgency[hi];
                    victim[v] = true;
                    available += self.in_flight[v].stack().pages_held(&self.pool);
                }
                if need <= available {
                    available -= need;
                } else {
                    // Even with every less-urgent sequence evicted the
                    // append does not fit: this sequence parks too. The
                    // most urgent sequence can never land here — its
                    // held + need never exceeds `layers × pages_for(total)`,
                    // which fits the pool by the submission check — so at
                    // least one sequence always advances: no livelock.
                    victim[i] = true;
                    hi = p;
                }
            }
            for i in (0..self.in_flight.len()).rev() {
                if victim[i] {
                    let mut s = self.in_flight.remove(i);
                    self.park(&mut s);
                    staged.push((i, s));
                }
            }
            staged.reverse(); // ascending original index, for restore
            preempted = staged.iter().map(|(_, s)| s.id).collect();
        }

        // Pre-append cache lengths of every surviving sequence — the
        // rollback point if any launch below fails.
        let priors: Vec<usize> = self
            .in_flight
            .iter()
            .map(|s| s.stack().tokens(&self.pool))
            .collect();

        // Plan sequences append their own K/V rows for this tick's work
        // now (a decode row; a prefill chunk's rows are cached already);
        // model sequences append inside the layer advance below. Every
        // append was granted its pages above.
        for s in &self.in_flight {
            let to = s.cached_at(s.pos + s.next_rows(chunk));
            Self::fill_own_rows(&mut self.pool, &self.plans, s, to);
        }

        // One launch group per plan and per model (BTreeMap keyed
        // (is model, index): deterministic launch order, plans first).
        let mut groups: BTreeMap<(bool, usize), Vec<usize>> = BTreeMap::new();
        for (i, s) in self.in_flight.iter().enumerate() {
            let key = match s.source {
                Source::Plan { plan, .. } => (false, plan),
                Source::Model(model) => (true, model),
            };
            groups.entry(key).or_default().push(i);
        }
        let windows: Vec<Matrix<T>> = self
            .in_flight
            .iter()
            .map(|s| s.x.rows_slice(s.pos, s.pos + s.next_rows(chunk)))
            .collect();
        let mut outputs: Vec<Option<Matrix<T>>> = (0..windows.len()).map(|_| None).collect();
        let mut rows_computed = 0usize;
        let mut launches = 0usize;
        let mut failure: Option<(Option<RequestId>, AttnError)> = None;
        for (&(is_model, index), items) in &groups {
            let result = if is_model {
                let work: Vec<ModelWorkItem<'_, T>> = items
                    .iter()
                    .map(|&i| ModelWorkItem {
                        x: &windows[i],
                        state: self.in_flight[i].stack(),
                    })
                    .collect();
                // The layer advance rolls its own appends back. Page
                // grants and item validation happened above, so only a
                // kernel-geometry failure can reach the error arm.
                match self.models[index].advance_batched(&self.engine, &mut self.pool, &work) {
                    Ok(adv) => Ok((adv.launches, adv.rows, adv.outputs)),
                    Err(ModelError::Attn(e)) => Err(e),
                    Err(other) => panic!("model advance was granted pages and validated: {other}"),
                }
            } else {
                let requests: Vec<AttentionRequest<'_, T>> = items
                    .iter()
                    .map(|&i| {
                        let s = &self.in_flight[i];
                        let cache = self.pool.cache(s.stack().layer_seqs()[0]);
                        // Static plans ignore an attached routing; routed
                        // plans require the one their cache carries.
                        AttentionRequest::windowed(&windows[i], cache.k(0), cache.v(0), s.pos)
                            .with_routing(cache.routing(0))
                    })
                    .collect();
                self.engine
                    .run_batch(&self.plans[index], &requests)
                    .map(|outs| (1, outs.iter().map(Matrix::rows).sum(), outs))
            };
            match result {
                Ok((group_launches, rows, outs)) => {
                    launches += group_launches;
                    rows_computed += rows;
                    for (&i, out) in items.iter().zip(outs) {
                        outputs[i] = Some(out);
                    }
                }
                Err(e) => {
                    // The engine reports one error per batch; re-check the
                    // failed group's geometries against its compiled
                    // constraints to name the offender, so callers can
                    // cancel it and recover.
                    let offender = items
                        .iter()
                        .map(|&i| &self.in_flight[i])
                        .find(|s| self.breaks_geometry(s))
                        .map(|s| s.id);
                    failure = Some((offender, e));
                    break;
                }
            }
        }
        if let Some((offender, e)) = failure {
            // Atomic rollback, part 1: every layer of every surviving
            // sequence's stack back to its pre-append length, returning
            // this tick's granted pages; no cursor or clock movement.
            for (s, &prior) in self.in_flight.iter().zip(&priors) {
                s.stack().truncate(&mut self.pool, prior);
            }
            // Part 2a: un-preempt this tick's victims — resume each one
            // at its exact former position. Page conservation covers the
            // restores: the survivors' truncation returned every page the
            // grants took, and those grants were funded by the victims'
            // own releases.
            for (index, mut s) in staged {
                self.enter_pool(&mut s);
                self.in_flight.insert(index, s);
            }
            // Part 2b: un-admit this tick's admissions — pop them from the
            // in-flight tail and queue them again in id order, so a failed
            // tick leaves NO trace. A resumed sequence re-parks with the
            // configured mode (under Swap, its resume just freed exactly
            // these arena bytes, so it parks as it was parked before); a
            // fresh one releases everything and goes back with its
            // original pattern choice.
            for _ in 0..admitted.len() + resumed.len() {
                let mut s = self.in_flight.pop().expect("admissions sit at the tail");
                if s.preemptions > 0 {
                    self.park(&mut s);
                } else {
                    self.discard_kv(&mut s);
                }
                self.enqueue(s);
            }
            return Err(ServeError::Launch {
                request: offender,
                source: e,
            });
        }

        // Apply outputs and advance each sequence's cursor.
        for (s, out) in self.in_flight.iter_mut().zip(outputs) {
            let out = out.expect("all launches succeeded");
            for r in 0..out.rows() {
                s.out.row_mut(s.pos + r).copy_from_slice(out.row(r));
            }
            s.pos += out.rows();
        }

        // Retire completed sequences (in in-flight — i.e. admission —
        // order), releasing their KV pages.
        let mut completed = Vec::new();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].pos == self.in_flight[i].total() {
                let mut s = self.in_flight.remove(i);
                self.discard_kv(&mut s);
                completed.push(Completion {
                    id: s.id,
                    priority: s.priority,
                    target: s.target(),
                    output: s.out,
                    submitted: s.submitted,
                    admitted: s.admitted,
                    completed: now,
                    preemptions: s.preemptions,
                });
            } else {
                i += 1;
            }
        }

        // Commit this tick's preemptions: victims move to their class
        // queues (id order = original admission order within the class).
        for (_, mut s) in staged {
            s.preemptions += 1;
            self.preemption_events += 1;
            if self.config.eviction == EvictionMode::Swap && !matches!(s.kv, Kv::Swapped(_)) {
                self.swap_fallbacks += 1;
            }
            self.enqueue(s);
        }

        self.now += 1;
        Ok(TickReport {
            tick: now,
            admitted,
            resumed,
            preempted,
            launches,
            rows_computed,
            completed,
        })
    }
}

impl<T: Real> std::fmt::Debug for Scheduler<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("plans", &self.plans.len())
            .field("models", &self.models.len())
            .field("pending", &self.pending_len)
            .field("parked", &self.parked_len)
            .field("in_flight", &self.in_flight.len())
            .field("free_pages", &self.pool.free_pages())
            .field("total_pages", &self.pool.total_pages())
            .field("preemptions", &self.preemption_events)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_core::AttentionKernel;
    use gpa_model::LayerPattern;
    use gpa_tensor::init::{gaussian_matrix, qkv};

    fn request(
        plan: PlanId,
        priority: u8,
        prompt: usize,
        total: usize,
        seed: u64,
    ) -> ServeRequest<f64> {
        let (q, k, v) = qkv::<f64>(total, 4, seed);
        ServeRequest {
            pattern: plan.into(),
            priority,
            prompt,
            q,
            k,
            v,
        }
    }

    fn scheduler(config: ServeConfig) -> (Scheduler<'static, f64>, PlanId) {
        let mut s = Scheduler::new(AttentionEngine::with_threads(2), config).unwrap();
        let plan = s
            .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap())
            .unwrap();
        (s, plan)
    }

    /// A 3-layer Full/Sparse/Full stack over implicit (length-free)
    /// kernels, d_model 12, 3 heads of dk 4.
    fn stack() -> DecoderModel<'static, f64> {
        DecoderModel::new(
            LayerPattern::parse("FSF").unwrap(),
            vec![
                (
                    'F',
                    AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap(),
                ),
                (
                    'S',
                    AttentionPlan::single(AttentionKernel::Dilated1d { w: 2, r: 2 }).unwrap(),
                ),
            ],
            12,
            3,
            4,
            0xBEEF,
        )
        .unwrap()
    }

    fn model_scheduler(config: ServeConfig) -> (Scheduler<'static, f64>, ModelId) {
        let mut s = Scheduler::new(AttentionEngine::with_threads(2), config).unwrap();
        let model = s.register_model(stack());
        (s, model)
    }

    fn model_request(
        model: ModelId,
        priority: u8,
        prompt: usize,
        total: usize,
        seed: u64,
    ) -> ModelRequest<f64> {
        ModelRequest {
            model,
            priority,
            prompt,
            x: gaussian_matrix(total, 12, 1.0, seed),
        }
    }

    #[test]
    fn config_validation() {
        for bad in [
            ServeConfig {
                max_in_flight: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                prefill_chunk: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                kv_pages: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                page_size: 0,
                ..ServeConfig::default()
            },
        ] {
            assert!(matches!(
                Scheduler::<f64>::new(AttentionEngine::with_threads(1), bad),
                Err(ServeError::BadConfig { .. })
            ));
        }
    }

    #[test]
    fn submit_validation_rejects_bad_requests() {
        let (mut s, plan) = scheduler(ServeConfig {
            kv_pages: 4,
            page_size: 4,
            ..ServeConfig::default()
        });
        // Unknown plan.
        let r = request(PlanId(9), 0, 2, 4, 1);
        assert_eq!(s.submit(r), Err(ServeError::UnknownPlan));
        // Prompt outside 1..=total.
        let r = request(plan, 0, 0, 4, 2);
        assert!(matches!(s.submit(r), Err(ServeError::BadRequest { .. })));
        let r = request(plan, 0, 5, 4, 3);
        assert!(matches!(s.submit(r), Err(ServeError::BadRequest { .. })));
        // Mismatched K rows.
        let mut r = request(plan, 0, 2, 4, 4);
        r.k = Matrix::zeros(3, 4);
        assert!(matches!(s.submit(r), Err(ServeError::BadRequest { .. })));
        // Over the whole pool (17 tokens = 5 pages of 4): rejected at
        // submission.
        let r = request(plan, 0, 2, 17, 5);
        assert_eq!(
            s.submit(r),
            Err(ServeError::OverCapacity {
                need_pages: 5,
                total_pages: 4
            })
        );
        assert!(s.is_idle(), "rejected requests leave no state behind");
        assert_eq!(s.kv_used_tokens(), 0);
    }

    #[test]
    fn submit_model_validation_counts_every_layer() {
        let (mut s, model) = model_scheduler(ServeConfig {
            kv_pages: 6,
            page_size: 4,
            ..ServeConfig::default()
        });
        // Unknown model.
        let r = model_request(ModelId(9), 0, 2, 4, 1);
        assert_eq!(s.submit_model(r), Err(ServeError::UnknownModel));
        // Wrong input width.
        let mut r = model_request(model, 0, 2, 4, 2);
        r.x = Matrix::zeros(4, 5);
        assert!(matches!(
            s.submit_model(r),
            Err(ServeError::BadRequest { .. })
        ));
        // Prompt outside 1..=total.
        let r = model_request(model, 0, 5, 4, 3);
        assert!(matches!(
            s.submit_model(r),
            Err(ServeError::BadRequest { .. })
        ));
        // 12 tokens = 3 pages of 4, × 3 layers = 9 > the pool's 6: the
        // capacity check must count every layer.
        let r = model_request(model, 0, 2, 12, 4);
        assert_eq!(
            s.submit_model(r),
            Err(ServeError::OverCapacity {
                need_pages: 9,
                total_pages: 6
            })
        );
        assert!(s.is_idle(), "rejected requests leave no state behind");
        assert_eq!(s.kv_used_tokens(), 0);
    }

    #[test]
    fn dense_plans_cannot_register() {
        let mut s: Scheduler<'static, f64> =
            Scheduler::new(AttentionEngine::with_threads(1), ServeConfig::default()).unwrap();
        assert!(matches!(
            s.register_plan(AttentionPlan::single(AttentionKernel::Flash).unwrap()),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn single_sequence_runs_to_completion() {
        let (mut s, plan) = scheduler(ServeConfig {
            max_in_flight: 4,
            kv_pages: 16,
            page_size: 4,
            arrival_window: 0,
            prefill_chunk: 3,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Recompute,
            swap_bytes: usize::MAX,
        });
        let id = s.submit(request(plan, 0, 7, 10, 11)).unwrap();
        let mut completions = Vec::new();
        for _ in 0..32 {
            completions.extend(s.tick().unwrap().completed);
            if s.is_idle() {
                break;
            }
        }
        assert!(s.is_idle());
        assert_eq!(completions.len(), 1);
        let c = &completions[0];
        assert_eq!(c.id, id);
        assert_eq!(c.target, ServeTarget::Plan(plan));
        assert_eq!(c.output.shape(), (10, 4));
        assert_eq!(c.preemptions, 0);
        // ceil(7/3) = 3 prefill ticks + 3 decode ticks, admitted at tick 0.
        assert_eq!(c.admitted, 0);
        assert_eq!(c.completed, 5);
        assert_eq!(s.kv_used_pages(), 0, "pages released on completion");
    }

    #[test]
    fn model_sequence_completes_bitwise_with_the_sequential_forward() {
        let (mut s, model) = model_scheduler(ServeConfig {
            max_in_flight: 4,
            kv_pages: 64,
            page_size: 4,
            arrival_window: 0,
            prefill_chunk: 3,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Recompute,
            swap_bytes: usize::MAX,
        });
        let r = model_request(model, 0, 7, 10, 11);
        let id = s.submit_model(r.clone()).unwrap();
        let mut completions = Vec::new();
        for _ in 0..32 {
            completions.extend(s.tick().unwrap().completed);
            s.assert_kv_invariants();
            if s.is_idle() {
                break;
            }
        }
        assert!(s.is_idle());
        assert_eq!(completions.len(), 1);
        let c = &completions[0];
        assert_eq!(c.id, id);
        assert_eq!(c.target, ServeTarget::Model(model));
        assert_eq!(c.output.shape(), (10, 12));
        // Same chunk schedule as the scheduler (ceil(7/3) chunks + 3
        // decode steps), so the serving path must reproduce the
        // unscheduled forward bitwise.
        let want =
            crate::trace::sequential_model_reference(s.engine(), s.model(model), &r, 3).unwrap();
        assert_eq!(c.output, want);
        assert_eq!(s.kv_used_pages(), 0, "all layers released on completion");
    }

    #[test]
    fn mixed_plan_and_model_work_share_one_tick() {
        let (mut s, model) = model_scheduler(ServeConfig {
            max_in_flight: 4,
            kv_pages: 64,
            page_size: 4,
            arrival_window: 0,
            prefill_chunk: 8,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Recompute,
            swap_bytes: usize::MAX,
        });
        let plan = s
            .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap())
            .unwrap();
        let a = s.submit(request(plan, 0, 4, 6, 21)).unwrap();
        let b = s.submit_model(model_request(model, 0, 4, 6, 22)).unwrap();
        let r = s.tick().unwrap();
        assert_eq!(r.admitted, vec![a, b]);
        // One plan launch + one launch per layer of the 3-layer stack.
        assert_eq!(r.launches, 1 + 3);
        // 4 prefill rows for the plan sequence; the model sequence's 4
        // rows × 3 heads × 3 layers.
        assert_eq!(r.rows_computed, 4 + 4 * 3 * 3);
        let mut completions = Vec::new();
        for _ in 0..16 {
            completions.extend(s.tick().unwrap().completed);
            s.assert_kv_invariants();
            if s.is_idle() {
                break;
            }
        }
        assert_eq!(completions.len(), 2);
        assert_eq!(completions[0].target, ServeTarget::Plan(plan));
        assert_eq!(completions[1].target, ServeTarget::Model(model));
    }

    #[test]
    fn admission_respects_pages_and_in_flight_caps() {
        let (mut s, plan) = scheduler(ServeConfig {
            max_in_flight: 1,
            kv_pages: 2,
            page_size: 4,
            arrival_window: 0,
            prefill_chunk: 8,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Recompute,
            swap_bytes: usize::MAX,
        });
        // Both fit the pool alone; the cap admits them one at a time.
        s.submit(request(plan, 0, 2, 3, 21)).unwrap();
        s.submit(request(plan, 0, 2, 3, 22)).unwrap();
        let r = s.tick().unwrap();
        assert_eq!(r.admitted.len(), 1);
        assert_eq!(s.in_flight_len(), 1);
        assert_eq!(s.pending_len(), 1);
        s.assert_kv_invariants();
        for _ in 0..16 {
            if s.is_idle() {
                break;
            }
            s.tick().unwrap();
            s.assert_kv_invariants();
        }
        assert!(s.is_idle());
    }

    #[test]
    fn paged_admission_packs_by_usage_not_worst_case() {
        // 8 pages × 4 tokens. Each request: 4-token prompt (1 page) but a
        // 24-token total (6 pages). Worst-case reservation admits one at
        // a time (6 of 8 pages reserved); paged admission packs all four
        // prompts into half the pool.
        let config = ServeConfig {
            max_in_flight: 4,
            kv_pages: 8,
            page_size: 4,
            arrival_window: 0,
            prefill_chunk: 8,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Recompute,
            swap_bytes: usize::MAX,
        };
        let (mut paged, plan) = scheduler(config);
        for seed in 0..4 {
            paged.submit(request(plan, 0, 4, 24, 31 + seed)).unwrap();
        }
        let r = paged.tick().unwrap();
        assert_eq!(r.admitted.len(), 4, "paged admission packs by usage");
        assert_eq!(paged.kv_used_pages(), 4);

        let (mut reserve, plan) = scheduler(ServeConfig {
            admission: AdmissionMode::WorstCaseReserve,
            eviction: EvictionMode::Recompute,
            swap_bytes: usize::MAX,
            ..config
        });
        for seed in 0..4 {
            reserve.submit(request(plan, 0, 4, 24, 31 + seed)).unwrap();
        }
        let r = reserve.tick().unwrap();
        assert_eq!(r.admitted.len(), 1, "reservation strands the pool");
        assert_eq!(reserve.kv_reserved_pages(), 6);
        reserve.assert_kv_invariants();
    }

    #[test]
    fn preemption_parks_the_youngest_and_resumes_it_to_completion() {
        // 3 pages × 2 tokens. Two sequences of 2-prompt/4-decode: each
        // needs 3 pages at completion, both admit on 1 page each. When
        // their decode appends collide on the last free page, the
        // more-recently-admitted sequence must park and later resume.
        let (mut s, plan) = scheduler(ServeConfig {
            max_in_flight: 2,
            kv_pages: 3,
            page_size: 2,
            arrival_window: 0,
            prefill_chunk: 4,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Recompute,
            swap_bytes: usize::MAX,
        });
        let a = s.submit(request(plan, 0, 2, 6, 61)).unwrap();
        let b = s.submit(request(plan, 0, 2, 6, 62)).unwrap();
        let mut completions = Vec::new();
        let mut preempted = Vec::new();
        let mut resumed = Vec::new();
        for _ in 0..64 {
            let r = s.tick().unwrap();
            s.assert_kv_invariants();
            preempted.extend(r.preempted);
            resumed.extend(r.resumed);
            completions.extend(r.completed);
            if s.is_idle() {
                break;
            }
        }
        assert!(s.is_idle());
        assert_eq!(preempted, vec![b], "the younger sequence is the victim");
        assert_eq!(resumed, vec![b]);
        assert!(s.preemption_events() >= 1);
        assert_eq!(completions.len(), 2);
        assert_eq!(completions[0].id, a);
        assert_eq!(completions[0].preemptions, 0);
        assert_eq!(completions[1].id, b);
        assert_eq!(completions[1].preemptions, 1);
        assert_eq!(s.kv_used_pages(), 0);
    }

    #[test]
    fn model_preemption_retains_every_layer_and_resumes_bitwise() {
        // 9 pages × 2 tokens, 3-layer stack. Two sequences of 2-prompt/
        // 4-decode: each holds 3 pages after prefill (1 page × 3 layers)
        // and needs 9 at completion. Their first decode appends (3 pages
        // each, page boundary at 2 tokens) collide: B parks — all three
        // layers' caches retained — and resumes after A finishes.
        let (mut s, model) = model_scheduler(ServeConfig {
            max_in_flight: 2,
            kv_pages: 9,
            page_size: 2,
            arrival_window: 0,
            prefill_chunk: 4,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Recompute,
            swap_bytes: usize::MAX,
        });
        let ra = model_request(model, 0, 2, 6, 71);
        let rb = model_request(model, 0, 2, 6, 72);
        let a = s.submit_model(ra.clone()).unwrap();
        let b = s.submit_model(rb.clone()).unwrap();
        let mut completions = Vec::new();
        let mut preempted = Vec::new();
        let mut resumed = Vec::new();
        for _ in 0..64 {
            let r = s.tick().unwrap();
            s.assert_kv_invariants();
            preempted.extend(r.preempted);
            resumed.extend(r.resumed);
            completions.extend(r.completed);
            if s.is_idle() {
                break;
            }
        }
        assert!(s.is_idle());
        assert_eq!(preempted, vec![b], "the younger sequence is the victim");
        assert_eq!(resumed, vec![b]);
        assert_eq!(completions.len(), 2);
        assert_eq!(completions[0].id, a);
        assert_eq!(completions[1].id, b);
        assert_eq!(completions[1].preemptions, 1);
        // Preempt-and-resume must not perturb a single bit of either
        // output.
        let chunk = s.config().prefill_chunk;
        for (c, r) in [(&completions[0], &ra), (&completions[1], &rb)] {
            let want =
                crate::trace::sequential_model_reference(s.engine(), s.model(model), r, chunk)
                    .unwrap();
            assert_eq!(c.output, want);
        }
        assert_eq!(s.kv_used_pages(), 0);
    }

    #[test]
    fn swap_eviction_resumes_plan_sequences_bitwise() {
        // The plan-sequence page squeeze under EvictionMode::Swap: the
        // victim's cache transits the arena instead of being recomputed,
        // and the completion is still bitwise the sequential serve.
        let (mut s, plan) = scheduler(ServeConfig {
            max_in_flight: 2,
            kv_pages: 3,
            page_size: 2,
            arrival_window: 0,
            prefill_chunk: 4,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Swap,
            swap_bytes: usize::MAX,
        });
        let ra = request(plan, 0, 2, 6, 61);
        let rb = request(plan, 0, 2, 6, 62);
        let a = s.submit(ra.clone()).unwrap();
        let b = s.submit(rb.clone()).unwrap();
        let mut completions = Vec::new();
        let mut resumed = Vec::new();
        for _ in 0..64 {
            let r = s.tick().unwrap();
            s.assert_kv_invariants();
            resumed.extend(r.resumed);
            completions.extend(r.completed);
            if s.is_idle() {
                break;
            }
        }
        assert!(s.is_idle());
        assert_eq!(resumed, vec![b], "the swapped victim resumes");
        assert!(s.swap_peak_bytes() > 0, "the park must transit the arena");
        assert_eq!(s.swap_fallbacks(), 0);
        assert_eq!(s.swap_parked_bytes(), 0, "resume drains the arena");
        let chunk = s.config().prefill_chunk;
        for (c, r, id) in [(&completions[0], &ra, a), (&completions[1], &rb, b)] {
            assert_eq!(c.id, id);
            let want =
                crate::trace::sequential_reference(s.engine(), s.plan(plan), r, chunk).unwrap();
            assert_eq!(c.output, want, "swap-mode serving must be bitwise");
        }
        assert_eq!(s.kv_used_pages(), 0);
    }

    #[test]
    fn swap_eviction_resumes_model_stacks_bitwise() {
        // The 3-layer squeeze under EvictionMode::Swap: the victim's
        // whole stack parks as one arena entry and re-adopts atomically.
        let (mut s, model) = model_scheduler(ServeConfig {
            max_in_flight: 2,
            kv_pages: 9,
            page_size: 2,
            arrival_window: 0,
            prefill_chunk: 4,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Swap,
            swap_bytes: usize::MAX,
        });
        let ra = model_request(model, 0, 2, 6, 71);
        let rb = model_request(model, 0, 2, 6, 72);
        let a = s.submit_model(ra.clone()).unwrap();
        let b = s.submit_model(rb.clone()).unwrap();
        let mut completions = Vec::new();
        let mut peak_parked = 0usize;
        for _ in 0..64 {
            let r = s.tick().unwrap();
            s.assert_kv_invariants();
            peak_parked = peak_parked.max(s.swap_parked_bytes());
            completions.extend(r.completed);
            if s.is_idle() {
                break;
            }
        }
        assert!(s.is_idle());
        // At park time the victim holds 2 prompt tokens across 3 layers
        // of 3 heads × dk 4 — the arena entry is the whole stack.
        assert!(
            peak_parked >= 3 * 2 * 3 * (4 + 4) * std::mem::size_of::<f64>(),
            "the parked entry must hold all three layers ({peak_parked} bytes)"
        );
        assert_eq!(s.swap_fallbacks(), 0);
        assert_eq!(s.swap_parked_bytes(), 0);
        let chunk = s.config().prefill_chunk;
        assert_eq!(completions.len(), 2);
        assert_eq!((completions[0].id, completions[1].id), (a, b));
        for (c, r) in [(&completions[0], &ra), (&completions[1], &rb)] {
            let want =
                crate::trace::sequential_model_reference(s.engine(), s.model(model), r, chunk)
                    .unwrap();
            assert_eq!(c.output, want, "swapped stacks must resume bitwise");
        }
        assert_eq!(s.kv_used_pages(), 0);
    }

    #[test]
    fn cancel_while_swap_parked_reclaims_arena_bytes() {
        // Cancelling a sequence whose cache lives in the swap arena must
        // free the arena bytes immediately — no orphaned entries.
        let (mut s, plan) = scheduler(ServeConfig {
            max_in_flight: 2,
            kv_pages: 3,
            page_size: 2,
            arrival_window: 0,
            prefill_chunk: 4,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Swap,
            swap_bytes: usize::MAX,
        });
        let _a = s.submit(request(plan, 0, 2, 6, 51)).unwrap();
        let b = s.submit(request(plan, 0, 2, 6, 52)).unwrap();
        for _ in 0..16 {
            if s.parked_len() > 0 {
                break;
            }
            s.tick().unwrap();
        }
        assert_eq!(s.parked_len(), 1, "b parked under page pressure");
        assert!(s.swap_parked_bytes() > 0, "b's cache lives in the arena");
        assert!(s.cancel(b), "parked cancel");
        assert_eq!(s.swap_parked_bytes(), 0, "cancel reclaims the arena bytes");
        s.assert_kv_invariants();
        // The survivor still drains normally.
        for _ in 0..32 {
            s.tick().unwrap();
            if s.is_idle() {
                break;
            }
        }
        assert!(s.is_idle());
        assert_eq!(s.kv_used_pages(), 0);
    }

    #[test]
    fn routed_sequences_preempt_and_resume_bitwise() {
        // The preemption squeeze from above, on a routed plan: the cache
        // carries the routing, eviction drops both, and resume rebuilds
        // both from the retained q/k/v rows — the victim's output must
        // still be bitwise the uninterrupted sequential serve.
        let mut s: Scheduler<'static, f64> = Scheduler::new(
            AttentionEngine::with_threads(2),
            ServeConfig {
                max_in_flight: 2,
                kv_pages: 3,
                page_size: 2,
                arrival_window: 0,
                prefill_chunk: 4,
                admission: AdmissionMode::PagedUsage,
                eviction: EvictionMode::Recompute,
                swap_bytes: usize::MAX,
            },
        )
        .unwrap();
        let plan = s
            .register_plan(
                AttentionPlan::single(AttentionKernel::Routed {
                    groups: 2,
                    seed: 0x0DDB,
                    causal: true,
                })
                .unwrap(),
            )
            .unwrap();
        let ra = request(plan, 0, 2, 6, 61);
        let rb = request(plan, 0, 2, 6, 62);
        let a = s.submit(ra.clone()).unwrap();
        let b = s.submit(rb.clone()).unwrap();
        let mut completions = Vec::new();
        let mut preempted = Vec::new();
        for _ in 0..64 {
            let r = s.tick().unwrap();
            s.assert_kv_invariants();
            preempted.extend(r.preempted);
            completions.extend(r.completed);
            if s.is_idle() {
                break;
            }
        }
        assert!(s.is_idle());
        assert_eq!(preempted, vec![b], "the younger routed sequence parks");
        assert_eq!(completions.len(), 2);
        let chunk = s.config().prefill_chunk;
        for (c, r, id) in [(&completions[0], &ra, a), (&completions[1], &rb, b)] {
            assert_eq!(c.id, id);
            let want =
                crate::trace::sequential_reference(s.engine(), s.plan(plan), r, chunk).unwrap();
            assert_eq!(c.output, want, "routed serving must be bitwise");
        }
        assert_eq!(s.kv_used_pages(), 0);
    }

    #[test]
    fn auto_pattern_resolves_by_cost_and_page_pressure() {
        // Two plans: a 1-wide local window (cheapest) and a 64-wide one
        // (dense at these lengths). Auto picks along the cheapest-first
        // ranking by free-page fraction.
        let mk = || {
            let mut s: Scheduler<'static, f64> = Scheduler::new(
                AttentionEngine::with_threads(2),
                ServeConfig {
                    max_in_flight: 4,
                    kv_pages: 4,
                    page_size: 4,
                    arrival_window: 0,
                    prefill_chunk: 4,
                    admission: AdmissionMode::PagedUsage,
                    eviction: EvictionMode::Recompute,
                    swap_bytes: usize::MAX,
                },
            )
            .unwrap();
            let sparse = s
                .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 1 }).unwrap())
                .unwrap();
            let dense = s
                .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 64 }).unwrap())
                .unwrap();
            (s, sparse, dense)
        };
        let auto_request = |prompt: usize, total: usize, seed: u64| {
            let mut r = request(PlanId(0), 0, prompt, total, seed);
            r.pattern = PatternChoice::Auto;
            r
        };

        // Empty pool → free fraction 1 → the densest pattern.
        let (mut s, _, dense) = mk();
        let id = s.submit(auto_request(4, 4, 81)).unwrap();
        let mut completions = Vec::new();
        for _ in 0..16 {
            completions.extend(s.tick().unwrap().completed);
            if s.is_idle() {
                break;
            }
        }
        let c = completions.iter().find(|c| c.id == id).unwrap();
        assert_eq!(
            c.target,
            ServeTarget::Plan(dense),
            "a wide-open pool affords the densest pattern"
        );

        // 3 of 4 pages taken → free fraction 1/4 → the sparsest.
        let (mut s, sparse, _) = mk();
        s.submit(request(PlanId(0), 0, 12, 12, 82)).unwrap();
        s.tick().unwrap(); // admits the hog: 3 pages held
        assert_eq!(s.kv_free_pages(), 1);
        let id = s.submit(auto_request(4, 4, 83)).unwrap();
        let mut completions = Vec::new();
        for _ in 0..16 {
            completions.extend(s.tick().unwrap().completed);
            if s.is_idle() {
                break;
            }
        }
        let c = completions.iter().find(|c| c.id == id).unwrap();
        assert_eq!(
            c.target,
            ServeTarget::Plan(sparse),
            "a starved pool forces the sparsest pattern"
        );
        // The original Auto choice resolved at admission is what ran —
        // the output is bitwise the sequential serve under that plan.
        let want = crate::trace::sequential_reference(
            s.engine(),
            s.plan(sparse),
            &auto_request(4, 4, 83),
            s.config().prefill_chunk,
        )
        .unwrap();
        assert_eq!(c.output, want);
    }

    #[test]
    fn arrival_window_delays_admission() {
        let (mut s, plan) = scheduler(ServeConfig {
            arrival_window: 2,
            ..ServeConfig::default()
        });
        s.submit(request(plan, 0, 2, 2, 31)).unwrap();
        assert!(s.tick().unwrap().admitted.is_empty(), "tick 0: batching");
        assert!(s.tick().unwrap().admitted.is_empty(), "tick 1: batching");
        let r = s.tick().unwrap();
        assert_eq!(r.admitted.len(), 1, "tick 2: eligible");
    }

    #[test]
    fn strict_priority_with_fifo_within_a_class() {
        let (mut s, plan) = scheduler(ServeConfig {
            max_in_flight: 1,
            kv_pages: 8,
            page_size: 8,
            arrival_window: 0,
            prefill_chunk: 8,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Recompute,
            swap_bytes: usize::MAX,
        });
        let low_a = s.submit(request(plan, 3, 2, 2, 41)).unwrap();
        let low_b = s.submit(request(plan, 3, 2, 2, 42)).unwrap();
        let high = s.submit(request(plan, 0, 2, 2, 43)).unwrap();
        let mut order = Vec::new();
        for _ in 0..16 {
            order.extend(s.tick().unwrap().admitted);
            if s.is_idle() {
                break;
            }
        }
        assert_eq!(order, vec![high, low_a, low_b]);
    }

    #[test]
    fn cancel_pending_parked_and_in_flight() {
        // Same page-squeeze as the preemption test, plus a third pending
        // request, so all three cancel paths are exercised.
        let (mut s, plan) = scheduler(ServeConfig {
            max_in_flight: 2,
            kv_pages: 3,
            page_size: 2,
            arrival_window: 0,
            prefill_chunk: 4,
            admission: AdmissionMode::PagedUsage,
            eviction: EvictionMode::Recompute,
            swap_bytes: usize::MAX,
        });
        let a = s.submit(request(plan, 0, 2, 6, 51)).unwrap();
        let b = s.submit(request(plan, 0, 2, 6, 52)).unwrap();
        let c = s.submit(request(plan, 1, 2, 6, 53)).unwrap();
        // Tick until b is parked by the page squeeze.
        for _ in 0..16 {
            if s.parked_len() > 0 {
                break;
            }
            s.tick().unwrap();
        }
        assert_eq!(s.parked_len(), 1, "b parked under page pressure");
        assert!(s.cancel(c), "pending cancel");
        assert!(s.cancel(b), "parked cancel");
        assert!(s.cancel(a), "in-flight cancel");
        assert!(!s.cancel(a), "double cancel is a no-op");
        assert_eq!(s.kv_used_pages(), 0);
        assert!(s.is_idle());
        s.assert_kv_invariants();
    }

    #[test]
    fn debug_formats() {
        let (s, _) = scheduler(ServeConfig::default());
        assert!(format!("{s:?}").contains("Scheduler"));
    }
}
