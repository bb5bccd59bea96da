//! Rebuild every request's progress from the scheduler's `TickReport`s.
//!
//! The rule: a sequence joins the in-flight set when it is admitted or
//! resumed, and leaves it when it is preempted or completes. While in
//! flight it does exactly one unit of work per tick, in in-flight order:
//! its next prefill chunk, or its next generated row. A tick appends its
//! joiners class by class (most urgent first), each class's resumes before
//! its fresh admissions, then removes its victims.
//!
//! [`reconstruct`] fails unless the completions it predicts for each tick
//! are exactly the ones the scheduler reported, in the same order.

#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub priority: u8,
    pub prompt: usize,
    pub total: usize,
}

/// What one tick reported, by request index (submission order).
#[derive(Clone, Debug, Default)]
pub struct TickEvents {
    pub admitted: Vec<usize>,
    pub resumed: Vec<usize>,
    pub preempted: Vec<usize>,
    pub completed: Vec<usize>,
}

/// One sequence's unit of work in a tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Prompt rows `start .. start + rows`.
    Prefill { start: usize, rows: usize },
    /// Generated row `t`.
    Decode { t: usize },
}

impl Unit {
    /// The first row this unit computes.
    pub fn first(&self) -> usize {
        match *self {
            Unit::Prefill { start, .. } => start,
            Unit::Decode { t } => t,
        }
    }

    pub fn rows(&self) -> usize {
        match *self {
            Unit::Prefill { rows, .. } => rows,
            Unit::Decode { .. } => 1,
        }
    }
}

/// The reconstructed content of one tick.
#[derive(Clone, Debug, Default)]
pub struct TickWork {
    /// Admitted or resumed this tick, in the order they joined.
    pub joined: Vec<usize>,
    pub preempted: Vec<usize>,
    /// Every in-flight sequence's unit, in in-flight order.
    pub work: Vec<(usize, Unit)>,
    pub completed: Vec<usize>,
}

pub struct Progress {
    pub ticks: Vec<TickWork>,
    /// First admission tick of each request.
    pub admitted: Vec<usize>,
    /// For each request, the tick that computed each generated row
    /// (`[k]` is row `prompt + k`).
    pub row_ticks: Vec<Vec<usize>>,
    /// Predicted completion tick of each request.
    pub completed: Vec<usize>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Queued,
    InFlight,
    Parked,
    Done,
}

pub fn reconstruct(
    shapes: &[Shape],
    prefill_chunk: usize,
    events: &[TickEvents],
) -> Result<Progress, String> {
    let n = shapes.len();
    let mut state = vec![State::Queued; n];
    let mut next_row = vec![0usize; n];
    let mut admitted = vec![usize::MAX; n];
    let mut completed = vec![usize::MAX; n];
    let mut row_ticks: Vec<Vec<usize>> = shapes
        .iter()
        .map(|s| Vec::with_capacity(s.total - s.prompt))
        .collect();
    let mut in_flight: Vec<usize> = Vec::new();
    let mut ticks = Vec::with_capacity(events.len());
    let check = |r: usize| -> Result<(), String> {
        if r < n {
            Ok(())
        } else {
            Err(format!("tick names unknown request {r}"))
        }
    };
    for (tick, ev) in events.iter().enumerate() {
        let mut classes: Vec<u8> = ev
            .admitted
            .iter()
            .chain(&ev.resumed)
            .map(|&r| check(r).map(|_| shapes[r].priority))
            .collect::<Result<_, _>>()?;
        classes.sort_unstable();
        classes.dedup();
        let mut joined = Vec::new();
        for class in classes {
            for &r in ev.resumed.iter().filter(|&&r| shapes[r].priority == class) {
                if state[r] != State::Parked {
                    return Err(format!("tick {tick}: request {r} resumed but not parked"));
                }
                joined.push(r);
            }
            for &r in ev.admitted.iter().filter(|&&r| shapes[r].priority == class) {
                if state[r] != State::Queued {
                    return Err(format!("tick {tick}: request {r} admitted twice"));
                }
                admitted[r] = tick;
                joined.push(r);
            }
        }
        for &r in &joined {
            state[r] = State::InFlight;
            in_flight.push(r);
        }
        for &r in &ev.preempted {
            check(r)?;
            let Some(pos) = in_flight.iter().position(|&x| x == r) else {
                return Err(format!(
                    "tick {tick}: request {r} preempted but not in flight"
                ));
            };
            in_flight.remove(pos);
            state[r] = State::Parked;
        }
        let mut work = Vec::with_capacity(in_flight.len());
        for &r in &in_flight {
            let s = shapes[r];
            let unit = if next_row[r] < s.prompt {
                Unit::Prefill {
                    start: next_row[r],
                    rows: prefill_chunk.min(s.prompt - next_row[r]),
                }
            } else {
                row_ticks[r].push(tick);
                Unit::Decode { t: next_row[r] }
            };
            next_row[r] += unit.rows();
            work.push((r, unit));
        }
        let done: Vec<usize> = in_flight
            .iter()
            .copied()
            .filter(|&r| next_row[r] == shapes[r].total)
            .collect();
        if done != ev.completed {
            return Err(format!(
                "tick {tick}: predicted completions {done:?}, scheduler reported {:?}",
                ev.completed
            ));
        }
        in_flight.retain(|&r| next_row[r] < shapes[r].total);
        for &r in &done {
            state[r] = State::Done;
            completed[r] = tick;
        }
        ticks.push(TickWork {
            joined,
            preempted: ev.preempted.clone(),
            work,
            completed: done,
        });
    }
    if let Some(r) = state.iter().position(|&s| s != State::Done) {
        return Err(format!("request {r} never completed"));
    }
    Ok(Progress {
        ticks,
        admitted,
        row_ticks,
        completed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use gpa_core::{AttentionEngine, AttentionKernel, AttentionPlan};
    use gpa_model::{DecoderModel, LayerPattern};
    use gpa_serve::{
        AdmissionMode, EvictionMode, ModelRequest, Scheduler, ServeConfig, ServeRequest, TickReport,
    };

    fn config(eviction: EvictionMode, kv_pages: usize) -> ServeConfig {
        ServeConfig {
            max_in_flight: 3,
            kv_pages,
            page_size: 2,
            arrival_window: 0,
            prefill_chunk: 3,
            admission: AdmissionMode::PagedUsage,
            eviction,
            swap_bytes: usize::MAX,
        }
    }

    /// (due tick, priority, prompt, total) of a tiny trace whose decode
    /// growth outruns the pool.
    const TRACE: [(u64, u8, usize, usize); 4] =
        [(0, 1, 4, 9), (0, 0, 5, 8), (1, 1, 2, 7), (2, 0, 3, 6)];

    fn events<T>(report: &TickReport<T>) -> TickEvents {
        let ids = |v: &[gpa_serve::RequestId]| v.iter().map(|id| id.as_u64() as usize).collect();
        TickEvents {
            admitted: ids(&report.admitted),
            resumed: ids(&report.resumed),
            preempted: ids(&report.preempted),
            completed: report
                .completed
                .iter()
                .map(|c| c.id.as_u64() as usize)
                .collect(),
        }
    }

    /// Drive `scheduler` over the trace, then check the reconstruction
    /// against every reported completion tick.
    fn check_against<T>(
        scheduler: &mut Scheduler<'_, T>,
        mut submit: impl FnMut(&mut Scheduler<'_, T>, usize),
    ) where
        T: gpa_tensor::Real,
    {
        let mut evs = Vec::new();
        let mut done = Vec::new();
        let mut next = 0;
        while next < TRACE.len() || !scheduler.is_idle() {
            while next < TRACE.len() && TRACE[next].0 <= scheduler.now() {
                submit(scheduler, next);
                next += 1;
            }
            let report = scheduler.tick().unwrap();
            evs.push(events(&report));
            done.extend(report.completed);
        }
        assert!(scheduler.preemption_events() > 0, "the trace must preempt");
        let shapes: Vec<Shape> = TRACE
            .iter()
            .map(|&(_, priority, prompt, total)| Shape {
                priority,
                prompt,
                total,
            })
            .collect();
        let progress = reconstruct(&shapes, scheduler.config().prefill_chunk, &evs).unwrap();
        assert_eq!(done.len(), TRACE.len());
        for c in &done {
            let r = c.id.as_u64() as usize;
            assert_eq!(progress.completed[r], c.completed as usize);
            assert_eq!(progress.admitted[r], c.admitted as usize);
            assert_eq!(progress.row_ticks[r].len(), TRACE[r].3 - TRACE[r].2);
            assert_eq!(*progress.row_ticks[r].last().unwrap(), c.completed as usize);
        }
    }

    #[test]
    fn plan_sequences_under_both_eviction_modes() {
        for eviction in [EvictionMode::Recompute, EvictionMode::Swap] {
            let mut s: Scheduler<'static, f32> =
                Scheduler::new(AttentionEngine::with_threads(1), config(eviction, 7)).unwrap();
            let plan = s
                .register_plan(AttentionPlan::single(AttentionKernel::Local { n: 2 }).unwrap())
                .unwrap();
            check_against(&mut s, |s, i| {
                let (_, priority, prompt, total) = TRACE[i];
                let mut rng = Rng::stream(i as u64, 0);
                s.submit(ServeRequest {
                    pattern: plan.into(),
                    priority,
                    prompt,
                    q: rng.gaussian_matrix(total, 4),
                    k: rng.gaussian_matrix(total, 4),
                    v: rng.gaussian_matrix(total, 4),
                })
                .unwrap();
            });
        }
    }

    #[test]
    fn model_sequences_under_both_eviction_modes() {
        for eviction in [EvictionMode::Recompute, EvictionMode::Swap] {
            let mut s: Scheduler<'static, f32> =
                Scheduler::new(AttentionEngine::with_threads(1), config(eviction, 14)).unwrap();
            let model = DecoderModel::new(
                LayerPattern::parse("FS").unwrap(),
                vec![
                    (
                        'F',
                        AttentionPlan::single(AttentionKernel::Local { n: 4 }).unwrap(),
                    ),
                    (
                        'S',
                        AttentionPlan::single(AttentionKernel::Dilated1d { w: 2, r: 2 }).unwrap(),
                    ),
                ],
                8,
                2,
                4,
                1,
            )
            .unwrap();
            let model = s.register_model(model);
            check_against(&mut s, |s, i| {
                let (_, priority, prompt, total) = TRACE[i];
                s.submit_model(ModelRequest {
                    model,
                    priority,
                    prompt,
                    x: Rng::stream(i as u64, 0).gaussian_matrix(total, 8),
                })
                .unwrap();
            });
        }
    }

    #[test]
    fn a_wrong_completion_tick_is_an_error() {
        let shapes = [Shape {
            priority: 0,
            prompt: 2,
            total: 3,
        }];
        let admit = TickEvents {
            admitted: vec![0],
            ..TickEvents::default()
        };
        // Prefill (2 rows, chunk 2) then one decode row: done on tick 1.
        let early = [TickEvents {
            completed: vec![0],
            ..admit.clone()
        }];
        assert!(reconstruct(&shapes, 2, &early).is_err());
        let right = [
            admit,
            TickEvents {
                completed: vec![0],
                ..TickEvents::default()
            },
        ];
        let p = reconstruct(&shapes, 2, &right).unwrap();
        assert_eq!(p.completed, vec![1]);
        assert_eq!(p.row_ticks[0], vec![1]);
    }
}
