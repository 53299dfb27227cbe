//! The measured phase: slices of steps run by one closed-loop client,
//! each call timed from outside, and the oracle that checks the answers.

use crate::inputs::Step;
use crate::measure::{nanos, process_cpu_ns, Slice};
use crate::spec::{Kind, Spec, MIN_SLICES};
use crate::stack::Stack;
use crate::trace::Tracer;
use mobidx_core::QueryRequest;
use mobidx_serve::Batch;
use mobidx_workload::{brute_force_1d, MorQuery1D, Motion1D};
use std::time::Instant;

/// On `mixed_rw`, every this-many-th query of a slice is kept and
/// checked against the oracle at the epoch it was answered.
pub const SAMPLE_EVERY: usize = 50;

/// How long a phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this many seconds have passed (at least [`MIN_SLICES`]
    /// slices, at most the workload's `max_slices`).
    Seconds(f64),
    /// Exactly this many slices.
    Slices(usize),
}

impl Budget {
    /// Slices over which the exact counts are taken: a fixed number, so
    /// that they do not depend on how many slices the clock allowed.
    #[must_use]
    pub fn count_slices(self, spec: &Spec) -> usize {
        match self {
            Budget::Seconds(_) => MIN_SLICES.min(spec.max_slices),
            Budget::Slices(k) => k,
        }
    }

    /// Whether a phase that has run `slices` slices in `elapsed` seconds
    /// is over.
    #[must_use]
    pub fn spent(self, spec: &Spec, slices: usize, elapsed: f64) -> bool {
        match self {
            Budget::Slices(n) => slices >= n,
            Budget::Seconds(s) => {
                slices >= spec.max_slices || (slices >= self.count_slices(spec) && elapsed >= s)
            }
        }
    }
}

/// How calls are made.
pub enum Mode<'a> {
    /// Plain requests; nothing recorded but durations.
    Plain,
    /// Queries ask the program for its span tree, which is dropped.
    Spanned(Instant),
    /// Every call sits in a harness span kept by the tracer.
    Traced(&'a mut Tracer),
}

/// An answer kept for the oracle.
#[derive(Debug)]
struct Sample {
    step: usize,
    query: MorQuery1D,
    ids: Vec<u64>,
}

/// Running totals of a phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Client calls made plus oracle checks made.
    pub attempted: u64,
    /// Calls that returned an error plus checks that disagreed.
    pub failed: u64,
}

/// The oracle's copy of the motion table, indexed by object id.
#[derive(Debug, Clone)]
pub struct Mirror {
    objects: Vec<Motion1D>,
}

impl Mirror {
    /// The table after set-up.
    #[must_use]
    pub fn after_setup(setup: &crate::inputs::SetupInputs) -> Self {
        let mut objects = setup.initial.clone();
        for m in setup.ageing.iter().flatten() {
            objects[id_index(m)] = *m;
        }
        Self { objects }
    }

    /// The table, in id order.
    #[must_use]
    pub fn objects(&self) -> &[Motion1D] {
        &self.objects
    }

    /// Replaces one record.
    pub fn set(&mut self, m: Motion1D) {
        self.objects[id_index(&m)] = m;
    }
}

fn id_index(m: &Motion1D) -> usize {
    usize::try_from(m.id).expect("object id fits usize")
}

/// Runs one slice. Batches are built before the clock starts; durations
/// are taken around each call into the stack and nowhere else.
pub fn run_slice(
    stack: &mut Stack,
    kind: Kind,
    steps: &[Step],
    mut mode: Mode<'_>,
    tally: &mut Tally,
    mirror: &mut Mirror,
) -> Slice {
    let batches: Vec<Batch> = steps.iter().map(Step::batch).collect();
    let mut slice = Slice::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut query_no = 0usize;
    let cpu_before = process_cpu_ns();
    for (i, (step, batch)) in steps.iter().zip(&batches).enumerate() {
        let mut step_ns = 0u64;
        if !step.updates.is_empty() {
            let span = match &mut mode {
                Mode::Traced(t) => Some(t.begin_call("serve.apply")),
                _ => None,
            };
            let started = Instant::now();
            let result = stack.apply(batch);
            let dt = nanos(started.elapsed());
            if let (Mode::Traced(t), Some(mut span)) = (&mut mode, span) {
                span.set_attr("updates", step.updates.len());
                t.end_call(span, None);
            }
            tally.attempted += 1;
            tally.failed += u64::from(result.is_err());
            slice.apply_ns.push(dt);
            step_ns += dt;
        }
        for q in &step.queries {
            // On mixed_rw the answer of a sampled query is kept and
            // checked at this epoch once the slice is over.
            let sampled = kind == Kind::Mixed && query_no.is_multiple_of(SAMPLE_EVERY);
            query_no += 1;
            stack.before_query();
            let (root, epoch) = match &mut mode {
                Mode::Plain => (None, None),
                Mode::Spanned(epoch) => (None, Some(*epoch)),
                Mode::Traced(t) => {
                    let name = if kind == Kind::Cold {
                        "core.query"
                    } else {
                        "serve.query"
                    };
                    (Some(t.begin_call(name)), Some(t.epoch()))
                }
            };
            let req = match epoch {
                Some(e) => QueryRequest::new(q).spanned(e),
                None => QueryRequest::new(q),
            };
            let started = Instant::now();
            let result = stack.query(&req);
            let dt = nanos(started.elapsed());
            tally.attempted += 1;
            slice.query_ns.push(dt);
            step_ns += dt;
            match result {
                Ok(mut out) => {
                    let ids = out.ids.len();
                    slice.ids += ids as u64;
                    let program_span = out.span.take();
                    if sampled {
                        samples.push(Sample {
                            step: i,
                            query: *q,
                            ids: std::mem::take(&mut out.ids),
                        });
                    }
                    if let (Mode::Traced(t), Some(mut root)) = (&mut mode, root) {
                        root.set_attr("ids", ids);
                        root.set_attr("candidates", out.candidates);
                        t.end_call(root, program_span);
                    }
                }
                Err(_) => tally.failed += 1,
            }
        }
        slice.ops += step.ops();
        slice.step_ns.push(step_ns);
        slice.busy_ns += step_ns;
    }
    slice.cpu_ns = process_cpu_ns().saturating_sub(cpu_before);
    // Off the clock: bring the oracle up to date, checking the sampled
    // answers at the step they were given.
    let mut samples = samples.into_iter().peekable();
    for (i, step) in steps.iter().enumerate() {
        for m in &step.updates {
            mirror.set(*m);
        }
        while let Some(sample) = samples.next_if(|s| s.step == i) {
            tally.attempted += 1;
            tally.failed +=
                u64::from(brute_force_1d(mirror.objects(), &sample.query) != sample.ids);
        }
    }
    slice
}

/// What a check pass found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    /// Pages the check queries visited: frozen pages on the serving
    /// tier, pager reads on `MotionDb`.
    pub pages: u64,
    /// Candidates examined.
    pub candidates: u64,
    /// Ids returned.
    pub ids: u64,
    /// Check queries.
    pub queries: u64,
}

impl Checked {
    /// Component-wise sum.
    #[must_use]
    pub fn merge(self, other: Checked) -> Checked {
        Checked {
            pages: self.pages + other.pages,
            candidates: self.candidates + other.candidates,
            ids: self.ids + other.ids,
            queries: self.queries + other.queries,
        }
    }
}

/// After timing: the program's motion table must equal the oracle's.
pub fn check_table(stack: &Stack, mirror: &Mirror, tally: &mut Tally) {
    tally.attempted += 1;
    tally.failed += u64::from(stack.objects() != mirror.objects());
}

/// After timing: every check query must return exactly the oracle's
/// answer. Queries are spanned, so the pass also yields the pages each
/// one visits.
pub fn check_queries(
    stack: &mut Stack,
    queries: &[MorQuery1D],
    mirror: &Mirror,
    tally: &mut Tally,
) -> Checked {
    let epoch = Instant::now();
    let mut checked = Checked::default();
    for q in queries {
        tally.attempted += 1;
        stack.before_query();
        match stack.query(&QueryRequest::new(q).spanned(epoch)) {
            Ok(out) => {
                checked.queries += 1;
                checked.ids += out.ids.len() as u64;
                checked.candidates += out.candidates;
                checked.pages += out.span.as_ref().map_or(0, |s| s.total_io().reads);
                tally.failed += u64::from(out.ids != brute_force_1d(mirror.objects(), q));
            }
            Err(_) => tally.failed += 1,
        }
    }
    checked
}
