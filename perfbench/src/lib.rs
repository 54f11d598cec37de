//! End-to-end and per-layer benchmark of the crowdfusion workspace.
//!
//! Four seeded workloads, each run from one process with at most two
//! threads doing work:
//!
//! * `refine-dense` — the `refine --threads 2` path: modified-CRH fusion,
//!   dense grouped priors, `Experiment::run_sharded` with the fast greedy
//!   selector on a two-thread pool;
//! * `query-sparse` — the facts-of-interest algorithm on 32–40-fact books
//!   with sparse priors, `run_query_rounds` per book;
//! * `serve-durable` — a crash-safe per-session daemon driven in-process
//!   through `Service::handle_line`, journalling every effect;
//! * `serve-sched` — a global-budget daemon drained through `Schedule`,
//!   with status reads beside the writes.
//!
//! An untraced run prints the end-to-end metrics; a traced run times the
//! calls into each layer's public functions from outside and prints the
//! per-layer metrics. See `README.md` for the metric table.

#![warn(missing_docs)]

pub mod offline;
pub mod report;
pub mod served;
pub mod stats;

use report::Report;
use stats::Phase;
use std::time::{Duration, Instant};

/// The fusion method every workload fuses with (the paper's initialiser).
pub const METHOD: &str = "modified-crh";

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense offline refinement, sharded on two threads.
    RefineDense,
    /// Facts-of-interest refinement on sparse priors.
    QuerySparse,
    /// In-process crash-safe per-session daemon.
    ServeDurable,
    /// In-process global-budget daemon.
    ServeSched,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::RefineDense,
        Workload::QuerySparse,
        Workload::ServeDurable,
        Workload::ServeSched,
    ];

    /// Parses the command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RefineDense => "refine-dense",
            Workload::QuerySparse => "query-sparse",
            Workload::ServeDurable => "serve-durable",
            Workload::ServeSched => "serve-sched",
        }
    }
}

/// Input sizes of every workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// refine-dense: books and statements per book.
    pub dense_books: usize,
    /// refine-dense statements-per-book range.
    pub dense_statements: (usize, usize),
    /// query-sparse: books.
    pub sparse_books: usize,
    /// query-sparse statements-per-book range (beyond the dense limit).
    pub sparse_statements: (usize, usize),
    /// serve-durable: sessions.
    pub durable_sessions: usize,
    /// serve-sched: sessions.
    pub sched_sessions: usize,
    /// serve-sched traced run: sessions opened for the TCP probe.
    pub tcp_sessions: usize,
    /// serve-sched traced run: requests timed over TCP.
    pub tcp_requests: usize,
    /// Timed iterations a run makes at least, whatever its window.
    pub min_iterations: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        dense_books: 400,
        dense_statements: (10, 14),
        sparse_books: 128,
        sparse_statements: (32, 40),
        durable_sessions: 500,
        sched_sessions: 1500,
        tcp_sessions: 256,
        tcp_requests: 4000,
        min_iterations: 3,
    };

    /// Tiny sizes for the smoke test: every path, in well under a second.
    pub const SMOKE: Sizes = Sizes {
        dense_books: 6,
        dense_statements: (4, 6),
        sparse_books: 3,
        sparse_statements: (27, 28),
        durable_sessions: 10,
        sched_sessions: 12,
        tcp_sessions: 4,
        tcp_requests: 40,
        min_iterations: 2,
    };
}

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// The run seed's source: crowd answers and RNG streams.
    pub seed: u64,
    /// Measurement window.
    pub window: Duration,
    /// Whether to add the traced per-layer pass.
    pub traced: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

/// Runs one workload and returns its report (metrics set, checks done).
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "{}: seed {}, {} hardware threads available",
        opts.workload.name(),
        opts.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    let outcome = match opts.workload {
        Workload::RefineDense => offline::refine_dense(opts, &mut report),
        Workload::QuerySparse => offline::query_sparse(opts, &mut report),
        Workload::ServeDurable => served::serve_durable(opts, &mut report),
        Workload::ServeSched => served::serve_sched(opts, &mut report),
    };
    if let Err(message) = outcome {
        report.problems.push(message);
    }
    if let Some(mib) = stats::peak_rss_mib() {
        report.set("peak_rss_mb", mib);
    }
    report
}

/// The seed every run generates its corpus from. The corpus is fixed so
/// that runs with different `--seed`s measure the same entities and the
/// spread between them is the measurement's own, not the data's.
pub const CORPUS_SEED: u64 = 0x0C0F_FEE5;

/// The corpus seed and the run seed for `--seed`; the run seed drives
/// every crowd answer and every selector and master RNG stream.
pub fn seeds(seed: u64) -> (u64, u64) {
    use rand::{RngCore, SeedableRng};
    (
        CORPUS_SEED,
        rand::rngs::StdRng::seed_from_u64(seed).next_u64(),
    )
}

/// Runs `iteration` on fresh instances until the window would be
/// overrun by one more iteration of the longest length seen so far,
/// but at least `min` times.
pub fn repeat<T>(
    window: Duration,
    min: usize,
    mut iteration: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() + longest <= window {
        let began = Instant::now();
        out.push(iteration(out.len())?);
        longest = longest.max(began.elapsed());
    }
    Ok(out)
}

/// The generated corpus of a workload: one independently seeded dataset
/// per statement count in `statements` (inclusive), `books` split evenly
/// across them, so the mix of entity sizes is exact rather than drawn.
pub fn corpus(
    base: crowdfusion_datagen::BookGenConfig,
    books: usize,
    statements: (usize, usize),
    seed: u64,
) -> Vec<crowdfusion_datagen::GeneratedBooks> {
    use rand::{RngCore, SeedableRng};
    let sizes: Vec<usize> = (statements.0..=statements.1).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    sizes
        .iter()
        .enumerate()
        .filter_map(|(g, &n)| {
            let n_books = books / sizes.len() + usize::from(g < books % sizes.len());
            let seed = rng.next_u64();
            (n_books > 0).then(|| {
                crowdfusion_datagen::book::generate(crowdfusion_datagen::BookGenConfig {
                    n_books,
                    statements_per_book: (n, n),
                    seed,
                    ..base.clone()
                })
            })
        })
        .collect()
}

/// Adds each iteration's raw set-up and run times, and the slowdowns
/// their drift-adjusted figures were divided by, to the report's notes.
pub fn note_iterations(report: &mut Report, setup: &[Phase], run: &[Phase]) {
    let fmt = |v: &[Phase], f: fn(&Phase) -> f64| {
        v.iter()
            .map(|x| format!("{:.4}", f(x)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    for (name, phases) in [("setup_s", setup), ("run_s", run)] {
        report.note(format!(
            "  per-iteration {name:<8} {}",
            fmt(phases, |p| p.s)
        ));
        if phases.iter().any(|p| p.slowdown != 1.0) {
            report.note(format!(
                "    slowdown             {}",
                fmt(phases, |p| p.slowdown)
            ));
        }
    }
}

/// Merges per-dataset lists round-robin (one from each dataset in turn),
/// so entity sizes alternate along the merged order the way a single
/// mixed dataset's would, rather than running in size-sorted blocks.
pub fn interleave<T>(groups: Vec<Vec<T>>) -> Vec<T> {
    let total = groups.iter().map(Vec::len).sum();
    let mut iters: Vec<_> = groups.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        out.extend(iters.iter_mut().filter_map(Iterator::next));
    }
    out
}

/// Maps any displayable error into the harness's error string.
pub(crate) fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}
