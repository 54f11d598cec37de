//! The offline workloads: `refine-dense` and `query-sparse`.

use crate::report::Report;
use crate::stats::{median, Drift, Phase, Reference, Samples, SETUP_TICKS};
use crate::{corpus, fail, interleave, repeat, seeds, Options, METHOD};
use crowdfusion::pipeline::{entity_cases_from_books, fuse_books};
use crowdfusion_core::answers::posterior_in_place;
use crowdfusion_core::pool::Pool;
use crowdfusion_core::query::{query_utility, run_query_rounds, QueryCurvePoint};
use crowdfusion_core::round::{EntityCase, RoundConfig};
use crowdfusion_core::selection::{GreedySelector, TaskSelector};
use crowdfusion_core::session::{SelectOutcome, SessionState};
use crowdfusion_core::system::{assemble_trace, Experiment, ExperimentTrace};
use crowdfusion_core::{QueryGreedySelector, MAX_DENSE_FACTS};
use crowdfusion_crowd::{AnswerReplay, CrowdPlatform, Task, TaskId, UniformAccuracy, WorkerPool};
use crowdfusion_datagen::{BookGenConfig, GeneratedBooks};
use crowdfusion_jointdist::{JointDist, VarSet};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Mutex;
use std::time::Instant;

/// Crowd accuracy, simulated and assumed.
pub const PC: f64 = 0.8;
/// Simulated crowd size.
const CROWD_WORKERS: usize = 30;

/// The simulated crowd every workload answers from.
pub fn crowd() -> Result<(WorkerPool, UniformAccuracy), String> {
    let workers = WorkerPool::uniform(CROWD_WORKERS, PC).map_err(fail("worker pool"))?;
    Ok((workers, UniformAccuracy::new(PC)))
}

/// The warm-up slice: the leading `count` books (at least one) of the
/// corpus's first dataset.
pub fn warm_slice(corpus: &[GeneratedBooks], count: usize) -> Vec<GeneratedBooks> {
    let books = &corpus[0];
    let ids: Vec<_> = books.dataset.entities().iter().map(|e| e.id).collect();
    vec![books.select_books(&ids[..count.clamp(1, ids.len())])]
}

/// The entity cases of a corpus and what building them took.
struct Built {
    /// The cases, interleaved across datasets.
    cases: Vec<EntityCase>,
    /// Fusion time, seconds.
    fuse_s: f64,
    /// Prior-construction time, seconds.
    prior_s: f64,
    /// Fusion plus priors, drift-adjusted by reference calls made
    /// between the datasets.
    setup: Phase,
}

/// Fuses every dataset of `corpus` and builds its entity cases.
fn build_cases(corpus: &[GeneratedBooks]) -> Result<Built, String> {
    let (mut cases, mut fuse_s, mut prior_s) = (Vec::new(), 0.0, 0.0);
    let mut drift = Drift::new(Reference::Serialize);
    for books in corpus {
        let start = Instant::now();
        let fusion = fuse_books(books, METHOD).map_err(fail("fusion"))?;
        fuse_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        cases.push(entity_cases_from_books(books, &fusion).map_err(fail("entity cases"))?);
        prior_s += start.elapsed().as_secs_f64();
        for _ in 0..SETUP_TICKS {
            drift.tick();
        }
    }
    Ok(Built {
        cases: interleave(cases),
        fuse_s,
        prior_s,
        setup: Phase {
            s: fuse_s + prior_s,
            slowdown: drift.slowdown(),
        },
    })
}

/// A selector that times every `select` call of the one it wraps, from
/// outside; names itself after the wrapped selector so traces compare.
struct TimedSelector<S> {
    inner: S,
    samples: Mutex<Samples>,
}

impl<S: TaskSelector> TaskSelector for TimedSelector<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn select(
        &self,
        dist: &JointDist,
        pc: f64,
        k: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<usize>, crowdfusion_core::CoreError> {
        let start = Instant::now();
        let tasks = self.inner.select(dist, pc, k, rng);
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_us(us);
        tasks
    }
}

/// The median of the phases' drift-adjusted times.
pub fn median_adjusted(phases: &[Phase]) -> f64 {
    median(&phases.iter().map(Phase::adjusted_s).collect::<Vec<_>>())
}

/// Percentiles p50, p99 and p99.9, in microseconds.
const LAT_QS: [f64; 3] = [0.5, 0.99, 0.999];

/// Sets the end-to-end latency metrics to the per-iteration medians.
pub fn set_latency(report: &mut Report, per_iteration: &[[f64; 3]]) {
    let col = |i: usize| median(&per_iteration.iter().map(|p| p[i]).collect::<Vec<_>>());
    report.set("lat.p50_us", col(0));
    report.set("lat.p99_us", col(1));
    report.set("lat.p999_us", col(2));
}

/// Sets `<layer>.busy_s`, `<layer>.p50_us` and `<layer>.p99_us`.
fn set_layer(report: &mut Report, layer: &str, samples: &Samples) {
    let [p50, p99] = samples.percentiles([0.5, 0.99]);
    report.set(&format!("{layer}.busy_s"), samples.busy_s());
    report.set(&format!("{layer}.p50_us"), p50);
    report.set(&format!("{layer}.p99_us"), p99);
}

struct DenseIteration {
    fuse_s: f64,
    prior_s: f64,
    setup: Phase,
    run_s: f64,
    selections: usize,
    lat: [f64; 3],
    support: usize,
    trace: ExperimentTrace,
}

/// `refine-dense`: fuse, build dense priors, refine every book with
/// `Experiment::run_sharded` on a two-thread pool.
pub fn refine_dense(opts: &Options, report: &mut Report) -> Result<(), String> {
    let sizes = opts.sizes;
    let (data_seed, run_seed) = seeds(opts.seed);
    let books = corpus(
        BookGenConfig::default(),
        sizes.dense_books,
        sizes.dense_statements,
        data_seed,
    );
    let config = RoundConfig::new(3, 30, PC).map_err(fail("round config"))?;
    let pool = Pool::new(2);

    let one = |books: &[GeneratedBooks]| -> Result<DenseIteration, String> {
        let Built {
            cases,
            fuse_s,
            prior_s,
            setup,
        } = build_cases(books)?;
        let support = cases.iter().map(|c| c.prior.support_size()).sum();
        let selector = TimedSelector {
            inner: GreedySelector::fast(),
            samples: Mutex::new(Samples::with_capacity(cases.len() * 10)),
        };
        let (workers, model) = crowd()?;
        let start = Instant::now();
        let experiment = Experiment::new(cases, config).map_err(fail("experiment"))?;
        let mut platform = CrowdPlatform::new(workers, model, run_seed);
        let mut rng = StdRng::seed_from_u64(run_seed);
        let trace = experiment
            .run_sharded(&selector, &mut platform, &mut rng, &pool)
            .map_err(fail("run_sharded"))?;
        let run_s = start.elapsed().as_secs_f64();
        let samples = selector
            .samples
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        Ok(DenseIteration {
            fuse_s,
            prior_s,
            setup,
            run_s,
            selections: samples.len(),
            lat: samples.percentiles(LAT_QS),
            support,
            trace,
        })
    };

    one(&warm_slice(&books, sizes.dense_books / 20))?;
    let iters = repeat(opts.window, sizes.min_iterations, |_| one(&books))?;

    let first = &iters[0];
    for (i, it) in iters.iter().enumerate().skip(1) {
        report.check(it.trace == first.trace, || {
            format!("refine-dense: iteration {i} trace differs from iteration 0")
        });
    }
    let last = *first.trace.last();
    let full_spend = (sizes.dense_books * config.budget) as u64;
    report.check(last.cost == full_spend, || {
        format!(
            "refine-dense: spent {} of {full_spend} judgments",
            last.cost
        )
    });
    let setup: Vec<Phase> = iters.iter().map(|it| it.setup).collect();
    let run: Vec<Phase> = iters.iter().map(|it| Phase::raw(it.run_s)).collect();
    let run_s = median(&iters.iter().map(|it| it.run_s).collect::<Vec<_>>());
    report.set("setup_s", median_adjusted(&setup));
    report.set("run_s", run_s);
    set_latency(report, &iters.iter().map(|it| it.lat).collect::<Vec<_>>());
    report.set("quality.score", last.f1);
    report.set(
        "quality.entropy_removed",
        1.0 - last.utility / first.trace.points[0].utility,
    );
    report.attempted = iters.iter().map(|it| it.selections as u64).sum();
    report.note(format!(
        "refine-dense: {} books, {} iterations, {} selections per iteration (latency = one select call)",
        sizes.dense_books,
        iters.len(),
        first.selections
    ));
    crate::note_iterations(report, &setup, &run);

    if opts.traced {
        report.set(
            "fusion.fuse_s",
            median(&iters.iter().map(|it| it.fuse_s).collect::<Vec<_>>()),
        );
        report.set(
            "prior.build_s",
            median(&iters.iter().map(|it| it.prior_s).collect::<Vec<_>>()),
        );
        report.set("prior.support", first.support as f64);
        let cases = build_cases(&books)?.cases;
        let start = Instant::now();
        let layers = dense_serial(cases, config, run_seed)?;
        let wall = start.elapsed().as_secs_f64();
        report.check(layers.trace == first.trace, || {
            "refine-dense: traced serial trace differs from the sharded run".to_string()
        });
        set_layer(report, "select", &layers.select);
        report.set("select.calls", layers.select.len() as f64);
        set_layer(report, "update", &layers.update);
        report.set("collect.busy_s", layers.collect.busy_s());
        let serial = layers.select.busy_s() + layers.collect.busy_s() + layers.update.busy_s();
        report.set("pool.speedup", serial / run_s);
        report.set("trace.overhead_s", wall - run_s);
        report.note(
            "refine-dense traced: serial pass, so trace.overhead_s includes the lost parallelism",
        );
    }
    Ok(())
}

/// Per-call timings of one traced serial pass.
struct LayerTimes {
    select: Samples,
    collect: Samples,
    update: Samples,
    trace: ExperimentTrace,
}

/// Refines every case serially through `SessionState::select`/`absorb`,
/// seeded exactly like `Experiment::run_sharded` seeds entity `i`: the
/// master RNG's `(answer_seed, selector_seed)` pair and task ids from
/// `i << 32`, answers replayed from the entity's stream.
fn dense_serial(
    cases: Vec<EntityCase>,
    config: RoundConfig,
    run_seed: u64,
) -> Result<LayerTimes, String> {
    let mut master = StdRng::seed_from_u64(run_seed);
    let seeds: Vec<(u64, u64)> = cases
        .iter()
        .map(|_| (master.next_u64(), master.next_u64()))
        .collect();
    let selector = GreedySelector::fast();
    let (workers, model) = crowd()?;
    let mut times = LayerTimes {
        select: Samples::default(),
        collect: Samples::default(),
        update: Samples::default(),
        trace: ExperimentTrace {
            selector: String::new(),
            points: Vec::new(),
        },
    };
    let mut series = Vec::with_capacity(cases.len());
    for (i, (case, (answer_seed, selector_seed))) in cases.into_iter().zip(seeds).enumerate() {
        let gold = case.gold;
        let mut state = SessionState::new(case, config, selector_seed, (i as u64) << 32)
            .map_err(fail("session"))?;
        let mut replay = AnswerReplay::from_seed(answer_seed);
        loop {
            let start = Instant::now();
            let outcome = state.select(&selector).map_err(fail("select"))?;
            let SelectOutcome::Round(round) = outcome else {
                break;
            };
            times.select.since(start);
            let start = Instant::now();
            let tasks: Vec<Task> = round
                .tasks
                .iter()
                .map(|t| Task {
                    id: TaskId(t.id),
                    prompt: t.prompt.clone(),
                    class: t.class,
                })
                .collect();
            let truths: Vec<bool> = round.tasks.iter().map(|t| gold.get(t.fact)).collect();
            let answers = replay
                .answers(&workers, &model, &tasks, &truths)
                .map_err(fail("crowd"))?;
            times.collect.since(start);
            let pairs: Vec<(u64, bool)> = answers.iter().map(|a| (a.task.0, a.value)).collect();
            let start = Instant::now();
            state.absorb(&pairs).map_err(fail("absorb"))?;
            times.update.since(start);
        }
        series.push(state.series().clone());
    }
    times.trace = assemble_trace(&series, selector.name());
    Ok(times)
}

/// The facts of interest of every book, interleaved like the cases: its
/// gold-true correlation group (the true author list and all its format
/// variants).
fn interests(corpus: &[GeneratedBooks]) -> Result<Vec<VarSet>, String> {
    let groups = corpus
        .iter()
        .map(|books| {
            books
                .dataset
                .entities()
                .iter()
                .map(|e| {
                    let gold = books.gold_for(e.id);
                    books
                        .correlation_groups(e.id)
                        .into_iter()
                        .find(|group| group.iter().any(|&i| gold[i]))
                        .map(VarSet::from_vars)
                        .ok_or_else(|| format!("book {:?} has no gold-true statement", e.name))
                })
                .collect()
        })
        .collect::<Result<Vec<Vec<VarSet>>, String>>()?;
    Ok(interleave(groups))
}

/// Whether two curves are equal bit for bit.
fn same_curve(a: &[QueryCurvePoint], b: &[QueryCurvePoint]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.cost == y.cost
                && x.plan_utility.to_bits() == y.plan_utility.to_bits()
                && x.entropy.to_bits() == y.entropy.to_bits()
                && x.accuracy.to_bits() == y.accuracy.to_bits()
        })
}

struct SparseIteration {
    fuse_s: f64,
    prior_s: f64,
    setup: Phase,
    /// The refinement phase, adjusted by reference calls between books.
    run: Phase,
    lat: [f64; 3],
    support: usize,
    curves: Vec<Vec<QueryCurvePoint>>,
}

/// `query-sparse`: the facts-of-interest algorithm, one
/// `run_query_rounds` per 32–40-fact book on sparse priors.
pub fn query_sparse(opts: &Options, report: &mut Report) -> Result<(), String> {
    let sizes = opts.sizes;
    let (data_seed, run_seed) = seeds(opts.seed);
    let books = corpus(
        BookGenConfig::large(sizes.sparse_statements.0),
        sizes.sparse_books,
        sizes.sparse_statements,
        data_seed,
    );
    let foi = interests(&books)?;
    let config = RoundConfig::new(4, 20, PC).map_err(fail("round config"))?;
    let mut master = StdRng::seed_from_u64(run_seed);
    let seeds: Vec<(u64, u64)> = foi
        .iter()
        .map(|_| (master.next_u64(), master.next_u64()))
        .collect();

    let one = |books: &[GeneratedBooks], foi: &[VarSet]| -> Result<SparseIteration, String> {
        let Built {
            cases,
            fuse_s,
            prior_s,
            setup,
        } = build_cases(books)?;
        let support = cases.iter().map(|c| c.prior.support_size()).sum();
        let (workers, model) = crowd()?;
        let mut lat = Samples::with_capacity(cases.len());
        let mut curves = Vec::with_capacity(cases.len());
        let mut drift = Drift::new(Reference::Entropy);
        let start = Instant::now();
        for (i, case) in cases.iter().enumerate() {
            let (platform_seed, selector_seed) = seeds[i];
            let mut platform = CrowdPlatform::new(workers.clone(), model, platform_seed);
            let mut rng = StdRng::seed_from_u64(selector_seed);
            let mut task_seq = (i as u64) << 32;
            let began = Instant::now();
            let curve =
                run_query_rounds(case, foi[i], config, &mut platform, &mut rng, &mut task_seq)
                    .map_err(fail("run_query_rounds"))?;
            lat.since(began);
            curves.push(curve);
            drift.tick();
        }
        Ok(SparseIteration {
            fuse_s,
            prior_s,
            setup,
            run: drift.phase(start.elapsed().as_secs_f64()),
            lat: lat.percentiles(LAT_QS),
            support,
            curves,
        })
    };

    let warm = warm_slice(&books, sizes.sparse_books / 20);
    one(&warm, &interests(&warm)?)?;
    let iters = repeat(opts.window, sizes.min_iterations, |_| one(&books, &foi))?;

    let first = &iters[0];
    for (i, it) in iters.iter().enumerate().skip(1) {
        let same = it.curves.len() == first.curves.len()
            && it
                .curves
                .iter()
                .zip(&first.curves)
                .all(|(a, b)| same_curve(a, b));
        report.check(same, || {
            format!("query-sparse: iteration {i} curves differ from iteration 0")
        });
    }
    for (b, curve) in first.curves.iter().enumerate() {
        let monotone = curve
            .windows(2)
            .all(|w| w[1].plan_utility >= w[0].plan_utility);
        report.check(monotone, || {
            format!("query-sparse: book {b} planned utility decreases along its curve")
        });
    }
    let books_n = first.curves.len() as f64;
    let finals = || first.curves.iter().filter_map(|c| c.last());
    let accuracy = finals().map(|p| p.accuracy).sum::<f64>() / books_n;
    let prior_q: f64 = first.curves.iter().map(|c| c[0].plan_utility).sum();
    let final_q: f64 = finals().map(|p| p.plan_utility).sum();
    let setup: Vec<Phase> = iters.iter().map(|it| it.setup).collect();
    let run: Vec<Phase> = iters.iter().map(|it| it.run).collect();
    report.set("setup_s", median_adjusted(&setup));
    report.set("run_s", median_adjusted(&run));
    set_latency(
        report,
        &iters
            .iter()
            .map(|it| it.lat.map(|us| us / it.run.slowdown))
            .collect::<Vec<_>>(),
    );
    report.set("quality.score", accuracy);
    report.set("quality.entropy_removed", 1.0 - final_q / prior_q);
    report.attempted = (iters.len() * first.curves.len()) as u64;
    report.note(format!(
        "query-sparse: {} books, {} iterations, prior support {} (latency = one book's run_query_rounds)",
        first.curves.len(),
        iters.len(),
        first.support
    ));
    crate::note_iterations(report, &setup, &run);
    let run_s = median(&run.iter().map(|p| p.s).collect::<Vec<_>>());

    if opts.traced {
        report.set(
            "fusion.fuse_s",
            median(&iters.iter().map(|it| it.fuse_s).collect::<Vec<_>>()),
        );
        report.set(
            "prior.build_s",
            median(&iters.iter().map(|it| it.prior_s).collect::<Vec<_>>()),
        );
        report.set("prior.support", first.support as f64);
        let cases = build_cases(&books)?.cases;
        let (workers, model) = crowd()?;
        let mut select = Samples::default();
        let mut plan = Samples::default();
        let mut collect = Samples::default();
        let mut update = Samples::default();
        let start = Instant::now();
        for (i, case) in cases.iter().enumerate() {
            let (platform_seed, selector_seed) = seeds[i];
            let mut platform = CrowdPlatform::new(workers.clone(), model, platform_seed);
            let mut rng = StdRng::seed_from_u64(selector_seed);
            let steps = QuerySteps {
                case,
                interest: foi[i],
                config,
            };
            let curve = steps.run(
                &mut platform,
                &mut rng,
                (i as u64) << 32,
                [&mut select, &mut plan, &mut collect, &mut update],
            )?;
            report.check(same_curve(&curve, &first.curves[i]), || {
                format!("query-sparse: traced curve of book {i} differs from run_query_rounds")
            });
        }
        let wall = start.elapsed().as_secs_f64();
        set_layer(report, "query.select", &select);
        report.set("query.plan.busy_s", plan.busy_s());
        report.set("collect.busy_s", collect.busy_s());
        set_layer(report, "update", &update);
        report.set("trace.overhead_s", wall - run_s);
    }
    Ok(())
}

/// `run_query_rounds` recomposed from its public parts so each step can
/// be timed: `QueryGreedySelector::select` (select), `query_utility` and
/// the FOI marginals (plan), `CrowdPlatform::publish` (collect) and
/// `posterior_in_place` (update).
struct QuerySteps<'a> {
    case: &'a EntityCase,
    interest: VarSet,
    config: RoundConfig,
}

impl QuerySteps<'_> {
    fn measure(
        &self,
        dist: &JointDist,
        cumulative: VarSet,
        spent: usize,
    ) -> Result<QueryCurvePoint, String> {
        let mut correct = 0usize;
        for f in self.interest.iter() {
            let truth = dist.marginal(f).map_err(fail("marginal"))? >= 0.5;
            correct += usize::from(truth == self.case.gold.get(f));
        }
        let plan_utility = query_utility(
            &self.case.prior,
            self.interest,
            cumulative,
            self.config.pc_assumed,
        )
        .map_err(fail("query_utility"))?;
        Ok(QueryCurvePoint {
            cost: spent,
            plan_utility,
            entropy: dist
                .restrict(self.interest)
                .map_err(fail("restrict"))?
                .entropy(),
            accuracy: correct as f64 / self.interest.len() as f64,
        })
    }

    fn run(
        &self,
        platform: &mut CrowdPlatform<UniformAccuracy>,
        rng: &mut dyn RngCore,
        mut task_seq: u64,
        [select, plan, collect, update]: [&mut Samples; 4],
    ) -> Result<Vec<QueryCurvePoint>, String> {
        let case = self.case;
        let pc = self.config.pc_assumed;
        let selector = QueryGreedySelector::new(self.interest);
        let mut dist = case.prior.clone();
        let mut cumulative = VarSet::EMPTY;
        let mut remaining = self.config.budget;
        let mut spent = 0usize;
        let start = Instant::now();
        let mut points = vec![self.measure(&dist, cumulative, 0)?];
        plan.since(start);
        while remaining > 0 {
            let ask = self.config.k.min(case.num_facts()).min(remaining);
            let start = Instant::now();
            let tasks = selector
                .select(&dist, pc, ask, rng)
                .map_err(fail("query select"))?;
            select.since(start);
            if tasks.is_empty() {
                break;
            }
            let next = cumulative.union(VarSet::from_vars(tasks.iter().copied()));
            if next.len() > MAX_DENSE_FACTS {
                break;
            }
            let start = Instant::now();
            let crowd_tasks: Vec<Task> = tasks
                .iter()
                .map(|&f| {
                    task_seq += 1;
                    Task {
                        id: TaskId(task_seq - 1),
                        prompt: case.prompts[f].clone(),
                        class: case.classes[f],
                    }
                })
                .collect();
            let truths: Vec<bool> = tasks.iter().map(|&f| case.gold.get(f)).collect();
            let answers = platform
                .publish(&crowd_tasks, &truths)
                .map_err(fail("publish"))?;
            collect.since(start);
            let judgments: Vec<bool> = answers.iter().map(|a| a.value).collect();
            let start = Instant::now();
            posterior_in_place(&mut dist, &tasks, &judgments, pc).map_err(fail("posterior"))?;
            update.since(start);
            spent += tasks.len();
            remaining -= tasks.len();
            cumulative = next;
            let start = Instant::now();
            points.push(self.measure(&dist, cumulative, spent)?);
            plan.since(start);
        }
        Ok(points)
    }
}
