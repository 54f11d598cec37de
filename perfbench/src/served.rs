//! The served workloads: `serve-durable` and `serve-sched`, driven
//! in-process through `Service::handle_line` by one closed-loop client.

use crate::offline::{crowd, median_adjusted, set_latency, PC};
use crate::report::Report;
use crate::stats::{median, Drift, Phase, Reference, Samples, SETUP_TICKS};
use crate::{corpus, fail, interleave, repeat, seeds, Options, METHOD};
use crowdfusion::pipeline::{entity_specs_from_books, fuse_books};
use crowdfusion_core::pool::Pool;
use crowdfusion_core::round::RoundConfig;
use crowdfusion_core::selection::GreedySelector;
use crowdfusion_core::session::{EntitySpec, OpenedSession, PublishedTask};
use crowdfusion_core::system::{Experiment, ExperimentTrace};
use crowdfusion_crowd::{AnswerReplay, CrowdPlatform, Task, TaskId, UniformAccuracy, WorkerPool};
use crowdfusion_datagen::BookGenConfig;
use crowdfusion_service::durable::SNAPSHOT_FILE;
use crowdfusion_service::protocol::{self, Request, Response, WireAnswer};
use crowdfusion_service::{serve_tcp, Client, OpenOptions, ServeConfig, Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Tasks per round of every served session.
const K: usize = 2;
/// Per-session budget of every served session.
const BUDGET: usize = 24;
/// Admissions between two whole-registry `Metrics` reads in the
/// serve-sched mix.
const METRICS_EVERY: u64 = 256;
/// Admissions between two reference calls in the serve-sched drive.
const DRIFT_EVERY: u64 = 32;
/// Sessions between two reference calls in the serve-durable drive.
const DRIFT_EVERY_SESSIONS: u64 = 8;
/// Specs per `Open` request (keeps each line under the wire's cap).
const OPEN_BATCH: usize = 512;

/// Encodes a request in the versioned wire envelope.
pub fn wire_line(request: &Request) -> String {
    protocol::encode(&Value::Map(vec![
        (
            "v".to_string(),
            Value::Int(protocol::WIRE_VERSION_MAX as i64),
        ),
        ("body".to_string(), request.to_value()),
    ]))
}

/// Decodes an enveloped reply line.
pub fn parse_reply(line: &str) -> Result<Response, String> {
    let value: Value = protocol::decode(line)?;
    let body = value
        .get_field("body")
        .ok_or_else(|| format!("reply without an envelope body: {line}"))?;
    Response::from_value(body).map_err(fail("reply"))
}

/// The wire name of a request's verb, as the per-layer metrics use it.
fn verb(request: &Request) -> &'static str {
    match request {
        Request::Open { .. } => "open",
        Request::Select { .. } => "select",
        Request::Absorb { .. } => "absorb",
        Request::Schedule { .. } => "schedule",
        Request::BudgetStatus => "budget_status",
        Request::Status { .. } => "status",
        Request::Metrics => "metrics",
        _ => "other",
    }
}

/// Per-call timings of the traced serving path.
#[derive(Debug, Default)]
pub struct ServeTrace {
    /// `protocol::decode_framed`.
    pub decode: Samples,
    /// `protocol::encode_framed`.
    pub encode: Samples,
    /// `Service::handle`, by verb.
    pub dispatch: BTreeMap<&'static str, Samples>,
}

/// One in-process client: one request outstanding, every reply waited
/// for. Counts attempted and failed (`Response::Error`) requests and
/// records each request's `handle_line` latency.
pub struct InProcess<'a> {
    service: &'a Service,
    /// Requests issued.
    pub attempted: u64,
    /// Requests answered with `Response::Error`.
    pub failed: u64,
    /// Per-request latency of the server-side call.
    pub lat: Samples,
    /// Per-layer timings, when traced.
    pub trace: Option<ServeTrace>,
}

impl<'a> InProcess<'a> {
    /// A client of `service`; `traced` splits each call into its layers.
    pub fn new(service: &'a Service, traced: bool) -> InProcess<'a> {
        InProcess {
            service,
            attempted: 0,
            failed: 0,
            lat: Samples::default(),
            trace: traced.then(ServeTrace::default),
        }
    }

    /// Sends one request and decodes the reply.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.call_line(&wire_line(request))
    }

    /// Sends one pre-encoded request line and decodes the reply. Untraced,
    /// the timed call is `Service::handle_line`; traced, it is the same
    /// three steps `handle_line` makes, each timed.
    pub fn call_line(&mut self, line: &str) -> Result<Response, String> {
        let reply = match self.trace.as_mut() {
            None => {
                let start = Instant::now();
                let reply = self.service.handle_line(line);
                self.lat.since(start);
                reply
            }
            Some(trace) => {
                let t0 = Instant::now();
                let (framing, decoded) = protocol::decode_framed(line);
                let t1 = Instant::now();
                let (name, response) = match decoded {
                    Ok(request) => (verb(&request), self.service.handle(request)),
                    Err(refusal) => ("other", refusal),
                };
                let t2 = Instant::now();
                let reply = protocol::encode_framed(framing, &response);
                let t3 = Instant::now();
                let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
                trace.decode.push_us(us(t0, t1));
                trace.dispatch.entry(name).or_default().push_us(us(t1, t2));
                trace.encode.push_us(us(t2, t3));
                self.lat.push_us(us(t0, t3));
                reply
            }
        };
        self.attempted += 1;
        let response = parse_reply(&reply)?;
        if matches!(response, Response::Error { .. }) {
            self.failed += 1;
        }
        Ok(response)
    }
}

/// The client's crowd: answers a published round from the session's
/// replay stream, as a real crowd would, timing the crowd layer.
struct ClientCrowd {
    workers: WorkerPool,
    model: UniformAccuracy,
    golds: Vec<Vec<bool>>,
    busy: Samples,
}

impl ClientCrowd {
    fn answer(
        &mut self,
        replay: &mut AnswerReplay,
        session: u64,
        tasks: &[PublishedTask],
    ) -> Result<Vec<WireAnswer>, String> {
        let start = Instant::now();
        let gold = self
            .golds
            .get(session as usize)
            .ok_or_else(|| format!("unknown session {session}"))?;
        let crowd_tasks: Vec<Task> = tasks
            .iter()
            .map(|t| Task {
                id: TaskId(t.id),
                prompt: t.prompt.clone(),
                class: t.class,
            })
            .collect();
        let truths: Vec<bool> = tasks.iter().map(|t| gold[t.fact]).collect();
        let answers = replay
            .answers(&self.workers, &self.model, &crowd_tasks, &truths)
            .map_err(fail("crowd"))?;
        self.busy.since(start);
        Ok(answers
            .iter()
            .map(|a| WireAnswer {
                task: a.task.0,
                value: a.value,
            })
            .collect())
    }
}

/// A client connection the serve-sched mix can run over.
trait Conn {
    /// Sends one request and decodes the reply.
    fn call(&mut self, request: &Request) -> Result<Response, String>;
    /// Requests sent so far.
    fn sent(&self) -> u64;
}

impl Conn for InProcess<'_> {
    fn call(&mut self, request: &Request) -> Result<Response, String> {
        InProcess::call(self, request)
    }

    fn sent(&self) -> u64 {
        self.attempted
    }
}

/// A typed TCP `Client`, timing each round trip.
struct TcpConn<'a> {
    client: Client,
    rtt: &'a mut Samples,
}

impl Conn for TcpConn<'_> {
    fn call(&mut self, request: &Request) -> Result<Response, String> {
        let start = Instant::now();
        let response = self.client.roundtrip(request).map_err(fail("roundtrip"));
        self.rtt.since(start);
        response
    }

    fn sent(&self) -> u64 {
        self.rtt.len() as u64
    }
}

/// Delivers one round's answers in two partial `Absorb` batches (the
/// streaming ingest pattern); returns the answers accepted.
fn absorb_in_two(
    conn: &mut impl Conn,
    session: u64,
    answers: Vec<WireAnswer>,
) -> Result<u64, String> {
    let cut = answers.len().div_ceil(2);
    let mut accepted = 0u64;
    for batch in [&answers[..cut], &answers[cut..]] {
        if batch.is_empty() {
            continue;
        }
        let request = Request::Absorb {
            session,
            answers: batch.to_vec(),
        };
        match conn.call(&request)? {
            Response::Absorbed { accepted: n, .. } => accepted += n as u64,
            Response::Error { .. } => {}
            other => return Err(format!("absorb answered with {other:?}")),
        }
    }
    Ok(accepted)
}

/// Generated books of `sessions` entities as wire specs, with the time
/// the fusion took.
fn served_specs(
    sessions: usize,
    statements: (usize, usize),
    data_seed: u64,
) -> Result<(Vec<EntitySpec>, f64), String> {
    let mut specs = Vec::with_capacity(sessions);
    let mut fuse_s = 0.0;
    for books in corpus(BookGenConfig::default(), sessions, statements, data_seed) {
        let start = Instant::now();
        let fusion = fuse_books(&books, METHOD).map_err(fail("fusion"))?;
        fuse_s += start.elapsed().as_secs_f64();
        specs.push(entity_specs_from_books(&books, &fusion));
    }
    Ok((interleave(specs), fuse_s))
}

/// `Open` request lines for `specs`, in batches.
fn open_lines(specs: &[EntitySpec]) -> Vec<String> {
    specs
        .chunks(OPEN_BATCH)
        .map(|chunk| {
            wire_line(&Request::Open {
                request: None,
                entities: chunk.to_vec(),
                k: None,
                budget: None,
                pc: None,
            })
        })
        .collect()
}

/// A booted service with every session open.
struct Booted {
    service: Service,
    opened: Vec<OpenedSession>,
    setup: Phase,
    /// The `Open` calls' layer timings, when traced.
    trace: Option<ServeTrace>,
}

/// Boots `config` and opens every session, timing both as the set-up,
/// drift-adjusted by reference calls after each `Open` batch.
fn boot(
    config: ServiceConfig,
    lines: &[String],
    sessions: usize,
    traced: bool,
) -> Result<Booted, String> {
    let mut drift = Drift::new(Reference::Serialize);
    let start = Instant::now();
    let service = Service::new(config).map_err(fail("service boot"))?;
    let mut opened = Vec::with_capacity(sessions);
    let mut conn = InProcess::new(&service, traced);
    for line in lines {
        match conn.call_line(line)? {
            Response::Opened { sessions } => opened.extend(sessions),
            other => return Err(format!("open answered with {other:?}")),
        }
        for _ in 0..SETUP_TICKS {
            drift.tick();
        }
    }
    let trace = conn.trace.take();
    drop(conn);
    let setup = drift.phase(start.elapsed().as_secs_f64());
    let in_order = opened.len() == sessions
        && opened
            .iter()
            .enumerate()
            .all(|(i, s)| s.session == i as u64);
    if !in_order {
        return Err("sessions did not open as ids 0..n in spec order".to_string());
    }
    Ok(Booted {
        service,
        opened,
        setup,
        trace,
    })
}

/// The registry-wide trace, read with a typed call after the run.
fn served_trace(service: &Service) -> Result<ExperimentTrace, String> {
    match service.handle(Request::Trace) {
        Response::Trace { trace } => Ok(trace),
        other => Err(format!("trace answered with {other:?}")),
    }
}

/// A directory for the journals of one run, inside the working
/// directory, removed (with everything under it) when dropped.
pub struct WalRoot {
    path: PathBuf,
}

impl WalRoot {
    /// Creates `.perfbench-wal/<pid>` under the working directory.
    pub fn create() -> Result<WalRoot, String> {
        let path = Path::new(".perfbench-wal").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create the WAL directory {}: {e}", path.display()))?;
        Ok(WalRoot { path })
    }

    /// A fresh, empty directory for one service instance.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for WalRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Removes the shared parent only once no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Copies every file of `from` into a fresh `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(fail("create recovery copy"))?;
    for entry in std::fs::read_dir(from).map_err(fail("read WAL dir"))? {
        let entry = entry.map_err(fail("read WAL dir"))?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(fail("copy WAL file"))?;
    }
    Ok(())
}

struct ServedIteration {
    setup: Phase,
    /// The drive, adjusted by reference calls interleaved with it.
    run: Phase,
    lat: [f64; 3],
    requests: u64,
    failed: u64,
    answers: u64,
    trace: ExperimentTrace,
}

const LAT_QS: [f64; 3] = [0.5, 0.99, 0.999];

/// Sets the metrics every served workload shares, and checks traces
/// repeat bit for bit across iterations.
fn set_served(report: &mut Report, name: &str, iters: &[ServedIteration]) {
    let first = &iters[0];
    for (i, it) in iters.iter().enumerate().skip(1) {
        report.check(it.trace == first.trace, || {
            format!("{name}: iteration {i} trace differs from iteration 0")
        });
    }
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
    report.set("quality.score", first.trace.last().f1);
    report.set(
        "quality.entropy_removed",
        1.0 - first.trace.last().utility / first.trace.points[0].utility,
    );
    report.attempted = iters.iter().map(|it| it.requests).sum();
    report.failed = iters.iter().map(|it| it.failed).sum();
    report.note(format!(
        "{name}: {} iterations, {} drive requests per iteration (latency = one handle_line call)",
        iters.len(),
        first.requests
    ));
    crate::note_iterations(report, &setup, &run);
}

/// Layer timings a traced served iteration adds.
#[derive(Default)]
struct ServedLayers {
    trace: ServeTrace,
    /// Every dispatch of the drive phase, set-up `Open` batches excluded.
    drive_dispatch: Samples,
    collect: Samples,
    snapshot_bytes: u64,
    recover_s: Vec<f64>,
    wall_s: f64,
}

/// Sets the protocol, dispatch and crowd per-layer metrics; `run_s` is
/// the untraced median drive time, not drift-adjusted.
fn set_served_layers(report: &mut Report, layers: &ServedLayers, run_s: f64) {
    let t = &layers.trace;
    report.set("protocol.decode.p50_us", t.decode.percentiles([0.5])[0]);
    report.set("protocol.encode.p50_us", t.encode.percentiles([0.5])[0]);
    report.set("protocol.busy_s", t.decode.busy_s() + t.encode.busy_s());
    report.set("collect.busy_s", layers.collect.busy_s());
    report.set("trace.overhead_s", layers.wall_s - run_s);
    for (verb, samples) in &t.dispatch {
        if *verb == "other" {
            continue;
        }
        let [p50, p99] = samples.percentiles([0.5, 0.99]);
        report.set(&format!("dispatch.{verb}.p50_us"), p50);
        report.set(&format!("dispatch.{verb}.p99_us"), p99);
        report.set(&format!("dispatch.{verb}.calls"), samples.len() as f64);
    }
}

/// `serve-durable`: a per-session daemon journalling every effect,
/// auto-snapshotting on its default cadence; every session driven
/// Select → two partial Absorbs until Exhausted.
pub fn serve_durable(opts: &Options, report: &mut Report) -> Result<(), String> {
    let sizes = opts.sizes;
    let (data_seed, run_seed) = seeds(opts.seed);
    let (specs, fuse_s) = served_specs(sizes.durable_sessions, (3, 6), data_seed)?;
    let round = RoundConfig::new(K, BUDGET, PC).map_err(fail("round config"))?;
    let reference = offline_reference(&specs, round, run_seed)?;
    let wal = WalRoot::create()?;
    let (workers, model) = crowd()?;
    let golds: Vec<Vec<bool>> = specs.iter().map(|s| s.gold.clone()).collect();
    let mut client_crowd = ClientCrowd {
        workers,
        model,
        golds,
        busy: Samples::default(),
    };

    let mut one = |specs: &[EntitySpec],
                   name: &str,
                   traced: bool,
                   layers: Option<&mut ServedLayers>|
     -> Result<ServedIteration, String> {
        let dir = wal.fresh(name)?;
        let config = ServeConfig::new()
            .seed(run_seed)
            .round(K, BUDGET, PC)
            .threads(1)
            .wal_dir(&dir.to_string_lossy())
            .group_commit(true)
            .build()
            .map_err(fail("serve config"))?;
        let lines = open_lines(specs);
        let Booted {
            service,
            opened,
            setup,
            trace: boot_trace,
        } = boot(config.clone(), &lines, specs.len(), traced)?;
        let mut conn = InProcess::new(&service, traced);
        client_crowd.busy = Samples::default();
        let mut drift = Drift::new(Reference::Serialize);
        let start = Instant::now();
        let mut answers = 0u64;
        for info in &opened {
            let mut replay = AnswerReplay::from_seed(info.answer_seed);
            loop {
                let tasks = match conn.call(&Request::Select {
                    session: info.session,
                })? {
                    Response::Round { tasks, .. } => tasks,
                    Response::Exhausted { .. } | Response::Error { .. } => break,
                    other => return Err(format!("select answered with {other:?}")),
                };
                let wire = client_crowd.answer(&mut replay, info.session, &tasks)?;
                answers += absorb_in_two(&mut conn, info.session, wire)?;
            }
            if info.session % DRIFT_EVERY_SESSIONS == DRIFT_EVERY_SESSIONS - 1 {
                drift.tick();
            }
        }
        let run = drift.phase(start.elapsed().as_secs_f64());
        let trace = served_trace(&service)?;
        let lat = conn.lat.percentiles(LAT_QS);
        let requests = conn.attempted;
        if let Some(layers) = layers {
            layers.wall_s = run.s;
            layers.collect = std::mem::take(&mut client_crowd.busy);
            layers.trace = conn.trace.take().unwrap_or_default();
            for samples in layers.trace.dispatch.values() {
                layers.drive_dispatch.extend(samples);
            }
            if let Some(open) = boot_trace.and_then(|mut t| t.dispatch.remove("open")) {
                layers.trace.dispatch.insert("open", open);
            }
            layers.snapshot_bytes = std::fs::metadata(dir.join(SNAPSHOT_FILE))
                .map(|m| m.len())
                .unwrap_or(0);
            // Recovery from the directory as a kill -9 would leave it:
            // copied before the graceful shutdown drains it.
            let copy = dir.with_extension("recover");
            for _ in 0..3 {
                copy_dir(&dir, &copy)?;
                let mut boot_config = config.clone();
                if let Some(d) = boot_config.durability.as_mut() {
                    d.dir = copy.clone();
                }
                let start = Instant::now();
                let revived = Service::new(boot_config).map_err(fail("recovery boot"))?;
                layers.recover_s.push(start.elapsed().as_secs_f64());
                drop(revived);
            }
            let _ = std::fs::remove_dir_all(&copy);
        }
        let failed = conn.failed;
        match conn.call(&Request::Shutdown)? {
            Response::Bye => {}
            other => return Err(format!("shutdown answered with {other:?}")),
        }
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(ServedIteration {
            setup,
            run,
            lat,
            requests,
            failed,
            answers,
            trace,
        })
    };

    let warm = &specs[..(specs.len() / 20).max(1)];
    one(warm, "warm-up", false, None)?;
    let iters = repeat(opts.window, sizes.min_iterations, |i| {
        one(&specs, &format!("iter-{i}"), false, None)
    })?;
    set_served(report, "serve-durable", &iters);
    let spend = (specs.len() * BUDGET) as u64;
    report.check(iters[0].answers == spend, || {
        format!(
            "serve-durable: absorbed {} of {spend} answers",
            iters[0].answers
        )
    });
    report.check(iters[0].trace == reference, || {
        "serve-durable: served trace differs from the offline run_sharded trace".to_string()
    });

    if opts.traced {
        let mut layers = ServedLayers::default();
        let traced = one(&specs, "traced", true, Some(&mut layers))?;
        report.check(traced.trace == iters[0].trace, || {
            "serve-durable: traced trace differs from the untraced run".to_string()
        });
        report.failed += traced.failed;
        let run_s = median(&iters.iter().map(|it| it.run.s).collect::<Vec<_>>());
        set_served_layers(report, &layers, run_s);
        report.set("fusion.fuse_s", fuse_s);
        // Stalls are counted over the drive's dispatches only: an `Open`
        // batch is set-up work, far above any drive-phase threshold.
        let dispatch = &layers.drive_dispatch;
        let p50 = dispatch.percentiles([0.5])[0];
        let stalls: Vec<f64> = dispatch
            .as_slice()
            .iter()
            .copied()
            .filter(|&us| us > 100.0 * p50)
            .collect();
        report.set("durable.stalls", stalls.len() as f64);
        report.set("durable.stall.p50_ms", median(&stalls) / 1e3);
        report.set("durable.snapshot_bytes", layers.snapshot_bytes as f64);
        report.set("durable.recover_s", median(&layers.recover_s));
    }
    Ok(())
}

/// The offline `Experiment::run_sharded` trace over the same specs and
/// seed — what the served trace must equal.
fn offline_reference(
    specs: &[EntitySpec],
    round: RoundConfig,
    run_seed: u64,
) -> Result<ExperimentTrace, String> {
    let cases = specs
        .iter()
        .map(|s| s.clone().into_case())
        .collect::<Result<Vec<_>, _>>()
        .map_err(fail("cases"))?;
    let (workers, model) = crowd()?;
    let mut platform = CrowdPlatform::new(workers, model, run_seed);
    let mut rng = StdRng::seed_from_u64(run_seed);
    Experiment::new(cases, round)
        .map_err(fail("experiment"))?
        .run_sharded(
            &GreedySelector::fast(),
            &mut platform,
            &mut rng,
            &Pool::serial(),
        )
        .map_err(fail("offline run"))
}

/// The serve-sched client mix: Schedule → two partial Absorbs until
/// `NoWork` (or until `max_requests` are sent), a `BudgetStatus` or
/// `Status` read after every 4th admission and `Metrics` every
/// [`METRICS_EVERY`]. With `drift`, a reference call follows every
/// [`DRIFT_EVERY`]th admission. Returns the answers accepted.
fn drive_scheduler(
    conn: &mut impl Conn,
    replays: &mut [AnswerReplay],
    client_crowd: &mut ClientCrowd,
    max_requests: u64,
    mut drift: Option<&mut Drift>,
) -> Result<u64, String> {
    let mut admissions = 0u64;
    let mut answers = 0u64;
    while conn.sent() < max_requests {
        let (session, tasks) = match conn.call(&Request::Schedule { request: None })? {
            Response::Round { session, tasks, .. } => (session, tasks),
            Response::NoWork { .. } | Response::Error { .. } => break,
            other => return Err(format!("schedule answered with {other:?}")),
        };
        admissions += 1;
        let replay = replays
            .get_mut(session as usize)
            .ok_or_else(|| format!("schedule admitted unknown session {session}"))?;
        let wire = client_crowd.answer(replay, session, &tasks)?;
        answers += absorb_in_two(conn, session, wire)?;
        if admissions.is_multiple_of(4) {
            let read = if admissions.is_multiple_of(8) {
                Request::Status { session }
            } else {
                Request::BudgetStatus
            };
            conn.call(&read)?;
        }
        if admissions.is_multiple_of(METRICS_EVERY) {
            conn.call(&Request::Metrics)?;
        }
        if let Some(drift) = drift.as_deref_mut() {
            if admissions.is_multiple_of(DRIFT_EVERY) {
                drift.tick();
            }
        }
    }
    Ok(answers)
}

/// `serve-sched`: a global-budget daemon (no WAL) whose shared budget
/// covers every session exactly, drained through `Schedule`.
pub fn serve_sched(opts: &Options, report: &mut Report) -> Result<(), String> {
    let sizes = opts.sizes;
    let (data_seed, run_seed) = seeds(opts.seed);
    let (specs, fuse_s) = served_specs(sizes.sched_sessions, (5, 9), data_seed)?;
    let (workers, model) = crowd()?;
    let golds: Vec<Vec<bool>> = specs.iter().map(|s| s.gold.clone()).collect();
    let mut client_crowd = ClientCrowd {
        workers,
        model,
        golds,
        busy: Samples::default(),
    };
    let config_for = |sessions: usize| {
        ServeConfig::new()
            .seed(run_seed)
            .round(K, BUDGET, PC)
            .threads(1)
            .global_budget((sessions * BUDGET) as u64)
            .build()
            .map_err(fail("serve config"))
    };

    let mut one = |specs: &[EntitySpec],
                   traced: bool,
                   layers: Option<&mut ServedLayers>|
     -> Result<ServedIteration, String> {
        let grant = (specs.len() * BUDGET) as u64;
        let lines = open_lines(specs);
        let Booted {
            service,
            opened,
            setup,
            trace: boot_trace,
        } = boot(config_for(specs.len())?, &lines, specs.len(), traced)?;
        let mut replays: Vec<AnswerReplay> = opened
            .iter()
            .map(|s| AnswerReplay::from_seed(s.answer_seed))
            .collect();
        let mut conn = InProcess::new(&service, traced);
        client_crowd.busy = Samples::default();
        let mut drift = Drift::new(Reference::Alloc);
        let start = Instant::now();
        let answers = drive_scheduler(
            &mut conn,
            &mut replays,
            &mut client_crowd,
            u64::MAX,
            Some(&mut drift),
        )?;
        let run = drift.phase(start.elapsed().as_secs_f64());
        let lat = conn.lat.percentiles(LAT_QS);
        let requests = conn.attempted;
        let failed = conn.failed;
        let ledger = match service.handle(Request::BudgetStatus) {
            Response::Budget {
                budget,
                spent,
                remaining,
                ..
            } => (budget, spent, remaining),
            other => return Err(format!("budget status answered with {other:?}")),
        };
        if ledger != (grant, grant, 0) || answers != grant {
            return Err(format!(
                "serve-sched: ledger (budget, spent, remaining) = {ledger:?} and {answers} \
                 answers absorbed; expected ({grant}, {grant}, 0) and {grant}"
            ));
        }
        let trace = served_trace(&service)?;
        if let Some(layers) = layers {
            layers.wall_s = run.s;
            layers.collect = std::mem::take(&mut client_crowd.busy);
            layers.trace = conn.trace.take().unwrap_or_default();
            if let Some(open) = boot_trace.and_then(|mut t| t.dispatch.remove("open")) {
                layers.trace.dispatch.insert("open", open);
            }
        }
        Ok(ServedIteration {
            setup,
            run,
            lat,
            requests,
            failed,
            answers,
            trace,
        })
    };

    let warm = &specs[..(specs.len() / 20).max(1)];
    one(warm, false, None)?;
    let iters = repeat(opts.window, sizes.min_iterations, |_| {
        one(&specs, false, None)
    })?;
    set_served(report, "serve-sched", &iters);

    if opts.traced {
        let mut layers = ServedLayers::default();
        let traced = one(&specs, true, Some(&mut layers))?;
        report.check(traced.trace == iters[0].trace, || {
            "serve-sched: traced trace differs from the untraced run".to_string()
        });
        report.failed += traced.failed;
        let run_s = median(&iters.iter().map(|it| it.run.s).collect::<Vec<_>>());
        set_served_layers(report, &layers, run_s);
        report.set("fusion.fuse_s", fuse_s);
        let probe = &specs[..sizes.tcp_sessions.min(specs.len())];
        let rtt = tcp_probe(
            probe,
            config_for(probe.len())?,
            sizes.tcp_requests,
            &mut client_crowd,
        )?;
        let [p50, p99] = rtt.percentiles([0.5, 0.99]);
        report.set("server.rtt.p50_us", p50);
        report.set("server.rtt.p99_us", p99);
        report.note(format!(
            "serve-sched traced: {} TCP round trips over one loopback connection",
            rtt.len()
        ));
    }
    Ok(())
}

/// Times a fixed count of serve-sched mix round trips over one TCP
/// `Client` to `serve_tcp` on loopback; always shuts the daemon down.
fn tcp_probe(
    specs: &[EntitySpec],
    config: ServiceConfig,
    requests: usize,
    client_crowd: &mut ClientCrowd,
) -> Result<Samples, String> {
    let service = Arc::new(Service::new(config).map_err(fail("service boot"))?);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(fail("bind loopback"))?;
    let addr = listener.local_addr().map_err(fail("local addr"))?;
    let daemon = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_tcp(service, listener))
    };
    let mut rtt = Samples::with_capacity(requests);
    let result = (|| -> Result<(), String> {
        let mut client = Client::connect(addr).map_err(fail("connect"))?;
        client.hello().map_err(fail("hello"))?;
        let mut replays = Vec::with_capacity(specs.len());
        for chunk in specs.chunks(OPEN_BATCH) {
            let opened = client
                .open_all(chunk.to_vec(), OpenOptions::default())
                .map_err(fail("open"))?;
            replays.extend(
                opened
                    .iter()
                    .map(|s| AnswerReplay::from_seed(s.answer_seed)),
            );
        }
        let mut conn = TcpConn {
            client,
            rtt: &mut rtt,
        };
        drive_scheduler(&mut conn, &mut replays, client_crowd, requests as u64, None)?;
        conn.client
            .roundtrip(&Request::Shutdown)
            .map_err(fail("shutdown"))?;
        Ok(())
    })();
    if result.is_err() {
        if let Ok(mut client) = Client::connect(addr) {
            let _ = client.roundtrip(&Request::Shutdown);
        }
    }
    let joined = daemon.join();
    result?;
    joined
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(fail("daemon"))?;
    Ok(rtt)
}
