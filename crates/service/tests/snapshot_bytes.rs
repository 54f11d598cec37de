//! Incremental snapshots are byte-identical to a full encode.
//!
//! A daemon keeps each session's last encoded snapshot piece and
//! re-encodes only the sessions changed since its previous snapshot.
//! Two properties pin that the cached pieces never go stale:
//!
//! 1. **Registry level.** After every step of a random workload (opens
//!    with and without idempotency tokens, selects, partial and duplicate
//!    absorbs, evictions, restores), [`durable::encode_snapshot`] equals
//!    `protocol::encode(&DurableSnapshot { registry: registry.snapshot(),
//!    … })` byte for byte.
//! 2. **Daemon level.** A durable daemon snapshotting after every effect
//!    (so every snapshot is incremental) writes, after every request,
//!    exactly the `snapshot.json` that a fresh daemon writes when it
//!    recovers the same history from a journal and encodes every session
//!    from scratch.
//!
//! Both run at shards {1, 8} × threads {1, 4}, per-session and
//! `--budget-mode global`.

use crowdfusion_core::pool::Pool;
use crowdfusion_core::round::RoundConfig;
use crowdfusion_core::selection::GreedySelector;
use crowdfusion_core::session::{EntitySpec, OpenedSession, PublishedTask, SelectOutcome};
use crowdfusion_core::shard::ShardedRegistry;
use crowdfusion_service::durable::{self, CompletedOpen, SNAPSHOT_FILE};
use crowdfusion_service::protocol::{self, Request, Response, WireAnswer};
use crowdfusion_service::service::{SelectorChoice, ServiceConfig};
use crowdfusion_service::{
    BudgetMode, Clock, DurabilityConfig, DurableSnapshot, SchedState, Service,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const SHARDS: [usize; 2] = [1, 8];
const THREADS: [usize; 2] = [1, 4];
const MODES: [BudgetMode; 2] = [BudgetMode::PerSession, BudgetMode::Global];
const STEPS: usize = 24;
const TTL_MS: u64 = 1_000;

fn round() -> RoundConfig {
    RoundConfig::new(2, 6, 0.8).unwrap()
}

/// One or two small entities (2–4 facts) drawn from `rng`.
fn specs(rng: &mut StdRng) -> Vec<EntitySpec> {
    (0..rng.gen_range(1..=2usize))
        .map(|e| {
            let n = rng.gen_range(2..=4usize);
            let marginals: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..0.95)).collect();
            let gold: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let mut spec = EntitySpec::simple(format!("e{e}"), marginals, gold);
            if n >= 3 {
                spec.groups = vec![vec![0, 1]];
            }
            spec
        })
        .collect()
}

/// A random idempotency token from a small space, so retries happen.
fn token(rng: &mut StdRng) -> Option<u64> {
    rng.gen_bool(0.5).then(|| rng.gen_range(0..4u64))
}

/// Some of `tasks`' answers, shuffled, with one repeated. Tasks are
/// drawn from the whole round each call, so answers an earlier call
/// delivered come again as duplicates.
fn answers(rng: &mut StdRng, tasks: &[PublishedTask]) -> Vec<(u64, bool)> {
    let mut picked: Vec<(u64, bool)> = Vec::new();
    for task in tasks {
        if rng.gen_bool(0.6) {
            picked.push((task.id, rng.gen_bool(0.5)));
        }
    }
    picked.shuffle(rng);
    if let Some(&first) = picked.first() {
        picked.push(first);
    }
    picked
}

// --- 1. registry level -------------------------------------------------------

/// Registry-level mirror of a daemon's durable state.
struct Mirror {
    registry: ShardedRegistry,
    shards: usize,
    threads: usize,
    seq: u64,
    ledger: BTreeMap<u64, Vec<OpenedSession>>,
    sched: Option<SchedState>,
    rounds: BTreeMap<u64, Vec<PublishedTask>>,
}

impl Mirror {
    fn new(shards: usize, threads: usize, mode: BudgetMode) -> Mirror {
        Mirror {
            registry: ShardedRegistry::new(3, round(), Pool::new(threads), shards),
            shards,
            threads,
            seq: 0,
            ledger: BTreeMap::new(),
            sched: mode.is_global().then(|| SchedState::new(40)),
            rounds: BTreeMap::new(),
        }
    }

    fn live(&self, rng: &mut StdRng) -> Option<u64> {
        self.registry.ids().choose(rng).copied()
    }

    fn step(&mut self, rng: &mut StdRng) {
        self.seq += 1;
        match rng.gen_range(0..10u32) {
            0 | 1 => {
                let request = token(rng);
                let opened = self.registry.open_batch(specs(rng), None).unwrap();
                if let Some(request) = request {
                    self.ledger.entry(request).or_insert(opened);
                }
            }
            2..=4 => {
                let Some(session) = self.live(rng) else {
                    return;
                };
                let selector = GreedySelector::fast();
                let outcome = match self.sched.is_some() {
                    true => self.registry.select_capped(
                        session,
                        &selector,
                        Some(rng.gen_range(1..=2usize)),
                    ),
                    false => self.registry.select(session, &selector),
                };
                if let Ok(SelectOutcome::Round(round)) = outcome {
                    if let Some(sched) = self.sched.as_mut() {
                        let _ = sched.ledger.charge(round.tasks.len() as u64);
                        sched.mark(token(rng), session);
                    }
                    self.rounds.insert(session, round.tasks);
                }
            }
            5..=7 => {
                let Some(session) = self.live(rng) else {
                    return;
                };
                let tasks = self.rounds.get(&session).cloned().unwrap_or_default();
                let _ = self.registry.absorb(session, &answers(rng, &tasks));
            }
            8 => {
                if let Some(session) = self.live(rng) {
                    self.registry.evict(session).unwrap();
                    if let Some(sched) = self.sched.as_mut() {
                        sched.queue.remove(session);
                    }
                }
            }
            _ => {
                // Restore: a fresh registry from the current snapshot,
                // with the ledger and admission marks dropped.
                self.registry = ShardedRegistry::from_snapshot(
                    self.registry.snapshot(),
                    Pool::new(self.threads),
                    self.shards,
                )
                .unwrap();
                self.ledger.clear();
                if let Some(sched) = self.sched.as_mut() {
                    sched.scheduled.clear();
                }
            }
        }
        if let Some(sched) = self.sched.as_mut() {
            for session in self.registry.ids() {
                let gain = self
                    .registry
                    .with_session(session, SchedState::session_gain)
                    .unwrap();
                sched.refresh(session, gain);
            }
        }
    }

    fn check(&self) -> Result<(), TestCaseError> {
        let opens: Vec<CompletedOpen> = self
            .ledger
            .iter()
            .map(|(&request, sessions)| CompletedOpen {
                request,
                sessions: sessions.clone(),
            })
            .collect();
        let sched = self.sched.as_ref().map(SchedState::snapshot);
        let text = durable::encode_snapshot(self.seq, &self.registry, &opens, sched.as_ref());
        let reference = protocol::encode(&DurableSnapshot {
            applied_seq: self.seq,
            registry: self.registry.snapshot(),
            opens,
            sched,
        });
        prop_assert!(
            text == reference,
            "applied_seq {}: the incremental encode differs from a full encode",
            self.seq
        );
        Ok(())
    }
}

// --- 2. daemon level ---------------------------------------------------------

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "crowdfusion-snapshot-bytes-{label}-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(
    dir: &Path,
    snapshot_every: usize,
    shards: usize,
    threads: usize,
    mode: BudgetMode,
    clock: Clock,
) -> ServiceConfig {
    let mut config = ServiceConfig::new(11, round(), threads, SelectorChoice::Greedy);
    config.shards = shards;
    config.budget_mode = mode;
    config.global_budget = 40;
    config.clock = clock;
    config.session_ttl_ms = Some(TTL_MS);
    let mut durability = DurabilityConfig::new(dir);
    durability.snapshot_every = snapshot_every;
    config.durability = Some(durability);
    config
}

/// A daemon and the directory it persists into.
struct Daemon {
    service: Service,
    dir: PathBuf,
    clock: Clock,
}

impl Daemon {
    fn boot(snapshot_every: usize, shards: usize, threads: usize, mode: BudgetMode) -> Daemon {
        let dir = temp_dir("daemon");
        let clock = Clock::manual();
        let service = Service::new(config(
            &dir,
            snapshot_every,
            shards,
            threads,
            mode,
            clock.clone(),
        ))
        .unwrap();
        Daemon {
            service,
            dir,
            clock,
        }
    }

    fn export(&self) -> String {
        self.dir.join("export.json").to_string_lossy().into_owned()
    }
}

/// The next request of the random workload. `Snapshot`/`Restore` carry
/// no path yet: each daemon names its own export file.
fn next_request(
    rng: &mut StdRng,
    rounds: &BTreeMap<u64, Vec<PublishedTask>>,
    mode: BudgetMode,
    next_session: u64,
) -> Request {
    let session = rng.gen_range(0..next_session.max(1));
    match rng.gen_range(0..12u32) {
        0 | 1 => Request::Open {
            request: token(rng),
            entities: specs(rng),
            k: None,
            budget: None,
            pc: None,
        },
        2..=4 if mode.is_global() && rng.gen_bool(0.7) => Request::Schedule {
            request: token(rng),
        },
        2..=4 => Request::Select { session },
        5..=8 => {
            let tasks = rounds.get(&session).cloned().unwrap_or_default();
            Request::Absorb {
                session,
                answers: answers(rng, &tasks)
                    .into_iter()
                    .map(|(task, value)| WireAnswer { task, value })
                    .collect(),
            }
        }
        9 => Request::Snapshot {
            path: String::new(),
        },
        10 => Request::Restore {
            path: String::new(),
        },
        _ => Request::Status { session },
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn daemon_check(
    seed: u64,
    shards: usize,
    threads: usize,
    mode: BudgetMode,
) -> Result<(), TestCaseError> {
    // `live` snapshots after every effect; `journal` never auto-snapshots,
    // so its directory holds the history as journal records.
    let live = Daemon::boot(1, shards, threads, mode);
    let journal = Daemon::boot(0, shards, threads, mode);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rounds: BTreeMap<u64, Vec<PublishedTask>> = BTreeMap::new();
    let mut next_session = 0u64;
    for step in 0..STEPS {
        let tick = rng.gen_range(0..=600u64);
        live.clock.advance(tick);
        journal.clock.advance(tick);
        let request = next_request(&mut rng, &rounds, mode, next_session);
        let (live_request, journal_request) = match request {
            Request::Snapshot { .. } => (
                Request::Snapshot {
                    path: live.export(),
                },
                Request::Snapshot {
                    path: journal.export(),
                },
            ),
            Request::Restore { .. } => (
                Request::Restore {
                    path: live.export(),
                },
                Request::Restore {
                    path: journal.export(),
                },
            ),
            other => (other.clone(), other),
        };
        journal.service.handle(journal_request);
        match live.service.handle(live_request) {
            Response::Opened { sessions } => {
                let top = sessions.iter().map(|s| s.session + 1).max();
                next_session = next_session.max(top.unwrap_or(0));
            }
            Response::Round { session, tasks, .. } => {
                rounds.insert(session, tasks);
            }
            _ => {}
        }

        // A fresh daemon recovering the journal encodes every session
        // from scratch in its boot snapshot.
        let fresh = temp_dir("fresh");
        copy_dir(&journal.dir, &fresh);
        let recovered =
            Service::new(config(&fresh, 0, shards, threads, mode, Clock::manual())).unwrap();
        drop(recovered);
        let incremental = std::fs::read_to_string(live.dir.join(SNAPSHOT_FILE)).unwrap();
        let full = std::fs::read_to_string(fresh.join(SNAPSHOT_FILE)).unwrap();
        prop_assert!(
            incremental == full,
            "step {step}: the incremental snapshot differs from a full encode"
        );
        std::fs::remove_dir_all(&fresh).unwrap();
    }
    for daemon in [live, journal] {
        drop(daemon.service);
        std::fs::remove_dir_all(&daemon.dir).unwrap();
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn incremental_registry_encoding_matches_a_full_encode(seed in 0u64..10_000) {
        for shards in SHARDS {
            for threads in THREADS {
                for mode in MODES {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut mirror = Mirror::new(shards, threads, mode);
                    mirror.check()?;
                    for _ in 0..STEPS {
                        mirror.step(&mut rng);
                        mirror.check()?;
                    }
                }
            }
        }
    }

    #[test]
    fn daemon_snapshots_match_a_full_encode_after_every_request(seed in 0u64..10_000) {
        for shards in SHARDS {
            for threads in THREADS {
                for mode in MODES {
                    daemon_check(seed, shards, threads, mode)?;
                }
            }
        }
    }
}
