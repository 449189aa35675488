//! Durable enactment: the engine's frontier scheduler
//! ([`crate::engine`]) journaling every state transition to a
//! [`RunJournal`], with crash injection and resume-from-log recovery.
//!
//! [`Executor::run`] loses the whole run when the enacting process
//! dies — unacceptable for the paper's long-running distributed mining
//! jobs. [`Executor::run_durable`] drives the same orchestrator loop,
//! which then journals each dispatch and each acknowledged claim. The
//! journal is replayed first to rebuild the remaining-work frontier:
//! completed tasks are restored, **not** re-executed, and journaled
//! failures stay terminal. A failure blocks only its downstream cone,
//! and events are flushed in `(tick, task id)` order. A worker that
//! dies mid-claim never acks, and the orchestrator redelivers the task
//! under a fresh claim — at-least-once execution, exactly-once
//! recording.
//!
//! Crash injection wires into the fault engine
//! ([`dm_wsrf::resilience::CrashScript`]): scripted orchestrator
//! kill-points (by virtual-clock instant or by journal-append count,
//! so tests can kill the enactment at *every* task boundary and
//! mid-task) and scripted worker deaths. A killed orchestrator returns
//! [`WorkflowError::Crashed`]; everything appended before the kill is
//! durable, and a fresh `Executor` given the surviving journal bytes
//! resumes to a report whose
//! [`canonical bytes`](ExecutionReport::canonical_bytes) are identical
//! to an uninterrupted run's.

use crate::engine::{
    Bindings, Entry, ExecutionReport, Executor, Frontier, Policy, Status, TaskRun,
};
use crate::error::{Result, WorkflowError};
use crate::graph::{TaskGraph, TaskId, Token};
use crate::journal::{canonical_token_bytes, RunEvent, RunJournal};
use dm_wsrf::resilience::CrashScript;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Configuration for one durable enactment: the journal to append to
/// (and resume from), the worker-pool width, and optional scripted
/// crashes for fault-injection tests.
#[derive(Clone)]
pub struct DurableConfig {
    journal: Arc<RunJournal>,
    workers: usize,
    orchestrator_crash: Option<Arc<CrashScript>>,
    kill_after_appends: Option<u64>,
    worker_crash: Option<Arc<CrashScript>>,
    kill_worker_on_claim: Option<u64>,
}

impl std::fmt::Debug for DurableConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableConfig")
            .field("journal", &self.journal)
            .field("workers", &self.workers)
            .field("orchestrator_crash", &self.orchestrator_crash.is_some())
            .field("kill_after_appends", &self.kill_after_appends)
            .field("worker_crash", &self.worker_crash.is_some())
            .field("kill_worker_on_claim", &self.kill_worker_on_claim)
            .finish()
    }
}

impl DurableConfig {
    /// Durable enactment appending to (and resuming from) `journal`,
    /// with a default pool of 4 workers and no scripted crashes.
    pub fn new(journal: Arc<RunJournal>) -> DurableConfig {
        DurableConfig {
            journal,
            workers: 4,
            orchestrator_crash: None,
            kill_after_appends: None,
            worker_crash: None,
            kill_worker_on_claim: None,
        }
    }

    /// Builder: use `workers` pool threads (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> DurableConfig {
        self.workers = workers.max(1);
        self
    }

    /// Builder: kill the orchestrator when `script` schedules a crash
    /// on the virtual clock (polled at each task acknowledgement).
    pub fn with_orchestrator_crash(mut self, script: Arc<CrashScript>) -> DurableConfig {
        self.orchestrator_crash = Some(script);
        self
    }

    /// Builder: kill the orchestrator immediately after its `n`-th
    /// journal append in this process — the boundary-exhaustive kill
    /// point (append 1 is the run-started record; task-started appends
    /// land mid-task, before the matching completion).
    pub fn with_kill_after_appends(mut self, n: u64) -> DurableConfig {
        self.kill_after_appends = Some(n);
        self
    }

    /// Builder: workers die (discard their finished claim without
    /// acking) when `script` schedules a crash on the virtual clock.
    pub fn with_worker_crash(mut self, script: Arc<CrashScript>) -> DurableConfig {
        self.worker_crash = Some(script);
        self
    }

    /// Builder: the worker executing claim number `claim` (claims are
    /// numbered from 1 in dispatch order) dies instead of acking it —
    /// a deterministic single worker death.
    pub fn with_kill_worker_on_claim(mut self, claim: u64) -> DurableConfig {
        self.kill_worker_on_claim = Some(claim);
        self
    }

    /// The journal this enactment appends to.
    pub fn journal(&self) -> &Arc<RunJournal> {
        &self.journal
    }

    /// The configured worker-pool width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether the worker that just finished claim `claim` at simulated
    /// instant `tick` dies instead of acking it. The thread itself keeps
    /// serving — it models a restarted worker.
    pub(crate) fn worker_dies(&self, claim: u64, tick: Duration) -> bool {
        self.worker_crash
            .as_ref()
            .is_some_and(|s| s.poll_kill(tick))
            || self.kill_worker_on_claim == Some(claim)
    }
}

/// The durable enactment's journal sink. The orchestrator is its only
/// writer; it counts this process's appends and fires the scripted
/// orchestrator kill points.
pub(crate) struct Appender<'a> {
    pub(crate) config: &'a DurableConfig,
    appended: u64,
    /// Run identity stamped on the run-started record.
    identity: u128,
    /// Whether the journal already holds the run-started and the
    /// run-finished record.
    started: bool,
    finished: bool,
}

impl<'a> Appender<'a> {
    fn append(&mut self, event: &RunEvent) -> Result<()> {
        self.config.journal.append(event);
        self.appended += 1;
        if self.config.kill_after_appends == Some(self.appended) {
            return Err(WorkflowError::Crashed {
                appended: self.appended,
            });
        }
        Ok(())
    }

    pub(crate) fn run_started(&mut self, tasks: usize) -> Result<()> {
        if self.started {
            return Ok(());
        }
        self.append(&RunEvent::RunStarted {
            tasks,
            fingerprint: self.identity,
        })
    }

    /// Journal a dispatch. A crash between this append and the task's
    /// acknowledgement is the mid-task kill point: on resume the
    /// started-but-never-completed task is simply re-executed.
    pub(crate) fn task_started(&mut self, graph: &TaskGraph, task: TaskId) -> Result<()> {
        let name = graph.task(task)?.name.clone();
        self.append(&RunEvent::TaskStarted { task, name })
    }

    /// Journal an acknowledged claim, after polling the scripted
    /// orchestrator crash on the virtual clock.
    pub(crate) fn task_acked(
        &mut self,
        exec: &Executor,
        graph: &TaskGraph,
        task: TaskId,
        result: &std::result::Result<Vec<Token>, String>,
        run: &TaskRun,
    ) -> Result<()> {
        if let Some(script) = &self.config.orchestrator_crash {
            if script.poll_kill(exec.virtual_now()) {
                return Err(WorkflowError::Crashed {
                    appended: self.appended,
                });
            }
        }
        let name = graph.task(task)?.name.clone();
        match result {
            Ok(outputs) => {
                if run.sheds > 0 {
                    self.append(&RunEvent::TaskShed {
                        task,
                        name: name.clone(),
                        sheds: run.sheds,
                    })?;
                }
                self.append(&RunEvent::TaskCompleted {
                    task,
                    name,
                    attempts: run.attempts,
                    virtual_nanos: run.virtual_duration.as_nanos() as u64,
                    cached: run.cached,
                    sheds: run.sheds,
                    outputs: outputs.clone(),
                })
            }
            Err(message) => self.append(&RunEvent::TaskFailed {
                task,
                name,
                message: message.clone(),
            }),
        }
    }

    pub(crate) fn run_finished(&mut self, tasks: usize, elapsed: Duration) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.append(&RunEvent::RunFinished {
            tasks,
            virtual_nanos: elapsed.as_nanos() as u64,
        })
    }
}

/// The identity a durable run is journaled under: the graph's
/// structural fingerprint hashed together with every binding, in
/// `(task, port)` order. A journal resumes only the run that wrote it —
/// the same workflow fed the same inputs.
fn run_identity(graph: &TaskGraph, bindings: &Bindings) -> u128 {
    let mut keys: Vec<_> = bindings.keys().copied().collect();
    keys.sort_unstable();
    let mut bytes = graph.structure_fingerprint().to_le_bytes().to_vec();
    for (task, port) in keys {
        bytes.extend_from_slice(format!("b {task} {port} ").as_bytes());
        canonical_token_bytes(&mut bytes, &bindings[&(task, port)]);
        bytes.push(b'\n');
    }
    let mut h = dm_wsrf::dataplane::Hasher128::new();
    h.write(&bytes);
    h.finish()
}

/// The run record of a task restored from the journal.
fn restored(task: TaskId, run: TaskRun) -> Entry {
    Entry {
        tick: Duration::ZERO,
        task,
        events: Vec::new(),
        run,
    }
}

impl Executor {
    /// Enact `graph` durably: journal every state transition to
    /// `config.journal()`, executing on a claim/ack worker pool of
    /// `config.workers()` (inline at one). If the journal already holds
    /// a prefix of this run's history, the enactment **resumes**:
    /// completed tasks are restored from the log (zero re-execution,
    /// counted as replay hits), failed tasks stay terminal with their
    /// downstream cones blocked, and only the remaining frontier runs.
    ///
    /// Unlike [`Executor::run`], task failure is not fatal to the
    /// enactment: the run continues on independent branches and the
    /// returned report carries per-task errors ([`TaskRun::error`]).
    /// The report's event stream and run order are deterministic (as
    /// with [`Executor::with_deterministic_events`]).
    ///
    /// Returns [`WorkflowError::Crashed`] when a scripted crash kills
    /// the orchestrator (the journal keeps everything appended before
    /// the kill), and [`WorkflowError::JournalMismatch`] when the
    /// journal belongs to a different run: another workflow, or the
    /// same workflow with different bindings.
    pub fn run_durable(
        &self,
        graph: &TaskGraph,
        bindings: &HashMap<(TaskId, usize), Token>,
        config: &DurableConfig,
    ) -> Result<ExecutionReport> {
        let policy = Policy {
            workers: config.workers,
            fail_fast: false,
            buffered: true,
        };
        let mut frontier = Frontier::new(graph, bindings, policy)?;
        let identity = run_identity(graph, bindings);
        let journal = &config.journal;
        let replay = journal.replay();
        if let Some((_, recorded)) = replay.started.filter(|s| s.1 != identity) {
            return Err(WorkflowError::JournalMismatch {
                journal: recorded,
                graph: identity,
            });
        }
        journal.note_replay_hits(replay.completed.len() as u64);

        // Restore the frontier: completed tasks with their outputs,
        // journaled failures as terminal.
        for (task, replayed) in replay.completed {
            frontier.status[task] = Status::Completed;
            frontier.produced[task] = Some(replayed.outputs);
            let run = TaskRun {
                attempts: replayed.attempts,
                virtual_duration: Duration::from_nanos(replayed.virtual_nanos),
                sheds: replayed.sheds,
                cached: replayed.cached,
                replayed: true,
                ..TaskRun::blank(replayed.name)
            };
            frontier.runs.push(restored(task, run));
        }
        for (task, (name, message)) in replay.failed {
            frontier.status[task] = Status::Failed;
            let run = TaskRun {
                replayed: true,
                error: Some(message),
                ..TaskRun::blank(name)
            };
            frontier.runs.push(restored(task, run));
        }
        // Repopulate the memo cache from replayed pure tasks, in
        // topological order, so memo hits survive recovery: re-executed
        // downstream work (and future warm runs) still find them.
        if let Some(memo) = &self.memo {
            for task in graph.topological_order()? {
                let Some(outputs) = &frontier.produced[task] else {
                    continue;
                };
                if let Some(inputs) = frontier.inputs(task) {
                    memo.populate(graph.task(task)?.tool.as_ref(), &inputs, outputs.clone());
                }
            }
        }

        frontier.journal = Some(Appender {
            config,
            appended: 0,
            identity,
            started: replay.started.is_some(),
            finished: replay.finished,
        });
        self.enact(frontier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::test_tools::*;
    use std::sync::Arc;

    fn diamond() -> TaskGraph {
        // src → (left, right) → join
        let mut g = TaskGraph::new();
        let src = g.add_named_task("src", Arc::new(ConstText("x".into())));
        let left = g.add_named_task("left", Arc::new(Upper));
        let right = g.add_named_task("right", Arc::new(Upper));
        let join = g.add_named_task("join", Arc::new(Concat));
        g.connect(src, 0, left, 0).unwrap();
        g.connect(src, 0, right, 0).unwrap();
        g.connect(left, 0, join, 0).unwrap();
        g.connect(right, 0, join, 1).unwrap();
        g
    }

    #[test]
    fn durable_run_matches_plain_run() {
        let g = diamond();
        let plain = Executor::parallel().run(&g, &HashMap::new()).unwrap();
        let journal = Arc::new(RunJournal::new());
        let durable = Executor::parallel()
            .run_durable(
                &g,
                &HashMap::new(),
                &DurableConfig::new(Arc::clone(&journal)),
            )
            .unwrap();
        assert_eq!(plain.canonical_bytes(), durable.canonical_bytes());
        assert_eq!(durable.replay_hits(), 0);
        // 1 run-started + 4 started + 4 completed + 1 run-finished.
        assert_eq!(journal.stats().appends, 10);
        let replay = journal.replay();
        assert!(replay.finished);
        assert_eq!(replay.completed.len(), 4);
    }

    #[test]
    fn kill_at_every_append_then_resume_is_byte_identical() {
        let g = diamond();
        let baseline = Executor::parallel()
            .run_durable(
                &g,
                &HashMap::new(),
                &DurableConfig::new(Arc::new(RunJournal::new())),
            )
            .unwrap();
        let expected = baseline.canonical_bytes();
        for kill_at in 1..=10u64 {
            let journal = Arc::new(RunJournal::new());
            let err = Executor::parallel()
                .run_durable(
                    &g,
                    &HashMap::new(),
                    &DurableConfig::new(Arc::clone(&journal)).with_kill_after_appends(kill_at),
                )
                .unwrap_err();
            assert!(
                matches!(err, WorkflowError::Crashed { appended } if appended == kill_at),
                "kill point {kill_at}: {err}"
            );
            // Process boundary: only the journal bytes survive.
            let survived = Arc::new(RunJournal::from_bytes(&journal.bytes()));
            let completed_at_crash = survived.replay().completed.len();
            let resumed = Executor::parallel()
                .run_durable(
                    &g,
                    &HashMap::new(),
                    &DurableConfig::new(Arc::clone(&survived)),
                )
                .unwrap();
            assert_eq!(
                resumed.canonical_bytes(),
                expected,
                "kill point {kill_at}: resumed report differs"
            );
            // Completed tasks were restored, never re-executed.
            assert_eq!(resumed.replay_hits(), completed_at_crash);
            assert_eq!(survived.stats().replay_hits, completed_at_crash as u64);
            assert_eq!(
                resumed.runs.iter().filter(|r| !r.replayed).count(),
                4 - completed_at_crash
            );
        }
    }

    #[test]
    fn worker_death_redelivers_unacked_claims() {
        let g = diamond();
        let journal = Arc::new(RunJournal::new());
        let report = Executor::parallel()
            .run_durable(
                &g,
                &HashMap::new(),
                &DurableConfig::new(Arc::clone(&journal))
                    .with_workers(2)
                    .with_kill_worker_on_claim(2),
            )
            .unwrap();
        assert_eq!(journal.stats().redeliveries, 1);
        let plain = Executor::parallel().run(&g, &HashMap::new()).unwrap();
        assert_eq!(report.canonical_bytes(), plain.canonical_bytes());
        // The redelivered task was journaled as started twice.
        let starts = journal
            .events()
            .iter()
            .filter(|e| matches!(e, RunEvent::TaskStarted { .. }))
            .count();
        assert_eq!(starts, 5);
    }

    #[test]
    fn failed_task_blocks_only_its_cone() {
        // src → fail → doomed ; src → ok (independent branch).
        let mut g = TaskGraph::new();
        let src = g.add_named_task("src", Arc::new(ConstText("x".into())));
        let fail = g.add_named_task("fail", Arc::new(Flaky::failing(usize::MAX)));
        let doomed = g.add_named_task("doomed", Arc::new(Upper));
        let ok = g.add_named_task("ok", Arc::new(Upper));
        g.connect(src, 0, fail, 0).unwrap();
        g.connect(fail, 0, doomed, 0).unwrap();
        g.connect(src, 0, ok, 0).unwrap();

        let journal = Arc::new(RunJournal::new());
        let report = Executor::parallel()
            .run_durable(
                &g,
                &HashMap::new(),
                &DurableConfig::new(Arc::clone(&journal)),
            )
            .unwrap();
        // The independent branch completed; the cone did not run.
        assert_eq!(report.output(ok, 0), Some(&Token::Text("X".into())));
        assert!(report.output(doomed, 0).is_none());
        let names: Vec<_> = report.runs.iter().map(|r| r.task.as_str()).collect();
        assert!(!names.contains(&"doomed"));
        let failed_run = report.runs.iter().find(|r| r.task == "fail").unwrap();
        assert!(failed_run.error.is_some());
        // Resuming the finished journal re-executes nothing and keeps
        // the failure terminal.
        let resumed = Executor::parallel()
            .run_durable(
                &g,
                &HashMap::new(),
                &DurableConfig::new(Arc::clone(&journal)),
            )
            .unwrap();
        assert_eq!(resumed.canonical_bytes(), report.canonical_bytes());
        assert_eq!(resumed.replay_hits(), 3); // src, ok, and the failure record
        assert!(resumed.runs.iter().all(|r| r.replayed));
    }

    #[test]
    fn journal_from_a_different_workflow_is_rejected() {
        let g = diamond();
        let journal = Arc::new(RunJournal::new());
        Executor::parallel()
            .run_durable(
                &g,
                &HashMap::new(),
                &DurableConfig::new(Arc::clone(&journal)),
            )
            .unwrap();
        let mut other = TaskGraph::new();
        other.add_named_task("src", Arc::new(ConstText("x".into())));
        let err = Executor::parallel()
            .run_durable(&other, &HashMap::new(), &DurableConfig::new(journal))
            .unwrap_err();
        assert!(matches!(err, WorkflowError::JournalMismatch { .. }));
    }

    #[test]
    fn orchestrator_crash_script_kills_on_virtual_clock() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let g = diamond();
        let nanos = Arc::new(AtomicU64::new(0));
        let clock_nanos = Arc::clone(&nanos);
        let clock: crate::engine::ClockSource =
            Arc::new(move || Duration::from_nanos(clock_nanos.load(Ordering::SeqCst)));
        // The virtual clock starts past the scripted instant, so the
        // first acknowledgement kills the orchestrator.
        nanos.store(Duration::from_secs(5).as_nanos() as u64, Ordering::SeqCst);
        let script = Arc::new(CrashScript::new());
        script.schedule(dm_wsrf::resilience::CrashRestart::at(Duration::from_secs(
            1,
        )));
        let journal = Arc::new(RunJournal::new());
        let err = Executor::parallel()
            .with_virtual_clock(clock)
            .run_durable(
                &g,
                &HashMap::new(),
                &DurableConfig::new(Arc::clone(&journal))
                    .with_orchestrator_crash(Arc::clone(&script)),
            )
            .unwrap_err();
        assert!(matches!(err, WorkflowError::Crashed { .. }));
        assert_eq!(script.kills_fired(), 1);
        // The journal survived and a crash-free executor resumes it.
        let resumed = Executor::parallel()
            .run_durable(&g, &HashMap::new(), &DurableConfig::new(journal))
            .unwrap();
        let plain = Executor::parallel().run(&g, &HashMap::new()).unwrap();
        assert_eq!(resumed.canonical_bytes(), plain.canonical_bytes());
    }

    #[test]
    fn reused_journal_with_other_bindings_is_rejected() {
        // A journal resumes only the run that wrote it: the same graph
        // fed a different input must not replay the first run's outputs.
        let mut g = TaskGraph::new();
        let up = g.add_task(Arc::new(Upper));
        let bind = |text: &str| HashMap::from([((up, 0), Token::Text(text.into()))]);
        let journal = Arc::new(RunJournal::new());
        let config = DurableConfig::new(Arc::clone(&journal));
        let first = Executor::serial()
            .run_durable(&g, &bind("a"), &config)
            .unwrap();
        assert_eq!(first.output(up, 0), Some(&Token::Text("A".into())));

        let err = Executor::serial()
            .run_durable(&g, &bind("b"), &config)
            .unwrap_err();
        assert!(
            matches!(err, WorkflowError::JournalMismatch { .. }),
            "{err}"
        );
        let fresh = Executor::serial().run(&g, &bind("b")).unwrap();
        assert_eq!(fresh.output(up, 0), Some(&Token::Text("B".into())));

        // The same bindings still resume from the log.
        let resumed = Executor::serial()
            .run_durable(&g, &bind("a"), &config)
            .unwrap();
        assert_eq!(resumed.replay_hits(), 1);
        assert_eq!(resumed.canonical_bytes(), first.canonical_bytes());
    }

    #[test]
    fn inline_worker_death_redelivers_once() {
        // One worker runs every claim on the calling thread; a scripted
        // death there must still redeliver the claim exactly once.
        let g = diamond();
        let journal = Arc::new(RunJournal::new());
        let report = Executor::serial()
            .run_durable(
                &g,
                &HashMap::new(),
                &DurableConfig::new(Arc::clone(&journal))
                    .with_workers(1)
                    .with_kill_worker_on_claim(2),
            )
            .unwrap();
        assert_eq!(journal.stats().redeliveries, 1);
        let plain = Executor::serial().run(&g, &HashMap::new()).unwrap();
        assert_eq!(report.canonical_bytes(), plain.canonical_bytes());
        let starts = journal
            .events()
            .iter()
            .filter(|e| matches!(e, RunEvent::TaskStarted { .. }))
            .count();
        assert_eq!(starts, 5);
    }
}
