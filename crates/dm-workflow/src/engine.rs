//! Workflow enactment: one remaining-work-frontier scheduler behind
//! [`Executor::run`] and [`Executor::run_durable`], with per-task retry
//! (the fault-tolerance requirement: "the framework must … include the
//! ability to complete the task if a fault occurs by moving the job to
//! another resource", §3 — the moving itself is [`crate::wsimport::WsTool`]
//! host failover; the engine contributes bounded retries and failure
//! accounting).
//!
//! The calling thread orchestrates: it keeps each task's indegree and
//! status, dispatches ready tasks as numbered claims, and alone
//! acknowledges their results. One worker runs each claim inline, in
//! [`TaskGraph::topological_order`]; wider pools hand claims to scoped
//! workers. `run` and `run_durable` differ only in the journal sink,
//! the failure policy, and whether events are delivered live.

use crate::durable::Appender;
use crate::error::{Result, WorkflowError};
use crate::graph::{TaskGraph, TaskId, Token};
use crate::memo::MemoCache;
use dm_wsrf::resilience::{BackoffSchedule, ResiliencePolicy};
use dm_wsrf::trace::{SpanContext, SpanKind, Tracer};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry behaviour for the executor: a per-task attempt ceiling plus
/// exponential backoff between attempts and an optional per-workflow
/// retry *budget* shared by every task in a run — once the budget is
/// spent, no task may retry again, bounding the total extra work a
/// degraded deployment can absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum execution attempts per task (1 = no retries).
    pub max_attempts: usize,
    /// First backoff pause; later pauses grow with decorrelated jitter.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff pause.
    pub max_backoff: Duration,
    /// Total retries allowed across the whole run (`None` = unlimited).
    pub retry_budget: Option<usize>,
    /// Jitter seed, perturbed per task, so runs are reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            retry_budget: None,
            seed: 0xB0FF,
        }
    }
}

/// Receives each backoff pause instead of sleeping. The toolkit wires
/// this to the simulated network's virtual clock
/// ([`dm_wsrf::transport::Network::advance_virtual_time`]) so pauses
/// are charged to simulated time and enactment stays fast.
pub type BackoffSink = std::sync::Arc<dyn Fn(Duration) + Send + Sync>;

/// Reads the current simulated instant. The toolkit wires this to
/// [`dm_wsrf::transport::Network::now`] so reports measure enactment on
/// the same virtual clock the whole stack charges — wall-clock
/// `Instant` readings say nothing about a simulation that never sleeps.
pub type ClockSource = std::sync::Arc<dyn Fn() -> Duration + Send + Sync>;

/// Input bindings: `(task, port) → token` for unconnected input ports.
pub(crate) type Bindings = HashMap<(TaskId, usize), Token>;
/// Per-task record in an [`ExecutionReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRun {
    /// Task display name.
    pub task: String,
    /// Execution attempts used (1 = no retry).
    pub attempts: usize,
    /// Wall-clock duration of the successful attempt (or the last
    /// failed one).
    pub duration: Duration,
    /// Simulated-time duration of the same attempt, read from the
    /// executor's [`ClockSource`]; zero when no clock is wired.
    pub virtual_duration: Duration,
    /// Backoff accumulated between this task's attempts.
    pub backoff: Duration,
    /// `ServerBusy` sheds absorbed by the task's tool across all
    /// attempts ([`crate::graph::Tool::last_call_sheds`]).
    pub sheds: u64,
    /// `true` when the outputs came from the memo cache and the tool
    /// never executed (then `attempts` is 0).
    pub cached: bool,
    /// `true` when the run was restored from a run journal by durable
    /// recovery ([`crate::durable`]) and the tool did not execute in
    /// this process.
    pub replayed: bool,
    /// `None` on success, the failure message otherwise.
    pub error: Option<String>,
}

/// The result of enacting a workflow.
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// Output tokens of unconnected output ports: `(task, port) → token`.
    pub outputs: HashMap<(TaskId, usize), Token>,
    /// Per-task run records, in completion order.
    pub runs: Vec<TaskRun>,
    /// Total enactment wall-clock time.
    pub elapsed: Duration,
    /// Total enactment time on the simulated clock (zero when the
    /// executor has no [`ClockSource`]). This is the figure that agrees
    /// with benches and traces; `elapsed` only measures host CPU time.
    pub virtual_elapsed: Duration,
    /// Retries left in the run's shared budget (`None` = unlimited).
    pub retry_budget_remaining: Option<usize>,
}

impl TaskRun {
    /// A record for `task` with no attempts, time, sheds or error.
    pub(crate) fn blank(task: String) -> TaskRun {
        TaskRun {
            task,
            attempts: 0,
            duration: Duration::ZERO,
            virtual_duration: Duration::ZERO,
            backoff: Duration::ZERO,
            sheds: 0,
            cached: false,
            replayed: false,
            error: None,
        }
    }
}

impl ExecutionReport {
    /// Fetch an output token by task id and port.
    pub fn output(&self, task: TaskId, port: usize) -> Option<&Token> {
        self.outputs.get(&(task, port))
    }

    /// Total retry attempts beyond first tries.
    pub fn total_retries(&self) -> usize {
        self.runs.iter().map(|r| r.attempts.saturating_sub(1)).sum()
    }

    /// Total backoff accumulated between attempts, across all tasks.
    pub fn total_backoff(&self) -> Duration {
        self.runs.iter().map(|r| r.backoff).sum()
    }

    /// Tasks served from the memo cache without executing.
    pub fn memo_hits(&self) -> usize {
        self.runs.iter().filter(|r| r.cached).count()
    }

    /// Total `ServerBusy` sheds absorbed across all task runs — the
    /// overload pressure the resilience layer hid from the outputs.
    pub fn total_sheds(&self) -> u64 {
        self.runs.iter().map(|r| r.sheds).sum()
    }

    /// Tasks restored from a run journal instead of executing
    /// ([`TaskRun::replayed`]) — the work durable recovery saved.
    pub fn replay_hits(&self) -> usize {
        self.runs.iter().filter(|r| r.replayed).count()
    }

    /// A canonical byte encoding of the report's *semantic* content:
    /// every output token sorted by `(task, port)`, then every task run
    /// sorted by name with its success/failure status. Excludes
    /// attempts, durations, cache/replay provenance, and budget — the
    /// figures that legitimately differ between an uninterrupted run
    /// and a crash-then-resume of the same workflow. Two enactments
    /// computed the same results iff their canonical bytes are equal.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut outputs: Vec<_> = self.outputs.iter().collect();
        outputs.sort_by_key(|&(&(task, port), _)| (task, port));
        for (&(task, port), token) in outputs {
            out.extend_from_slice(format!("o {task} {port} ").as_bytes());
            crate::journal::canonical_token_bytes(&mut out, token);
            out.push(b'\n');
        }
        let mut runs: Vec<_> = self.runs.iter().collect();
        runs.sort_by(|a, b| a.task.cmp(&b.task).then_with(|| a.error.cmp(&b.error)));
        for run in runs {
            out.push(b'r');
            out.push(b' ');
            out.extend_from_slice(run.task.as_bytes());
            match &run.error {
                None => out.extend_from_slice(b" ok\n"),
                Some(message) => {
                    out.extend_from_slice(format!(" err {message}\n").as_bytes());
                }
            }
        }
        out
    }
}

/// A live progress event, delivered while the workflow runs — the
/// paper's service-monitoring requirement ("the framework should allow
/// users to monitor the progress of their jobs as they are executed on
/// distributed resources", §3).
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// A task began executing (attempt number starts at 1).
    Started {
        /// Task display name.
        task: String,
        /// Attempt number.
        attempt: usize,
    },
    /// A task finished successfully.
    Finished {
        /// Task display name.
        task: String,
        /// Attempts used.
        attempts: usize,
        /// Duration of the successful attempt.
        duration: Duration,
    },
    /// A task attempt failed and a retry is scheduled after a backoff
    /// pause. Fires only between attempts, never on clean runs.
    Retrying {
        /// Task display name.
        task: String,
        /// The attempt number about to run (≥ 2).
        next_attempt: usize,
        /// Backoff pause before the next attempt.
        backoff: Duration,
        /// Retries left in the shared budget after this one (`None` =
        /// unlimited).
        budget_remaining: Option<usize>,
    },
    /// A task failed terminally.
    Failed {
        /// Task display name.
        task: String,
        /// The failure message.
        message: String,
    },
    /// A pure task's outputs were served from the memo cache; the tool
    /// did not execute.
    CacheHit {
        /// Task display name.
        task: String,
    },
    /// Enactment began (fires once, before any task event).
    RunStarted {
        /// Number of tasks in the graph.
        tasks: usize,
    },
    /// Enactment completed successfully (terminal failures emit
    /// [`ProgressEvent::Failed`] instead).
    RunFinished {
        /// Number of task runs recorded (including cached ones).
        tasks: usize,
        /// Total enactment wall-clock time.
        elapsed: Duration,
        /// Total enactment time on the simulated clock (zero without a
        /// [`ClockSource`]).
        virtual_elapsed: Duration,
    },
}

/// Listener callback for [`ProgressEvent`]s. Under live delivery, pool
/// workers call it from their own threads.
pub type ProgressListener = std::sync::Arc<dyn Fn(ProgressEvent) + Send + Sync>;

/// The workflow executor.
#[derive(Clone)]
pub struct Executor {
    /// Pool width for [`Executor::run`]; 1 runs every task inline.
    pub(crate) workers: usize,
    pub(crate) policy: RetryPolicy,
    pub(crate) backoff_sink: Option<BackoffSink>,
    pub(crate) clock: Option<ClockSource>,
    pub(crate) listener: Option<ProgressListener>,
    pub(crate) memo: Option<Arc<MemoCache>>,
    pub(crate) tracer: Option<Arc<Tracer>>,
    pub(crate) deterministic_events: bool,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers)
            .field("policy", &self.policy)
            .field("backoff_sink", &self.backoff_sink.is_some())
            .field("clock", &self.clock.is_some())
            .field("listener", &self.listener.is_some())
            .field("memo", &self.memo.is_some())
            .field("tracer", &self.tracer.is_some())
            .field("deterministic_events", &self.deterministic_events)
            .finish()
    }
}

impl Executor {
    /// Create a serial executor without retries: tasks run one at a
    /// time on the calling thread, in [`TaskGraph::topological_order`].
    pub fn serial() -> Executor {
        Executor {
            workers: 1,
            policy: RetryPolicy::default(),
            backoff_sink: None,
            clock: None,
            listener: None,
            memo: None,
            tracer: None,
            deterministic_events: false,
        }
    }

    /// Create a parallel executor without retries: ready tasks run
    /// concurrently on one scoped worker per available core, at least
    /// two (so a one-core host still gets a pool rather than the serial
    /// path) and never more than the graph has tasks.
    pub fn parallel() -> Executor {
        Executor {
            workers: std::thread::available_parallelism().map_or(4, |p| p.get().max(2)),
            ..Executor::serial()
        }
    }

    /// Builder: allow up to `attempts` executions per task.
    pub fn with_max_attempts(mut self, attempts: usize) -> Executor {
        self.policy.max_attempts = attempts.max(1);
        self
    }

    /// Builder: install a full [`RetryPolicy`] (attempt ceiling,
    /// backoff shape, shared retry budget, jitter seed).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Executor {
        self.policy = policy;
        self.policy.max_attempts = self.policy.max_attempts.max(1);
        self
    }

    /// The retry policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Builder: deliver backoff pauses to `sink` instead of sleeping.
    /// Without a sink, backoff is accounted in reports and events but
    /// no time passes anywhere.
    pub fn with_backoff_sink(mut self, sink: BackoffSink) -> Executor {
        self.backoff_sink = Some(sink);
        self
    }

    /// Builder: measure enactment on `clock` (the simulated instant,
    /// usually [`dm_wsrf::transport::Network::now`]) in addition to
    /// wall time. Fills [`ExecutionReport::virtual_elapsed`] and
    /// [`TaskRun::virtual_duration`]; without a clock both stay zero.
    pub fn with_virtual_clock(mut self, clock: ClockSource) -> Executor {
        self.clock = Some(clock);
        self
    }

    /// The simulated instant per the wired [`ClockSource`], or zero
    /// when none is wired (differences then stay zero too).
    pub(crate) fn virtual_now(&self) -> Duration {
        self.clock.as_ref().map(|c| c()).unwrap_or(Duration::ZERO)
    }

    /// Builder: receive live [`ProgressEvent`]s during enactment.
    pub fn with_listener(mut self, listener: ProgressListener) -> Executor {
        self.listener = Some(listener);
        self
    }

    /// Builder: serve pure tasks ([`crate::graph::Tool::is_pure`]) from
    /// `cache` when their inputs are unchanged, and record fresh
    /// results into it. Impure tasks always execute.
    pub fn with_memoisation(mut self, cache: Arc<MemoCache>) -> Executor {
        self.memo = Some(cache);
        self
    }

    /// The memo cache in use, if any.
    pub fn memo_cache(&self) -> Option<Arc<MemoCache>> {
        self.memo.clone()
    }

    /// Builder: record causal spans into `tracer` — one workflow root
    /// per run, one task span per execution attempt. Task spans are
    /// made the thread's current span while the tool executes, so
    /// deeper layers (SOAP calls, transport legs, dispatches) chain
    /// under them. Use the tracer from
    /// [`dm_wsrf::transport::Network::enable_tracing`] so the whole
    /// stack shares one trace.
    pub fn with_tracing(mut self, tracer: Arc<Tracer>) -> Executor {
        self.tracer = Some(tracer);
        self
    }

    /// The tracer in use, if any.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.clone()
    }

    /// Builder: make the [`ProgressEvent`] sequence replay-deterministic
    /// under parallel enactment. Each task's event block is buffered
    /// while tasks run and flushed after quiescence, ordered by the
    /// task's completion instant on the simulated clock (ties broken by
    /// task id), with `RunStarted` first and `RunFinished` last;
    /// `ExecutionReport::runs` follows the same order. The default
    /// (live) delivery hands events to the listener the moment they
    /// happen, which is what monitoring wants but makes the interleaving
    /// scheduler-dependent. Durable enactment ([`crate::durable`])
    /// always buffers.
    pub fn with_deterministic_events(mut self) -> Executor {
        self.deterministic_events = true;
        self
    }

    pub(crate) fn emit(&self, event: ProgressEvent) {
        if let Some(l) = &self.listener {
            l(event);
        }
    }

    /// Enact `graph`. `bindings` provides tokens for unconnected input
    /// ports (`(task, port) → token`). The first task failure halts
    /// dispatch and is returned as [`WorkflowError::TaskFailed`].
    pub fn run(
        &self,
        graph: &TaskGraph,
        bindings: &HashMap<(TaskId, usize), Token>,
    ) -> Result<ExecutionReport> {
        let policy = Policy {
            workers: self.workers,
            fail_fast: true,
            buffered: self.deterministic_events,
        };
        self.enact(Frontier::new(graph, bindings, policy)?)
    }

    /// The orchestrator loop behind [`Executor::run`] and
    /// [`Executor::run_durable`]: emit the run's start, drive `frontier`
    /// to quiescence inline or on a worker pool, then build the report.
    pub(crate) fn enact(&self, mut frontier: Frontier<'_>) -> Result<ExecutionReport> {
        let n = frontier.graph.num_tasks();
        let start = Instant::now();
        let vstart = self.virtual_now();
        self.emit(ProgressEvent::RunStarted { tasks: n });
        let mut root_span = self.tracer.as_ref().map(|t| {
            let durable = frontier.journal.is_some();
            let name = if durable {
                "durable-workflow"
            } else {
                "workflow"
            };
            let mut span = t.start_span(name, SpanKind::Workflow, None);
            span.set_attr("tasks", n.to_string());
            if durable {
                let restored = frontier.status.iter().filter(|s| **s == Status::Completed);
                span.set_attr("replayed", restored.count().to_string());
            }
            span
        });
        let root = root_span.as_ref().map(|s| s.ctx());

        let budget = Mutex::new(self.policy.retry_budget);
        let halt = AtomicBool::new(false);
        let policy = frontier.policy;
        let deaths = frontier.journal.as_ref().map(|j| j.config);
        let graph = frontier.graph;
        // Run one claim: the same code inline and on a pool worker.
        let execute = |job: Job| -> Outcome {
            if halt.load(Ordering::SeqCst) {
                return Outcome::Skipped;
            }
            let events = Mutex::new(Vec::new());
            let (result, run) =
                self.execute_task(graph, job.task, &job.inputs, &budget, root, &|e| {
                    if policy.buffered {
                        events.lock().push(e);
                    } else {
                        self.emit(e);
                    }
                });
            if policy.fail_fast && result.is_err() {
                halt.store(true, Ordering::SeqCst);
            }
            let tick = self.virtual_now();
            // A scripted worker death discards the finished claim
            // without an ack, so the orchestrator must redeliver it.
            if deaths.is_some_and(|c| c.worker_dies(job.claim, tick)) {
                return Outcome::Died(job.task);
            }
            let entry = Entry {
                tick,
                task: job.task,
                events: events.into_inner(),
                run,
            };
            Outcome::Acked(result, entry)
        };

        let outcome = (|| -> Result<ExecutionReport> {
            frontier.seed()?;
            if policy.workers <= 1 {
                frontier.drive(
                    self,
                    |job| Some(execute(job)),
                    || unreachable!("inline claims are acknowledged at once"),
                )?;
            } else {
                let execute = &execute;
                std::thread::scope(|scope| {
                    let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();
                    let (done_tx, done_rx) = crossbeam::channel::unbounded::<Outcome>();
                    for _ in 0..policy.workers {
                        let (job_rx, done_tx) = (job_rx.clone(), done_tx.clone());
                        scope.spawn(move || {
                            while let Ok(job) = job_rx.recv() {
                                let _ = done_tx.send(execute(job));
                            }
                        });
                    }
                    drop(done_tx);
                    let driven = frontier.drive(
                        self,
                        |job| {
                            let _ = job_tx.send(job);
                            None
                        },
                        || done_rx.recv().expect("a worker panicked"),
                    );
                    // Stop the pool on every exit path, crash included:
                    // claims still queued are skipped, and closing the
                    // job channel ends each worker's loop.
                    halt.store(true, Ordering::SeqCst);
                    drop(job_tx);
                    driven
                })?;
            }
            if let Some(journal) = &mut frontier.journal {
                let elapsed = self.virtual_now().saturating_sub(vstart);
                journal.run_finished(frontier.runs.len(), elapsed)?;
            }

            let mut entries = std::mem::take(&mut frontier.runs);
            if policy.buffered {
                // The same sequence every enactment of the same
                // workflow, however the workers were scheduled.
                entries.sort_by_key(|e| (e.tick, e.task));
                for entry in &mut entries {
                    for event in entry.events.drain(..) {
                        self.emit(event);
                    }
                }
            }
            if let Some((task, message)) = frontier.failure.take() {
                return Err(WorkflowError::TaskFailed { task, message });
            }
            let mut report = ExecutionReport {
                runs: entries.into_iter().map(|e| e.run).collect(),
                ..ExecutionReport::default()
            };
            let produced = std::mem::take(&mut frontier.produced);
            for (task, outputs) in produced.into_iter().enumerate() {
                for (port, token) in outputs.into_iter().flatten().enumerate() {
                    if frontier.fed[task].get(port) == Some(&false) {
                        report.outputs.insert((task, port), token);
                    }
                }
            }
            report.elapsed = start.elapsed();
            report.virtual_elapsed = self.virtual_now().saturating_sub(vstart);
            report.retry_budget_remaining = *budget.lock();
            self.emit(ProgressEvent::RunFinished {
                tasks: report.runs.len(),
                elapsed: report.elapsed,
                virtual_elapsed: report.virtual_elapsed,
            });
            Ok(report)
        })();
        if let (Err(e), Some(span)) = (&outcome, root_span.as_mut()) {
            span.set_error(e.to_string());
        }
        outcome
    }

    pub(crate) fn execute_task(
        &self,
        graph: &TaskGraph,
        task: TaskId,
        inputs: &[Token],
        budget: &Mutex<Option<usize>>,
        root: Option<SpanContext>,
        emit: &(dyn Fn(ProgressEvent) + Sync),
    ) -> (std::result::Result<Vec<Token>, String>, TaskRun) {
        let node = graph.task(task).expect("validated id");
        let mut run = TaskRun::blank(node.name.clone());
        // Memoisation: pure tasks with unchanged inputs are served from
        // the cache without executing (attempts stays 0).
        let memo_key = self
            .memo
            .as_deref()
            .and_then(|m| m.key_for(node.tool.as_ref(), inputs));
        if let (Some(memo), Some(key)) = (&self.memo, memo_key) {
            if let Some(outputs) = memo.get(key) {
                if let Some(t) = &self.tracer {
                    let mut span = t.start_span(node.name.clone(), SpanKind::Task, root);
                    span.set_attr("cached", "true");
                }
                emit(ProgressEvent::CacheHit {
                    task: node.name.clone(),
                });
                run.cached = true;
                return (Ok(outputs), run);
            }
        }
        let backoff_policy =
            ResiliencePolicy::default().backoff(self.policy.base_backoff, self.policy.max_backoff);
        let mut schedule =
            BackoffSchedule::new(&backoff_policy, self.policy.seed ^ task_seed(&node.name));
        loop {
            run.attempts += 1;
            emit(ProgressEvent::Started {
                task: node.name.clone(),
                attempt: run.attempts,
            });
            // One span per attempt, current for the duration of the
            // tool call so SOAP-call spans opened inside chain under it.
            let mut task_span = self.tracer.as_ref().map(|t| {
                let mut span = t.start_span(node.name.clone(), SpanKind::Task, root);
                span.set_attr("attempt", run.attempts.to_string());
                span
            });
            let _current = task_span.as_ref().map(|s| s.make_current());
            let start = Instant::now();
            let vstart = self.virtual_now();
            let result = node.tool.execute(inputs);
            // Sheds the tool absorbed this attempt (retried or failed-
            // over ServerBusy responses) roll up into the run record.
            run.sheds += node.tool.last_call_sheds();
            run.duration = start.elapsed();
            run.virtual_duration = self.virtual_now().saturating_sub(vstart);
            // A tool error may be retried; a wrong output arity may not.
            let expected = node.tool.output_ports().len();
            let (mut message, retryable) = match result {
                Ok(outputs) if outputs.len() == expected => {
                    emit(ProgressEvent::Finished {
                        task: node.name.clone(),
                        attempts: run.attempts,
                        duration: run.duration,
                    });
                    if let (Some(memo), Some(key)) = (&self.memo, memo_key) {
                        memo.insert(key, outputs.clone());
                    }
                    return (Ok(outputs), run);
                }
                Ok(outputs) => (
                    format!(
                        "tool returned {} outputs, declared {expected}",
                        outputs.len()
                    ),
                    false,
                ),
                Err(message) => (message, true),
            };
            if let Some(span) = task_span.as_mut() {
                span.set_error(message.clone());
            }
            // Charge the shared per-workflow budget before retrying;
            // exhaustion turns this failure terminal even with attempts
            // left.
            let budget_remaining = if retryable && run.attempts < self.policy.max_attempts {
                let mut budget = budget.lock();
                match *budget {
                    None => Some(None),
                    Some(n) if n > 0 => {
                        *budget = Some(n - 1);
                        Some(Some(n - 1))
                    }
                    Some(_) => {
                        message = format!("{message} (retry budget exhausted)");
                        None
                    }
                }
            } else {
                None
            };
            let Some(remaining) = budget_remaining else {
                emit(ProgressEvent::Failed {
                    task: node.name.clone(),
                    message: message.clone(),
                });
                run.error = Some(message.clone());
                return (Err(message), run);
            };
            let delay = schedule.next_delay();
            run.backoff += delay;
            if let Some(sink) = &self.backoff_sink {
                sink(delay);
            }
            emit(ProgressEvent::Retrying {
                task: node.name.clone(),
                next_attempt: run.attempts + 1,
                backoff: delay,
                budget_remaining: remaining,
            });
        }
    }
}

/// Stable per-task seed perturbation so concurrent tasks don't share
/// one backoff-jitter stream.
fn task_seed(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The settings `run` and `run_durable` differ in, besides the journal.
#[derive(Clone, Copy)]
pub(crate) struct Policy {
    /// Pool width; at most 1 runs each claim on the calling thread.
    pub(crate) workers: usize,
    /// `true`: the first failure halts dispatch and fails the run.
    /// `false`: a failure blocks only its downstream cone and
    /// independent branches run to completion.
    pub(crate) fail_fast: bool,
    /// Buffer each task's events and flush them in `(tick, task id)`
    /// order once the run is quiescent, instead of delivering them live.
    pub(crate) buffered: bool,
}

/// Orchestrator-side task lifecycle.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    Completed,
    Failed,
    Blocked,
}

/// A task's run record, with the simulated instant it was acknowledged
/// and, under buffered delivery, its progress events.
pub(crate) struct Entry {
    pub(crate) tick: Duration,
    pub(crate) task: TaskId,
    pub(crate) events: Vec<ProgressEvent>,
    pub(crate) run: TaskRun,
}

/// A dispatched claim: claims are numbered from 1 in dispatch order.
struct Job {
    claim: u64,
    task: TaskId,
    inputs: Vec<Token>,
}

/// What became of a claim.
enum Outcome {
    /// The task ran to a terminal result.
    Acked(std::result::Result<Vec<Token>, String>, Entry),
    /// The worker died mid-claim (scripted): no ack, results discarded.
    Died(TaskId),
    /// The run had already halted; the task did not execute.
    Skipped,
}

/// The remaining-work frontier of one enactment, over the graph's
/// cables indexed once: the orchestrator's whole state.
pub(crate) struct Frontier<'a> {
    graph: &'a TaskGraph,
    bindings: &'a Bindings,
    policy: Policy,
    /// Where state transitions are journaled; `None` journals nothing.
    pub(crate) journal: Option<Appender<'a>>,
    /// Consumer of every cable leaving each task, in cable order.
    successors: Vec<Vec<TaskId>>,
    /// Producer `(task, port)` of each input port; `None` when bound.
    sources: Vec<Vec<Option<(TaskId, usize)>>>,
    /// Whether each output port feeds a cable.
    fed: Vec<Vec<bool>>,
    pub(crate) status: Vec<Status>,
    /// Output tokens of each completed task.
    pub(crate) produced: Vec<Option<Vec<Token>>>,
    /// Restored and acknowledged run records.
    pub(crate) runs: Vec<Entry>,
    indegree: Vec<usize>,
    ready: VecDeque<TaskId>,
    claims: u64,
    /// The halting failure under fail-fast: `(task name, message)`.
    failure: Option<(String, String)>,
}

impl<'a> Frontier<'a> {
    /// A frontier with every task runnable, after checking that
    /// `bindings` feeds every unconnected input port.
    pub(crate) fn new(
        graph: &'a TaskGraph,
        bindings: &'a Bindings,
        mut policy: Policy,
    ) -> Result<Frontier<'a>> {
        let n = graph.num_tasks();
        let mut sources = Vec::with_capacity(n);
        let mut fed = Vec::with_capacity(n);
        for t in 0..n {
            let tool = &graph.task(t)?.tool;
            sources.push(vec![None; tool.input_ports().len()]);
            fed.push(vec![false; tool.output_ports().len()]);
        }
        let mut successors = vec![Vec::new(); n];
        for c in graph.cables() {
            successors[c.from_task].push(c.to_task);
            sources[c.to_task][c.to_port] = Some((c.from_task, c.from_port));
            fed[c.from_task][c.from_port] = true;
        }
        for (t, ports) in sources.iter().enumerate() {
            let unbound = |&p: &usize| ports[p].is_none() && !bindings.contains_key(&(t, p));
            if let Some(port) = (0..ports.len()).find(unbound) {
                let node = graph.task(t)?;
                return Err(WorkflowError::UnboundInput {
                    task: node.name.clone(),
                    port: node.tool.input_ports().swap_remove(port).name,
                });
            }
        }
        policy.workers = policy.workers.min(n);
        Ok(Frontier {
            graph,
            bindings,
            policy,
            journal: None,
            successors,
            sources,
            fed,
            status: vec![Status::Runnable; n],
            produced: vec![None; n],
            runs: Vec::new(),
            indegree: vec![0; n],
            ready: VecDeque::new(),
            claims: 0,
            failure: None,
        })
    }

    /// The input tokens of `task` — each port's producer output or its
    /// binding — or `None` while a producer has not completed.
    pub(crate) fn inputs(&self, task: TaskId) -> Option<Vec<Token>> {
        let sources = self.sources[task].iter().enumerate();
        sources
            .map(|(port, source)| match *source {
                Some((from, port)) => self.produced[from].as_ref().map(|o| o[port].clone()),
                None => Some(self.bindings[&(task, port)].clone()),
            })
            .collect()
    }

    /// Open the run: failed tasks block their cones, every runnable task
    /// waits on each producer not yet completed, and the journal records
    /// the start.
    fn seed(&mut self) -> Result<()> {
        let n = self.status.len();
        for task in 0..n {
            if self.status[task] == Status::Failed {
                self.block_cone(task);
            }
        }
        for task in (0..n).filter(|&t| self.status[t] != Status::Completed) {
            for &next in &self.successors[task] {
                if self.status[next] == Status::Runnable {
                    self.indegree[next] += 1;
                }
            }
        }
        let ready = (0..n).filter(|&t| self.status[t] == Status::Runnable && self.indegree[t] == 0);
        self.ready = ready.collect();
        self.journal.as_mut().map_or(Ok(()), |j| j.run_started(n))
    }

    /// The orchestrator loop: claim every ready task — inline, the
    /// newest first, as [`TaskGraph::topological_order`] does; on a pool,
    /// the oldest first — then wait for one acknowledgement, until
    /// nothing is ready or in flight. `submit` runs a claim inline and
    /// returns its outcome, or queues it and returns `None`.
    fn drive(
        &mut self,
        exec: &Executor,
        mut submit: impl FnMut(Job) -> Option<Outcome>,
        mut wait: impl FnMut() -> Outcome,
    ) -> Result<()> {
        let mut in_flight = 0usize;
        loop {
            while self.failure.is_none() {
                let next = if self.policy.workers <= 1 {
                    self.ready.pop_back()
                } else {
                    self.ready.pop_front()
                };
                let Some(task) = next else { break };
                if let Some(journal) = &mut self.journal {
                    journal.task_started(self.graph, task)?;
                }
                self.claims += 1;
                let inputs = self.inputs(task).expect("producers ran before consumer");
                match submit(Job {
                    claim: self.claims,
                    task,
                    inputs,
                }) {
                    Some(outcome) => self.ack(exec, outcome)?,
                    None => in_flight += 1,
                }
            }
            if in_flight == 0 {
                return Ok(());
            }
            in_flight -= 1;
            let outcome = wait();
            self.ack(exec, outcome)?;
        }
    }

    /// Acknowledge a claim's outcome: journal and record it, then
    /// release its successors (or block its cone).
    fn ack(&mut self, exec: &Executor, outcome: Outcome) -> Result<()> {
        let (result, entry) = match outcome {
            Outcome::Acked(result, entry) => (result, entry),
            Outcome::Skipped => return Ok(()),
            Outcome::Died(task) => {
                if let Some(journal) = &self.journal {
                    journal.config.journal().note_redelivery();
                }
                self.ready.push_back(task);
                return Ok(());
            }
        };
        let task = entry.task;
        if let Some(journal) = &mut self.journal {
            journal.task_acked(exec, self.graph, task, &result, &entry.run)?;
        }
        match result {
            Ok(outputs) => {
                self.produced[task] = Some(outputs);
                self.status[task] = Status::Completed;
                for &next in &self.successors[task] {
                    if self.status[next] == Status::Runnable {
                        self.indegree[next] -= 1;
                        if self.indegree[next] == 0 {
                            self.ready.push_back(next);
                        }
                    }
                }
            }
            Err(message) => {
                self.status[task] = Status::Failed;
                self.block_cone(task);
                if self.policy.fail_fast && self.failure.is_none() {
                    self.failure = Some((entry.run.task.clone(), message));
                }
            }
        }
        self.runs.push(entry);
        Ok(())
    }

    /// Block every still-runnable descendant of `task`: a failed node
    /// poisons only its downstream cone.
    fn block_cone(&mut self, task: TaskId) {
        let mut stack = vec![task];
        while let Some(t) = stack.pop() {
            for &next in &self.successors[t] {
                if self.status[next] == Status::Runnable {
                    self.status[next] = Status::Blocked;
                    stack.push(next);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::test_tools::*;
    use std::sync::Arc;

    #[test]
    fn serial_pipeline_produces_output() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("hello".into())));
        let up = g.add_task(Arc::new(Upper));
        g.connect(src, 0, up, 0).unwrap();
        let report = Executor::serial().run(&g, &HashMap::new()).unwrap();
        assert_eq!(report.output(up, 0), Some(&Token::Text("HELLO".into())));
        assert_eq!(report.runs.len(), 2);
    }

    #[test]
    fn bindings_feed_unconnected_inputs() {
        let mut g = TaskGraph::new();
        let cat = g.add_task(Arc::new(Concat));
        let mut bindings = HashMap::new();
        bindings.insert((cat, 0), Token::Text("a".into()));
        bindings.insert((cat, 1), Token::Text("b".into()));
        let report = Executor::serial().run(&g, &bindings).unwrap();
        assert_eq!(report.output(cat, 0), Some(&Token::Text("ab".into())));
    }

    #[test]
    fn missing_binding_detected() {
        let mut g = TaskGraph::new();
        g.add_task(Arc::new(Upper));
        let err = Executor::serial().run(&g, &HashMap::new()).unwrap_err();
        assert!(matches!(err, WorkflowError::UnboundInput { .. }));
    }

    #[test]
    fn diamond_graph_joins() {
        // src → (upper, concat-b) ; upper → concat-a.
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let up = g.add_task(Arc::new(Upper));
        let cat = g.add_task(Arc::new(Concat));
        g.connect(src, 0, up, 0).unwrap();
        g.connect(up, 0, cat, 0).unwrap();
        g.connect(src, 0, cat, 1).unwrap();
        let report = Executor::serial().run(&g, &HashMap::new()).unwrap();
        assert_eq!(report.output(cat, 0), Some(&Token::Text("Xx".into())));
    }

    #[test]
    fn parallel_matches_serial() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("abc".into())));
        let mut sinks = Vec::new();
        for _ in 0..8 {
            let up = g.add_task(Arc::new(Upper));
            g.connect(src, 0, up, 0).unwrap();
            sinks.push(up);
        }
        let serial = Executor::serial().run(&g, &HashMap::new()).unwrap();
        let parallel = Executor::parallel().run(&g, &HashMap::new()).unwrap();
        for &s in &sinks {
            assert_eq!(serial.output(s, 0), parallel.output(s, 0));
        }
        assert_eq!(parallel.runs.len(), 9);
    }

    #[test]
    fn failure_reports_task_name() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let flaky = g.add_named_task("always-fails", Arc::new(Flaky::failing(usize::MAX)));
        g.connect(src, 0, flaky, 0).unwrap();
        let err = Executor::serial().run(&g, &HashMap::new()).unwrap_err();
        assert!(
            matches!(err, WorkflowError::TaskFailed { ref task, .. } if task == "always-fails")
        );
    }

    #[test]
    fn retries_recover_transient_failures() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("ok".into())));
        let flaky = g.add_task(Arc::new(Flaky::failing(2)));
        g.connect(src, 0, flaky, 0).unwrap();
        let report = Executor::serial()
            .with_max_attempts(3)
            .run(&g, &HashMap::new())
            .unwrap();
        assert_eq!(report.output(flaky, 0), Some(&Token::Text("ok".into())));
        assert_eq!(report.total_retries(), 2);
    }

    #[test]
    fn insufficient_retries_still_fail() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("ok".into())));
        let flaky = g.add_task(Arc::new(Flaky::failing(5)));
        g.connect(src, 0, flaky, 0).unwrap();
        assert!(Executor::serial()
            .with_max_attempts(3)
            .run(&g, &HashMap::new())
            .is_err());
    }

    #[test]
    fn parallel_failure_terminates() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let flaky = g.add_task(Arc::new(Flaky::failing(usize::MAX)));
        g.connect(src, 0, flaky, 0).unwrap();
        let err = Executor::parallel().run(&g, &HashMap::new()).unwrap_err();
        assert!(matches!(err, WorkflowError::TaskFailed { .. }));
    }

    #[test]
    fn progress_events_stream_in_order() {
        use parking_lot::Mutex;
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&events);
        let listener: super::ProgressListener = std::sync::Arc::new(move |e| sink.lock().push(e));

        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let up = g.add_task(Arc::new(Upper));
        g.connect(src, 0, up, 0).unwrap();
        Executor::serial()
            .with_listener(listener)
            .run(&g, &HashMap::new())
            .unwrap();
        let events = events.lock();
        // RunStarted + 2 × (Started + Finished) + RunFinished
        assert_eq!(events.len(), 6);
        assert!(matches!(
            &events[0],
            super::ProgressEvent::RunStarted { tasks: 2 }
        ));
        assert!(matches!(
            &events[1],
            super::ProgressEvent::Started { task, attempt: 1 } if task == "ConstText"
        ));
        assert!(matches!(
            &events[4],
            super::ProgressEvent::Finished { task, .. } if task == "Upper"
        ));
        assert!(matches!(
            &events[5],
            super::ProgressEvent::RunFinished { tasks: 2, .. }
        ));
    }

    #[test]
    fn tracing_links_task_spans_under_one_workflow_root() {
        let tracer = Arc::new(Tracer::wall_clock());
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let up = g.add_task(Arc::new(Upper));
        g.connect(src, 0, up, 0).unwrap();
        Executor::serial()
            .with_tracing(Arc::clone(&tracer))
            .run(&g, &HashMap::new())
            .unwrap();

        let spans = tracer.finished_spans();
        assert_eq!(spans.len(), 3); // 2 task spans + 1 workflow root
        let root = spans
            .iter()
            .find(|s| s.kind == SpanKind::Workflow)
            .expect("workflow root span");
        assert_eq!(root.parent_span_id, None);
        assert_eq!(root.attribute("tasks"), Some("2"));
        for task in spans.iter().filter(|s| s.kind == SpanKind::Task) {
            assert_eq!(task.trace_id, root.trace_id);
            assert_eq!(task.parent_span_id, Some(root.span_id));
            assert_eq!(task.attribute("attempt"), Some("1"));
        }
        assert!(spans.iter().any(|s| s.name == "ConstText"));
        assert!(spans.iter().any(|s| s.name == "Upper"));
    }

    #[test]
    fn tracing_marks_failed_attempts_and_cache_hits() {
        use crate::memo::MemoCache;
        let tracer = Arc::new(Tracer::wall_clock());
        let memo = Arc::new(MemoCache::new(16));
        let mut g = TaskGraph::new();
        let up = g.add_task(Arc::new(PureUpper::new()));
        let mut bindings = HashMap::new();
        bindings.insert((up, 0), Token::Text("hello".into()));
        let exec = Executor::serial()
            .with_tracing(Arc::clone(&tracer))
            .with_memoisation(Arc::clone(&memo));
        exec.run(&g, &bindings).unwrap();
        exec.run(&g, &bindings).unwrap();
        let spans = tracer.finished_spans();
        let cached = spans
            .iter()
            .find(|s| s.attribute("cached") == Some("true"))
            .expect("cache-hit span");
        assert_eq!(cached.kind, SpanKind::Task);

        tracer.clear();
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let flaky = g.add_task(Arc::new(Flaky::failing(usize::MAX)));
        g.connect(src, 0, flaky, 0).unwrap();
        let _ = Executor::serial()
            .with_max_attempts(2)
            .with_tracing(Arc::clone(&tracer))
            .run(&g, &HashMap::new());
        let spans = tracer.finished_spans();
        let failed: Vec<_> = spans
            .iter()
            .filter(|s| matches!(s.status, dm_wsrf::trace::SpanStatus::Error(_)))
            .collect();
        // Both flaky attempts errored, and the workflow root errored.
        assert_eq!(
            failed
                .iter()
                .filter(|s| s.kind == SpanKind::Task && s.name == "Flaky")
                .count(),
            2
        );
        assert!(failed.iter().any(|s| s.kind == SpanKind::Workflow));
    }

    #[test]
    fn progress_events_report_retries_and_failures() {
        use parking_lot::Mutex;
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&events);
        let listener: super::ProgressListener = std::sync::Arc::new(move |e| sink.lock().push(e));

        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let flaky = g.add_task(Arc::new(Flaky::failing(usize::MAX)));
        g.connect(src, 0, flaky, 0).unwrap();
        let _ = Executor::serial()
            .with_max_attempts(3)
            .with_listener(listener)
            .run(&g, &HashMap::new());
        let events = events.lock();
        let starts = events
            .iter()
            .filter(|e| matches!(e, super::ProgressEvent::Started { task, .. } if task == "Flaky"))
            .count();
        assert_eq!(starts, 3);
        assert!(events
            .iter()
            .any(|e| matches!(e, super::ProgressEvent::Failed { task, .. } if task == "Flaky")));
    }

    #[test]
    fn backoff_is_accounted_and_delivered_to_sink() {
        use parking_lot::Mutex;
        let charged = std::sync::Arc::new(Mutex::new(Duration::ZERO));
        let sink_total = std::sync::Arc::clone(&charged);
        let sink: super::BackoffSink = std::sync::Arc::new(move |d| *sink_total.lock() += d);

        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("ok".into())));
        let flaky = g.add_task(Arc::new(Flaky::failing(2)));
        g.connect(src, 0, flaky, 0).unwrap();
        let report = Executor::serial()
            .with_max_attempts(3)
            .with_backoff_sink(sink)
            .run(&g, &HashMap::new())
            .unwrap();
        assert_eq!(report.total_retries(), 2);
        // Two pauses, each at least the base backoff.
        let total = report.total_backoff();
        assert!(
            total >= 2 * RetryPolicy::default().base_backoff,
            "total {total:?}"
        );
        assert_eq!(*charged.lock(), total);
        // The backoff is attributed to the flaky task's run record.
        let flaky_run = report.runs.iter().find(|r| r.task == "Flaky").unwrap();
        assert_eq!(flaky_run.backoff, total);
        assert_eq!(report.retry_budget_remaining, None);
    }

    #[test]
    fn retry_budget_is_shared_across_tasks() {
        // Two flaky tasks each need 2 retries; a budget of 2 is burned
        // by the first, so the second fails even with attempts left.
        let build = || {
            let mut g = TaskGraph::new();
            let src = g.add_task(Arc::new(ConstText("ok".into())));
            let a = g.add_named_task("flaky-a", Arc::new(Flaky::failing(2)));
            let b = g.add_named_task("flaky-b", Arc::new(Flaky::failing(2)));
            g.connect(src, 0, a, 0).unwrap();
            g.connect(a, 0, b, 0).unwrap();
            g
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };

        let starved = Executor::serial()
            .with_retry_policy(RetryPolicy {
                retry_budget: Some(2),
                ..policy
            })
            .run(&build(), &HashMap::new());
        let err = starved.unwrap_err();
        assert!(
            matches!(err, WorkflowError::TaskFailed { ref task, ref message }
                if task == "flaky-b" && message.contains("retry budget exhausted")),
            "got: {err}"
        );

        let funded = Executor::serial()
            .with_retry_policy(RetryPolicy {
                retry_budget: Some(5),
                ..policy
            })
            .run(&build(), &HashMap::new())
            .unwrap();
        assert_eq!(funded.total_retries(), 4);
        assert_eq!(funded.retry_budget_remaining, Some(1));
    }

    #[test]
    fn retrying_events_fire_between_attempts() {
        use parking_lot::Mutex;
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&events);
        let listener: super::ProgressListener = std::sync::Arc::new(move |e| sink.lock().push(e));

        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let flaky = g.add_task(Arc::new(Flaky::failing(1)));
        g.connect(src, 0, flaky, 0).unwrap();
        Executor::serial()
            .with_retry_policy(RetryPolicy {
                max_attempts: 2,
                retry_budget: Some(10),
                ..RetryPolicy::default()
            })
            .with_listener(listener)
            .run(&g, &HashMap::new())
            .unwrap();
        let events = events.lock();
        let retrying: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                super::ProgressEvent::Retrying {
                    task,
                    next_attempt,
                    backoff,
                    budget_remaining,
                } => Some((task.clone(), *next_attempt, *backoff, *budget_remaining)),
                _ => None,
            })
            .collect();
        assert_eq!(retrying.len(), 1);
        let (task, next_attempt, backoff, budget_remaining) = &retrying[0];
        assert_eq!(task, "Flaky");
        assert_eq!(*next_attempt, 2);
        assert!(*backoff >= RetryPolicy::default().base_backoff);
        assert_eq!(*budget_remaining, Some(9));
    }

    /// Pure uppercase that counts real executions.
    struct PureUpper {
        executions: std::sync::atomic::AtomicUsize,
    }

    impl PureUpper {
        fn new() -> PureUpper {
            PureUpper {
                executions: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl crate::graph::Tool for PureUpper {
        fn name(&self) -> &str {
            "PureUpper"
        }

        fn input_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("text", "string")]
        }

        fn output_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("upper", "string")]
        }

        fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            self.executions
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            match &inputs[0] {
                Token::Text(s) => Ok(vec![Token::Text(s.to_uppercase())]),
                _ => Err("expected text".into()),
            }
        }

        fn is_pure(&self) -> bool {
            true
        }
    }

    #[test]
    fn memoised_rerun_skips_pure_tasks() {
        use crate::memo::MemoCache;
        let tool = Arc::new(PureUpper::new());
        let mut g = TaskGraph::new();
        let up = g.add_task(Arc::clone(&tool) as Arc<dyn crate::graph::Tool>);
        let mut bindings = HashMap::new();
        bindings.insert((up, 0), Token::Text("hello".into()));

        let cache = Arc::new(MemoCache::new(16));
        let exec = Executor::serial().with_memoisation(Arc::clone(&cache));
        let cold = exec.run(&g, &bindings).unwrap();
        assert_eq!(cold.output(up, 0), Some(&Token::Text("HELLO".into())));
        assert_eq!(cold.memo_hits(), 0);
        let warm = exec.run(&g, &bindings).unwrap();
        assert_eq!(warm.output(up, 0), Some(&Token::Text("HELLO".into())));
        assert_eq!(warm.memo_hits(), 1);
        let run = &warm.runs[0];
        assert!(run.cached);
        assert_eq!(run.attempts, 0);
        // The tool body ran exactly once across both enactments.
        assert_eq!(tool.executions.load(std::sync::atomic::Ordering::SeqCst), 1);
        // Changed input bypasses the cache.
        bindings.insert((up, 0), Token::Text("other".into()));
        let changed = exec.run(&g, &bindings).unwrap();
        assert_eq!(changed.output(up, 0), Some(&Token::Text("OTHER".into())));
        assert_eq!(changed.memo_hits(), 0);
        assert_eq!(tool.executions.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn impure_tasks_are_never_memoised() {
        use crate::memo::MemoCache;
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let up = g.add_task(Arc::new(Upper));
        g.connect(src, 0, up, 0).unwrap();
        let cache = Arc::new(MemoCache::new(16));
        let exec = Executor::serial().with_memoisation(Arc::clone(&cache));
        exec.run(&g, &HashMap::new()).unwrap();
        let rerun = exec.run(&g, &HashMap::new()).unwrap();
        assert_eq!(rerun.memo_hits(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_hit_events_fire_on_warm_runs() {
        use crate::memo::MemoCache;
        use parking_lot::Mutex;
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&events);
        let listener: super::ProgressListener = std::sync::Arc::new(move |e| sink.lock().push(e));

        let mut g = TaskGraph::new();
        let up = g.add_task(Arc::new(PureUpper::new()));
        let mut bindings = HashMap::new();
        bindings.insert((up, 0), Token::Text("x".into()));
        let exec = Executor::serial()
            .with_memoisation(Arc::new(MemoCache::new(4)))
            .with_listener(listener);
        exec.run(&g, &bindings).unwrap();
        exec.run(&g, &bindings).unwrap();
        let events = events.lock();
        let hits = events
            .iter()
            .filter(|e| matches!(e, super::ProgressEvent::CacheHit { task } if task == "PureUpper"))
            .count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn empty_graph_runs() {
        let g = TaskGraph::new();
        let report = Executor::parallel().run(&g, &HashMap::new()).unwrap();
        assert!(report.outputs.is_empty());
        let report = Executor::serial().run(&g, &HashMap::new()).unwrap();
        assert!(report.runs.is_empty());
    }

    /// Passes its input through, counting executions.
    struct CountingPass {
        name: String,
        executions: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl crate::graph::Tool for CountingPass {
        fn name(&self) -> &str {
            &self.name
        }

        fn input_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("in", "string")]
        }

        fn output_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("out", "string")]
        }

        fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            self.executions
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(vec![inputs[0].clone()])
        }
    }

    /// Blocks until `failed` is raised (a sibling's terminal failure),
    /// then succeeds — so its successors are provably enqueued *after*
    /// the failure, where the pre-fix executor could still run them.
    struct WaitForFailure {
        failed: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl crate::graph::Tool for WaitForFailure {
        fn name(&self) -> &str {
            "WaitForFailure"
        }

        fn input_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("in", "string")]
        }

        fn output_ports(&self) -> Vec<crate::graph::PortSpec> {
            vec![crate::graph::PortSpec::new("out", "string")]
        }

        fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            let start = Instant::now();
            while !self.failed.load(std::sync::atomic::Ordering::SeqCst)
                && start.elapsed() < Duration::from_secs(5)
            {
                std::thread::yield_now();
            }
            // Grace period: the Failed event fires just before the
            // failing worker records the failure under the state lock;
            // give it time to get there so this completion lands after.
            std::thread::sleep(Duration::from_millis(2));
            Ok(vec![inputs[0].clone()])
        }
    }

    #[test]
    fn parallel_failure_cancels_queued_tasks_deterministically() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        // src fans out to an instantly-failing task and a gate that
        // completes only after the failure is visible; the gate's five
        // successors are therefore queued (or about to be) when the
        // failure is recorded. Pre-fix, workers could claim and execute
        // them before the POISON pill propagated, so how many ran
        // varied run to run. Post-fix they must never run: claimed
        // tasks re-check the failure flag, and completions after a
        // failure schedule no successors. 100 iterations pin it.
        for iteration in 0..100 {
            let failed = std::sync::Arc::new(AtomicBool::new(false));
            let downstream = std::sync::Arc::new(AtomicUsize::new(0));

            let mut g = TaskGraph::new();
            let src = g.add_task(Arc::new(ConstText("x".into())));
            let fail = g.add_named_task("fail", Arc::new(Flaky::failing(usize::MAX)));
            let gate = g.add_task(Arc::new(WaitForFailure {
                failed: std::sync::Arc::clone(&failed),
            }));
            g.connect(src, 0, fail, 0).unwrap();
            g.connect(src, 0, gate, 0).unwrap();
            for i in 0..5 {
                let sink = g.add_task(Arc::new(CountingPass {
                    name: format!("downstream-{i}"),
                    executions: std::sync::Arc::clone(&downstream),
                }));
                g.connect(gate, 0, sink, 0).unwrap();
            }

            let flag = std::sync::Arc::clone(&failed);
            let listener: super::ProgressListener = std::sync::Arc::new(move |e| {
                if matches!(e, super::ProgressEvent::Failed { .. }) {
                    flag.store(true, Ordering::SeqCst);
                }
            });
            let err = Executor::parallel()
                .with_listener(listener)
                .run(&g, &HashMap::new())
                .unwrap_err();
            assert!(
                matches!(err, WorkflowError::TaskFailed { ref task, .. } if task == "fail"),
                "iteration {iteration}: wrong failure: {err}"
            );
            assert_eq!(
                downstream.load(Ordering::SeqCst),
                0,
                "iteration {iteration}: a queued task executed after the failure"
            );
        }
    }

    #[test]
    fn virtual_clock_reports_simulated_elapsed() {
        use std::sync::atomic::{AtomicU64, Ordering};
        /// Charges 5 ms of simulated time per execution, like a WsTool
        /// charging transport against the network's virtual clock.
        struct Charging {
            nanos: std::sync::Arc<AtomicU64>,
        }
        impl crate::graph::Tool for Charging {
            fn name(&self) -> &str {
                "Charging"
            }
            fn input_ports(&self) -> Vec<crate::graph::PortSpec> {
                vec![crate::graph::PortSpec::new("in", "string")]
            }
            fn output_ports(&self) -> Vec<crate::graph::PortSpec> {
                vec![crate::graph::PortSpec::new("out", "string")]
            }
            fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
                self.nanos
                    .fetch_add(Duration::from_millis(5).as_nanos() as u64, Ordering::SeqCst);
                Ok(vec![inputs[0].clone()])
            }
        }

        let nanos = std::sync::Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let charge = g.add_task(Arc::new(Charging {
            nanos: std::sync::Arc::clone(&nanos),
        }));
        g.connect(src, 0, charge, 0).unwrap();

        // Without a clock source both simulated figures stay zero.
        let report = Executor::serial().run(&g, &HashMap::new()).unwrap();
        assert_eq!(report.virtual_elapsed, Duration::ZERO);
        assert!(report
            .runs
            .iter()
            .all(|r| r.virtual_duration == Duration::ZERO));

        nanos.store(0, Ordering::SeqCst);
        let clock_nanos = std::sync::Arc::clone(&nanos);
        let clock: super::ClockSource =
            std::sync::Arc::new(move || Duration::from_nanos(clock_nanos.load(Ordering::SeqCst)));
        use parking_lot::Mutex;
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&events);
        let listener: super::ProgressListener = std::sync::Arc::new(move |e| sink.lock().push(e));

        let report = Executor::serial()
            .with_virtual_clock(clock)
            .with_listener(listener)
            .run(&g, &HashMap::new())
            .unwrap();
        // The whole enactment advanced the simulated clock by exactly
        // the 5 ms the charging task spent; wall elapsed says nothing
        // about that (the run never sleeps).
        assert_eq!(report.virtual_elapsed, Duration::from_millis(5));
        let charge_run = report.runs.iter().find(|r| r.task == "Charging").unwrap();
        assert_eq!(charge_run.virtual_duration, Duration::from_millis(5));
        let src_run = report.runs.iter().find(|r| r.task == "ConstText").unwrap();
        assert_eq!(src_run.virtual_duration, Duration::ZERO);
        // RunFinished carries the simulated figure too, so live
        // monitors agree with benches and traces.
        let events = events.lock();
        assert!(events.iter().any(|e| matches!(
            e,
            super::ProgressEvent::RunFinished { virtual_elapsed, .. }
                if *virtual_elapsed == Duration::from_millis(5)
        )));
    }

    #[test]
    fn deterministic_events_are_replay_stable_under_parallelism() {
        use parking_lot::Mutex;
        // Eight same-tick leaves raced by the worker pool: with live
        // delivery the Started/Finished interleaving varies run to run,
        // so a journal replayed against the event stream could never be
        // compared. In deterministic mode every enactment of the same
        // workflow must yield the identical sequence — per-task blocks
        // ordered by (completion tick, task id), RunStarted first,
        // RunFinished last. Many iterations pin the ordering against
        // scheduler luck.
        let build = || {
            let mut g = TaskGraph::new();
            let src = g.add_task(Arc::new(ConstText("abc".into())));
            for i in 0..8 {
                let up = g.add_named_task(format!("upper-{i}"), Arc::new(Upper));
                g.connect(src, 0, up, 0).unwrap();
            }
            g
        };
        let mut reference: Option<Vec<ProgressEvent>> = None;
        for iteration in 0..50 {
            let events = std::sync::Arc::new(Mutex::new(Vec::new()));
            let sink = std::sync::Arc::clone(&events);
            let listener: super::ProgressListener =
                std::sync::Arc::new(move |e| sink.lock().push(e));
            let report = Executor::parallel()
                .with_deterministic_events()
                .with_listener(listener)
                .run(&build(), &HashMap::new())
                .unwrap();
            // Run records follow the same deterministic order.
            let names: Vec<_> = report.runs.iter().map(|r| r.task.clone()).collect();
            assert_eq!(names[0], "ConstText", "iteration {iteration}");
            assert_eq!(
                names[1..],
                (0..8).map(|i| format!("upper-{i}")).collect::<Vec<_>>()[..],
                "iteration {iteration}"
            );
            let mut seen = events.lock().clone();
            // Wall-clock durations inside events vary; normalise them.
            for e in seen.iter_mut() {
                match e {
                    ProgressEvent::Finished { duration, .. } => *duration = Duration::ZERO,
                    ProgressEvent::RunFinished {
                        elapsed,
                        virtual_elapsed,
                        ..
                    } => {
                        *elapsed = Duration::ZERO;
                        *virtual_elapsed = Duration::ZERO;
                    }
                    _ => {}
                }
            }
            assert!(matches!(
                seen.first(),
                Some(ProgressEvent::RunStarted { .. })
            ));
            assert!(matches!(
                seen.last(),
                Some(ProgressEvent::RunFinished { .. })
            ));
            match &reference {
                None => reference = Some(seen),
                Some(expected) => {
                    assert_eq!(&seen, expected, "iteration {iteration} diverged");
                }
            }
        }
    }

    #[test]
    fn canonical_bytes_ignore_provenance_but_not_results() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("hello".into())));
        let up = g.add_task(Arc::new(Upper));
        g.connect(src, 0, up, 0).unwrap();
        let a = Executor::serial().run(&g, &HashMap::new()).unwrap();
        let mut b = Executor::parallel().run(&g, &HashMap::new()).unwrap();
        // Attempt counts, durations, and replay provenance differ
        // legitimately between enactments; results must not.
        for run in b.runs.iter_mut() {
            run.attempts += 3;
            run.duration += Duration::from_secs(1);
            run.replayed = true;
        }
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        assert_eq!(b.replay_hits(), 2);
        // A changed output token changes the bytes.
        let mut c = a.clone();
        c.outputs.insert((up, 0), Token::Text("OTHER".into()));
        assert_ne!(a.canonical_bytes(), c.canonical_bytes());
    }
}
