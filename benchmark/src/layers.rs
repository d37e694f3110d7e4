//! The traced run: spans around the workload's own calls into each layer,
//! and a stopwatch suite that times every layer in isolation on inputs
//! pinned by the seed.
//!
//! Layer = module. Every stopwatch and count here is taken in this crate
//! around a public call; nothing inside the programs under test is
//! instrumented. The workload-derived figures are counts and shares (a
//! layer a workload never enters reads 0); the suite's timings are
//! workload-independent and always measured, so each traced run carries
//! the full attribution table.

use crate::daemon::{dir_bytes, ensure_flowtimed, session_config, Daemon, WorkDir};
use crate::gen::{self, TraceSize, MAX_SLOTS};
use crate::loadgen::{drive, due_ns, Conn, Op};
use crate::report::{bench_dir, scaled as count, Metric, RunOutput};
use crate::sim::{run_round, Round, SimSpec};
use crate::spans::Recorder;
use crate::stats;
use flowtime::decompose::{decompose, DecomposeConfig};
use flowtime::lp_sched::cache::PlanCache;
use flowtime::lp_sched::{backend, formulation, lexmin, rounding, SolveStats, SolverBackend};
use flowtime::FairScheduler;
use flowtime_daemon::protocol::{ok_line, parse_request};
use flowtime_daemon::wal::{self, FsyncPolicy, WalConfig, WalRecord};
use flowtime_daemon::{snapshot, Client, Request, Session, SnapshotBody};
use flowtime_lp::SimplexOptions;
use flowtime_sim::{certify, AdhocSubmission, Engine, LogEntry, SimOutcome, SolverTelemetry};
use flowtime_workload::Trace;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// What the traced workload itself showed: counts, and shares of its
/// traced wall time.
#[derive(Default)]
struct Derived {
    telemetry: SolverTelemetry,
    replan_share: f64,
    scheduler_calls: u64,
    plan_slot_share: f64,
    scheduler_self_share: f64,
    engine_slots: u64,
    engine_self_share: f64,
    trace_events: u64,
    certify_share: f64,
    codec_share: f64,
    protocol_share: f64,
    session_share: f64,
    spans_overhead: f64,
    deadline_miss_jobs: u64,
}

fn write_spans(workload: &str, recorder: &Recorder) -> Result<(), String> {
    let path = bench_dir("out")
        .map_err(|e| e.to_string())?
        .join(format!("spans-{workload}.json"));
    std::fs::write(&path, recorder.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}

fn ns(map: &BTreeMap<&'static str, u64>, name: &str) -> f64 {
    map.get(name).copied().unwrap_or(0) as f64
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn sum_telemetry(outcomes: &[SimOutcome]) -> SolverTelemetry {
    let mut total = SolverTelemetry::default();
    for t in outcomes.iter().filter_map(|o| o.solver_telemetry.as_ref()) {
        total.accumulate(t);
    }
    total
}

/// Traces one round of an in-process workload.
pub fn trace_sim(
    spec: &SimSpec,
    bytes: &[u8],
    check: &Round,
    untraced_wall_s: f64,
    seed: u64,
    scale: f64,
    out: &mut RunOutput,
) -> Result<(), String> {
    let recorder = Rc::new(RefCell::new(Recorder::new(true)));
    let round = run_round(spec, bytes, &recorder)?;
    out.check(
        "traced outcome bytes repeat",
        round.outcomes_json == check.outcomes_json,
    );
    let recorder = recorder.borrow();
    write_spans(spec.name, &recorder)?;

    let wall_ns = round.wall_s * 1e9;
    let (total, own) = (recorder.totals(), recorder.self_times());
    let telemetry = sum_telemetry(&round.outcomes);
    let replan_ns = telemetry.replan_wall_nanos as f64;
    let derived = Derived {
        replan_share: ratio(replan_ns, wall_ns),
        scheduler_calls: round.calls,
        plan_slot_share: ratio(ns(&total, "scheduler.plan_slot"), wall_ns),
        scheduler_self_share: ratio(ns(&total, "scheduler.plan_slot") - replan_ns, wall_ns),
        engine_slots: round
            .outcomes
            .iter()
            .map(|o| o.engine_telemetry.slots_simulated)
            .sum(),
        engine_self_share: ratio(ns(&own, "engine.run"), wall_ns),
        trace_events: round.trace_events,
        certify_share: ratio(ns(&own, "audit.certify"), wall_ns),
        codec_share: ratio(
            ns(&own, "codec.trace_decode") + ns(&own, "codec.outcome_encode"),
            wall_ns,
        ),
        spans_overhead: ratio(round.wall_s, untraced_wall_s),
        deadline_miss_jobs: crate::sim::outcome_quality(&round.outcomes).1,
        telemetry,
        ..Derived::default()
    };
    finish(derived, seed, scale, out)
}

/// Replays the request lines of the TCP run through the accept path in
/// process — `parse_request` → `Session::handle` → `ok_line`, one request
/// id per line — and returns the replay's wall time.
fn replay(lines: &[String], recorder: &mut Recorder) -> Result<(f64, Session), String> {
    let mut session = Session::new(session_config()).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let all = lines
        .iter()
        .map(String::as_str)
        .chain(["{\"req\":\"drain\"}", "{\"req\":\"outcome\"}"]);
    for (i, line) in all.enumerate() {
        let req = i as u64 + 1;
        recorder.enter("request", req);
        let parsed = recorder.within("protocol.parse", req, || parse_request(line));
        let request = parsed.map_err(|e| format!("replay cannot parse a sent line: {e}"))?;
        let body = recorder.within("session.handle", req, || session.handle(request));
        let body = body.map_err(|e| format!("replay refused a sent line: {e}"))?;
        black_box(recorder.within("protocol.render", req, || ok_line(&body)));
        recorder.exit();
    }
    Ok((start.elapsed().as_secs_f64(), session))
}

/// Traces a daemon workload: the lines the daemon applied, replayed in
/// process with spans on and then off.
pub fn trace_daemon(
    workload: &str,
    applied: &[String],
    outcome: &SimOutcome,
    seed: u64,
    scale: f64,
    out: &mut RunOutput,
) -> Result<(), String> {
    let mut recorder = Recorder::new(true);
    let (traced_s, session) = replay(applied, &mut recorder)?;
    let (untraced_s, _) = replay(applied, &mut Recorder::new(false))?;
    write_spans(workload, &recorder)?;

    let wall_ns = traced_s * 1e9;
    let total = recorder.totals();
    // The replayed session ran in this process, so its telemetry carries
    // the replan wall time the wire format leaves out.
    let telemetry = sum_telemetry(session.final_outcomes().unwrap_or(&[]));
    let derived = Derived {
        replan_share: ratio(telemetry.replan_wall_nanos as f64, wall_ns),
        engine_slots: outcome.engine_telemetry.slots_simulated,
        protocol_share: ratio(
            ns(&total, "protocol.parse") + ns(&total, "protocol.render"),
            wall_ns,
        ),
        session_share: ratio(ns(&total, "session.handle"), wall_ns),
        spans_overhead: ratio(traced_s, untraced_s),
        deadline_miss_jobs: outcome.metrics.job_deadline_misses() as u64,
        telemetry,
        ..Derived::default()
    };
    finish(derived, seed, scale, out)
}

/// Median wall time of `reps` calls, in seconds.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// The planner layers on the pinned problem P0 and on the interval
/// family.
fn planner_suite(seed: u64, shrink: f64, m: &mut Vec<Metric>) -> Result<(), String> {
    let e = |e: flowtime::CoreError| e.to_string();
    let workflows = gen::catalogue_workflows(count(30, shrink, 5));
    let config = DecomposeConfig::new(gen::cluster().capacity());
    let all = timed(5, || {
        workflows
            .iter()
            .filter_map(|sub| decompose(black_box(&sub.workflow), &config).ok())
            .map(|d| d.windows.len())
            .sum::<usize>()
    });
    m.push(Metric::new(
        "decompose.us_per_workflow",
        all * 1e6 / workflows.len() as f64,
        "us",
    ));

    let p0 = gen::pinned_problem(count(5, shrink, 1));
    let none = HashMap::new();
    m.push(Metric::new(
        "formulation.build_ms",
        timed(5, || formulation::build(&p0, &none).map(|f| f.x.len())) * 1e3,
        "ms",
    ));
    // Seconds per solve on P0, so it is taken once.
    let start = Instant::now();
    let fractional = lexmin::solve(&p0, 2).map_err(e)?;
    m.push(Metric::new(
        "lexmin.solve_ms",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    ));
    m.push(Metric::new(
        "rounding.round_ms",
        timed(5, || rounding::round_plan(&p0, &fractional.x).horizon) * 1e3,
        "ms",
    ));
    let flow = SolverBackend::ParametricFlow;
    let plan = backend::solve(&p0, flow).map_err(e)?;
    m.push(Metric::new(
        "flow.solve_ms",
        timed(5, || {
            backend::solve_with(&p0, flow, None, &mut SolveStats::default()).map(|p| p.horizon)
        }) * 1e3,
        "ms",
    ));
    let mut cache = PlanCache::new();
    cache.store(&p0, flow, &plan);
    m.push(Metric::new(
        "cache.lookup_us",
        timed(200, || cache.lookup(&p0, flow)) * 1e6,
        "us",
    ));

    // The Lemma-2 scaling curve: flow at 100 / 1 000 / 10 000 jobs, the
    // simplex cold at 100 / 300 and warm at 100.
    for (jobs, name, reps) in [
        (100, "flow.solve_ms.j100", 5),
        (1000, "flow.solve_ms.j1000", 5),
        (10_000, "flow.solve_ms.j10000", 3),
    ] {
        let problem = gen::interval_problem(count(jobs, shrink, 20), seed, 0);
        problem.solve(flow).map_err(e)?;
        m.push(Metric::new(
            name,
            timed(reps, || problem.solve(flow).map(|p| p.horizon)) * 1e3,
            "ms",
        ));
    }
    let options = SimplexOptions::default();
    let jobs = count(100, shrink, 20);
    let base = formulation::build(&gen::interval_problem(jobs, seed, 0), &none).map_err(e)?;
    let next = formulation::build(&gen::interval_problem(jobs, seed, 1), &none).map_err(e)?;
    let cold = base
        .problem
        .solve_warm(&options, None)
        .map_err(|e| e.to_string())?;
    let warm = next
        .problem
        .solve_warm(&options, Some(&cold.basis))
        .map_err(|e| e.to_string())?;
    m.push(Metric::new(
        "simplex.cold_ms.j100",
        timed(5, || {
            base.problem.solve_warm(&options, None).map(|r| r.warm_used)
        }) * 1e3,
        "ms",
    ));
    m.push(Metric::new(
        "simplex.warm_ms.j100",
        timed(5, || {
            next.problem
                .solve_warm(&options, Some(&cold.basis))
                .map(|r| r.warm_used)
        }) * 1e3,
        "ms",
    ));
    m.push(Metric::new(
        "simplex.cold_pivots.j100",
        cold.solution.iterations as f64,
        "count",
    ));
    m.push(Metric::new(
        "simplex.warm_pivots.j100",
        warm.solution.iterations as f64,
        "count",
    ));
    let big = formulation::build(
        &gen::interval_problem(count(300, shrink, 30), seed, 0),
        &none,
    )
    .map_err(e)?;
    m.push(Metric::new(
        "simplex.cold_ms.j300",
        timed(3, || {
            big.problem.solve_warm(&options, None).map(|r| r.warm_used)
        }) * 1e3,
        "ms",
    ));
    Ok(())
}

/// The engine, auditor and codecs on a pinned baseline run: a small
/// ad-hoc-heavy trace under the fair scheduler, with and without the
/// decision trace.
fn engine_suite(seed: u64, shrink: f64, m: &mut Vec<Metric>) -> Result<(), String> {
    let size = TraceSize {
        workflows: count(10, shrink, 1),
        jobs_per_workflow: 18,
        adhoc_rate_per_slot: 3.0,
        adhoc_horizon: count(720, shrink, 30) as u64,
    };
    let bytes = gen::trace_bytes(&gen::production_trace(size, seed));
    let mb = bytes.len() as f64 / 1e6;
    let decode = timed(5, || {
        Trace::read_jsonl(&bytes[..]).map(|t| t.workload.adhoc.len())
    });
    m.push(Metric::new("codec.trace_decode_mb_s", mb / decode, "MB/s"));

    let trace = Trace::read_jsonl(&bytes[..]).map_err(|e| e.to_string())?;
    // One baseline run; returns the engine's own time (run minus the
    // scheduler's `plan_slot`), the outcome, and — when audited — the
    // auditor's event count and wall time.
    let run = |audit: bool| -> Result<(f64, SimOutcome, u64, f64), String> {
        let recorder = Rc::new(RefCell::new(Recorder::new(false)));
        let mut watched = crate::sim::Stopwatched::new(Box::new(FairScheduler::new()), recorder);
        let engine = Engine::new(trace.cluster.clone(), trace.workload.clone(), MAX_SLOTS)
            .map_err(|e| e.to_string())?;
        let (engine, handle) = if audit {
            let (e, h) = engine.with_trace(1 << 24);
            (e, Some(h))
        } else {
            (engine, None)
        };
        let start = Instant::now();
        let outcome = engine.run(&mut watched).map_err(|e| e.to_string())?;
        let own_s = start.elapsed().as_secs_f64() - watched.plan_slot_ns as f64 / 1e9;
        let (mut events, mut certify_s) = (0, 0.0);
        if let Some(handle) = handle {
            let decisions = handle.take();
            let start = Instant::now();
            events = certify(&trace.cluster, &trace.workload, &outcome, &decisions).events_checked;
            certify_s = start.elapsed().as_secs_f64();
        }
        Ok((own_s, outcome, events, certify_s))
    };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..2 {
        plain.push(run(false)?.0);
        traced.push(run(true)?.0);
    }
    plain.push(run(false)?.0);
    let (own_s, outcome, events, certify_s) = run(true)?;
    traced.push(own_s);
    let slots = outcome.engine_telemetry.slots_simulated.max(1) as f64;
    m.push(Metric::new(
        "engine.us_per_slot",
        stats::median(&plain) * 1e6 / slots,
        "us",
    ));
    m.push(Metric::new(
        "trace.overhead_ratio",
        stats::median(&traced) / stats::median(&plain),
        "ratio",
    ));
    m.push(Metric::new(
        "audit.events_per_s",
        events as f64 / certify_s,
        "1/s",
    ));

    let json = serde_json::to_string(&outcome).map_err(|e| e.to_string())?;
    let mb = json.len() as f64 / 1e6;
    let encode = timed(5, || serde_json::to_string(&outcome).map(|s| s.len()));
    let decode = timed(5, || {
        serde_json::from_str::<SimOutcome>(&json).map(|o| o.slots_elapsed)
    });
    m.push(Metric::new(
        "codec.outcome_encode_mb_s",
        mb / encode,
        "MB/s",
    ));
    m.push(Metric::new(
        "codec.outcome_decode_mb_s",
        mb / decode,
        "MB/s",
    ));
    Ok(())
}

/// The accept path in process: protocol, session, write-ahead log and
/// snapshot, on submit lines from the seed. Files go under `work`.
fn accept_suite(seed: u64, shrink: f64, work: &Path, m: &mut Vec<Metric>) -> Result<(), String> {
    let e = |e: flowtime_daemon::ProtocolError| e.to_string();
    let w = |e: flowtime_daemon::WalError| e.to_string();
    let lines = gen::adhoc_lines(count(2000, shrink, 40), 40, 0, seed);
    let n = lines.len() as f64;
    let synced = count(200, shrink, 10);

    let parse = timed(5, || {
        lines.iter().filter(|l| parse_request(l).is_ok()).count()
    });
    m.push(Metric::new("protocol.parse_us", parse * 1e6 / n, "us"));
    let body = "{\"sub\":123456,\"arrival\":3086,\"jobs\":1}";
    let render = timed(5, || {
        for _ in 0..lines.len() {
            black_box(ok_line(black_box(body)));
        }
    });
    m.push(Metric::new("protocol.render_us", render * 1e6 / n, "us"));

    let requests = |take: usize| -> Vec<Request> {
        lines
            .iter()
            .take(take)
            .map(|l| parse_request(l).expect("generated lines parse"))
            .collect()
    };
    let handle_all = |session: &mut Session, requests: Vec<Request>| -> Result<f64, String> {
        let start = Instant::now();
        for request in requests {
            session.handle(request).map_err(e)?;
        }
        Ok(start.elapsed().as_secs_f64())
    };
    let mut plain = Vec::new();
    for _ in 0..3 {
        let mut session = Session::new(session_config()).map_err(e)?;
        plain.push(handle_all(&mut session, requests(lines.len()))? * 1e6 / n);
    }
    m.push(Metric::new(
        "session.handle_us",
        stats::median(&plain),
        "us",
    ));

    let wal_config = |name: &str, fsync: FsyncPolicy| {
        let dir = work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = WalConfig::new(dir);
        config.fsync = fsync;
        config
    };
    let (mut session, _) = Session::recover(
        session_config(),
        wal_config("wal-session", FsyncPolicy::Always),
        None,
    )
    .map_err(e)?;
    let wal_s = handle_all(&mut session, requests(synced))?;
    m.push(Metric::new(
        "session.handle_us.wal",
        wal_s * 1e6 / synced as f64,
        "us",
    ));
    drop(session);

    let record = |seq: u64| WalRecord::Entry {
        entry: LogEntry::Adhoc {
            seq,
            at: 0,
            submission: AdhocSubmission::new(
                flowtime_dag::JobSpec::new(
                    format!("a{seq}"),
                    1 + seq % 4,
                    1 + seq % 2,
                    flowtime_dag::ResourceVec::new([1, 1024]),
                ),
                seq / 40,
            ),
        },
        request_id: None,
    };
    for (name, fsync, appends) in [
        ("wal.append_us.none", FsyncPolicy::None, lines.len()),
        ("wal.append_us.always", FsyncPolicy::Always, synced),
    ] {
        let config = wal_config("wal-append", fsync);
        let dir = config.dir.clone();
        let mut log = wal::create(config, None).map_err(w)?;
        let start = Instant::now();
        for seq in 0..appends as u64 {
            log.append(&record(seq)).map_err(w)?;
        }
        let s = start.elapsed().as_secs_f64();
        m.push(Metric::new(name, s * 1e6 / appends as f64, "us"));
        if fsync == FsyncPolicy::None {
            drop(log);
            m.push(Metric::new(
                "wal.bytes_per_submit",
                dir_bytes(&dir) as f64 / appends as f64,
                "B",
            ));
        }
    }

    // Recovery: a session that logged every line without syncing, dropped
    // and recovered from its directory.
    let config = wal_config("wal-recover", FsyncPolicy::None);
    let (mut session, _) = Session::recover(session_config(), config.clone(), None).map_err(e)?;
    handle_all(&mut session, requests(lines.len()))?;
    let body = SnapshotBody {
        config: session_config(),
        log: session.log().clone(),
        now: session.now(),
        next_seq: session.log().len() as u64,
        wal_segment: 0,
        request_ids: BTreeMap::new(),
    };
    drop(session);
    let start = Instant::now();
    let (recovered, report) = Session::recover(session_config(), config, None).map_err(e)?;
    let s = start.elapsed().as_secs_f64();
    if recovered.log().len() != lines.len() {
        return Err("in-process recovery lost records".into());
    }
    m.push(Metric::new(
        "wal.recover_records_per_s",
        report.records_replayed as f64 / s,
        "1/s",
    ));

    let path = work.join("snapshot.json");
    let save = timed(3, || {
        snapshot::save(&path, &body).map_err(|e| e.to_string())
    });
    let load = timed(3, || snapshot::load(&path).map(|b| b.next_seq));
    m.push(Metric::new("snapshot.save_ms", save * 1e3, "ms"));
    m.push(Metric::new("snapshot.load_ms", load * 1e3, "ms"));
    Ok(())
}

/// The transport: a real daemon child without a log, probed over TCP.
fn server_suite(seed: u64, shrink: f64, m: &mut Vec<Metric>) -> Result<(), String> {
    let io = |e: std::io::Error| format!("server probe: {e}");
    let wait = Duration::from_secs(60);
    let bin = ensure_flowtimed()?;
    let daemon = Daemon::spawn(&bin, None)?;
    let mut conn = Conn::connect(&daemon.addr).map_err(io)?;
    for sub in gen::catalogue_workflows(3) {
        conn.request(&(gen::workflow_line(&sub) + "\n"), wait)
            .map_err(io)?;
    }
    let status = "{\"req\":\"status\"}\n";
    let mut rtts: Vec<f64> = (0..count(200, shrink, 10))
        .map(|_| {
            let start = Instant::now();
            conn.request(status, wait)
                .map(|_| start.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Result<_, _>>()
        .map_err(io)?;
    m.push(Metric::new(
        "server.rtt_us",
        stats::percentile(stats::sorted(&mut rtts), 0.5),
        "us",
    ));
    {
        let mut client = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
        let mut rtts: Vec<f64> = (0..count(10, shrink, 3))
            .map(|_| {
                let start = Instant::now();
                client
                    .request_line("{\"req\":\"status\"}")
                    .map(|_| start.elapsed().as_secs_f64() * 1e6)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        m.push(Metric::new(
            "client.rtt_us",
            stats::percentile(stats::sorted(&mut rtts), 0.5),
            "us",
        ));
    }

    let mut conns = [conn];
    let lines = vec![status.to_string()];
    let ops: Vec<Op> = (0..count(5000, shrink, 100))
        .map(|_| Op {
            conn: 0,
            line: 0,
            due_ns: 0,
        })
        .collect();
    let ledger = drive(&mut conns, &lines, &ops, Some(128), wait).map_err(io)?;
    let last = ledger.done.iter().map(|d| d.reply_ns).max().unwrap_or(1);
    m.push(Metric::new(
        "server.status_per_s",
        ops.len() as f64 / (last as f64 / 1e9),
        "1/s",
    ));

    let slots = count(50, shrink, 5) as u64;
    let start = Instant::now();
    conns[0]
        .request(&format!("{{\"req\":\"tick\",\"to\":{slots}}}\n"), wait)
        .map_err(io)?;
    m.push(Metric::new(
        "server.tick_ms_per_slot",
        start.elapsed().as_secs_f64() * 1e3 / slots as f64,
        "ms",
    ));

    // Rate ladder: the highest submit rate whose p95 ack stays within
    // 5 ms with no backlog growing towards the end of the step.
    let mut max_ok = 0.0;
    let mut next_index = (slots + 1) * 40;
    for rate in [5_000.0, 10_000.0, 20_000.0, 40_000.0, 80_000.0] {
        let n = count((rate * 0.25) as usize, shrink, 20);
        let lines: Vec<String> = gen::adhoc_lines(n, 40, next_index, seed)
            .into_iter()
            .map(|l| l + "\n")
            .collect();
        next_index += n as u64;
        let ops: Vec<Op> = (0..n)
            .map(|k| Op {
                conn: 0,
                line: k,
                due_ns: due_ns(k, rate),
            })
            .collect();
        let ledger = drive(&mut conns, &lines, &ops, None, wait).map_err(io)?;
        let mut acks = ledger.latencies_ms();
        let p95 = stats::percentile(stats::sorted(&mut acks), 0.95);
        // A growing backlog lifts the whole last tenth; the final few
        // replies alone only wait out the server's Nagle/delayed-ACK tail.
        let settled = stats::median(&ledger.latencies_ms()[n - n / 10..]) <= 5.0;
        if ledger.failures() == 0 && p95 <= 5.0 && settled {
            max_ok = rate;
        }
    }
    m.push(Metric::new("server.max_rate_ok", max_ok, "1/s"));
    Ok(())
}

/// Runs the suite and assembles the per-layer list in declaration order.
fn finish(d: Derived, seed: u64, scale: f64, out: &mut RunOutput) -> Result<(), String> {
    let shrink = scale.min(1.0);
    let work = WorkDir::create("suite")?;
    let mut m = Vec::new();
    planner_suite(seed, shrink, &mut m)?;
    engine_suite(seed, shrink, &mut m)?;
    accept_suite(seed, shrink, &work.0, &mut m)?;
    server_suite(seed, shrink, &mut m)?;

    let t = &d.telemetry;
    let warm_attempts = t.warm_solves + t.warm_fallbacks;
    let lookups = t.cache_hits() + t.cache_misses;
    m.extend([
        Metric::new("planner.replans", t.replans as f64, "count"),
        Metric::new(
            "planner.degraded_replans",
            t.degraded_replans as f64,
            "count",
        ),
        Metric::new(
            "planner.warm_fallback_ratio",
            ratio(t.warm_fallbacks as f64, warm_attempts as f64),
            "ratio",
        ),
        Metric::new("planner.replan_share", d.replan_share, "ratio"),
        Metric::new(
            "cache.hit_ratio",
            ratio(t.cache_hits() as f64, lookups as f64),
            "ratio",
        ),
        Metric::new("scheduler.calls", d.scheduler_calls as f64, "count"),
        Metric::new("scheduler.plan_slot_share", d.plan_slot_share, "ratio"),
        Metric::new("scheduler.self_share", d.scheduler_self_share, "ratio"),
        Metric::new("engine.slots", d.engine_slots as f64, "count"),
        Metric::new("engine.self_share", d.engine_self_share, "ratio"),
        Metric::new("trace.events", d.trace_events as f64, "count"),
        Metric::new("audit.certify_share", d.certify_share, "ratio"),
        Metric::new("codec.share", d.codec_share, "ratio"),
        Metric::new("protocol.share", d.protocol_share, "ratio"),
        Metric::new("session.handle_share", d.session_share, "ratio"),
        Metric::new("spans.overhead_ratio", d.spans_overhead, "ratio"),
        Metric::new("deadline_miss_jobs", d.deadline_miss_jobs as f64, "count"),
    ]);
    out.layers = m;
    Ok(())
}
