//! `serve_open_loop_16rps`: the serving stack replaying an open-loop trace.
//!
//! The trace is open loop in *virtual* time: sa-serve reads no real clock
//! by design, so there is no wall-clock arrival schedule to keep. One
//! operation replays a whole trace as one batch through the continuous
//! scheduler and times the wall clock; queueing outcomes are deterministic
//! and reported as exact counts. A run cycles through [`TRACES`] arrival
//! draws: at this load the arrival times decide which requests are shed or
//! miss their deadline, which moves one trace's replay time by +-7 %, and
//! the median over several draws holds still where a single draw does not. Planner, event log, ledger, per-request
//! pool fan-out, chunk-32 prefills and decode steps do the work; the
//! long-context kernels do almost none (prompts are at most 512 tokens).

use sa_json::Json;
use sa_serve::{
    open_loop_workload, EventLog, Ledger, Outcome, Request, Scheduler, ServeConfig, SloSummary,
};
use sa_workloads::ArrivalProcess;

use crate::probes;
use crate::run::{measured_loop, Recorder, RunOpts, RunOutcome, Size};
use crate::spans::Tracer;
use crate::stats::median;

const RATE_PER_SEC: f64 = 16.0;
const TENANTS: u64 = 3;
/// `plan_continuous` calls timed by the traced run.
const PLAN_REPS: usize = 5;
/// Arrival draws per run; replay `n` runs trace `n % TRACES`.
const TRACES: usize = 4;
/// Seed of the request population: the i-th request's size, kind, deadline
/// tier, cancel and fault script are the stock mix's and the same in every
/// run; the run's seed draws the arrival times. (Re-drawing the mix moves
/// the number of 512-token prefills, and with it replay time, by +-10 %.)
const MIX_SEED: u64 = 7;

/// `(arrival window in virtual ms, requests kept)`: the trace is cut to a
/// fixed number of requests so that every replay is the same amount of
/// work; the window is long enough that it always holds that many
/// (16/s over 70 s is 1120 +- 33 arrivals).
fn trace_size(size: Size) -> (u64, usize) {
    match size {
        Size::Full => (70_000, 900),
        Size::Miniature => (4_000, 32),
    }
}

struct Inputs {
    scheduler: Scheduler,
    traces: Vec<Vec<Request>>,
    generate_ms: f64,
}

fn setup(tr: &mut Tracer, seed: u64, size: Size) -> Inputs {
    let (window_ms, keep) = trace_size(size);
    let (traces, generate_ms) = tr.time("workloads.generate", || {
        (0..TRACES as u64)
            .map(|draw| {
                // Distinct for every (seed, draw) pair.
                let arrivals = ArrivalProcess::constant(
                    seed.wrapping_mul(TRACES as u64).wrapping_add(draw),
                    RATE_PER_SEC,
                );
                let mut trace = open_loop_workload(MIX_SEED, &arrivals, window_ms, TENANTS);
                trace.truncate(keep);
                trace
            })
            .collect::<Vec<_>>()
    });
    let scheduler =
        Scheduler::new(ServeConfig::default()).expect("default serving config is valid");
    // Finish any lazy set-up inside the crates before the first replay.
    let head = &traces[0][..traces[0].len().min(8)];
    scheduler
        .run_continuous_with_events(head)
        .expect("warm-up replay");
    Inputs {
        scheduler,
        traces,
        generate_ms,
    }
}

/// What one replay produced.
struct Replay {
    wall_ms: f64,
    json_ms: f64,
    ledger: Ledger,
    log: EventLog,
}

/// One operation: replay trace `draw`, then check the ledger and the event
/// log against each other and against the bytes of that trace's first
/// replay.
fn replay(
    rec: &mut Recorder,
    inputs: &Inputs,
    draw: usize,
    first_json: &mut [Option<String>],
) -> Option<Replay> {
    let requests = &inputs.traces[draw];
    rec.tr.next_op();
    let open = rec.tr.open("bench.op");
    let (result, wall_ms) = rec.tr.time("serve.run_continuous", || {
        inputs.scheduler.run_continuous_with_events(requests)
    });
    let mut problems = Vec::new();
    let replay = match result {
        Ok((ledger, log)) => {
            let (json, json_ms) = rec
                .tr
                .time("serve.ledger_json", || sa_json::to_string(&ledger));
            if let Err(e) = ledger.validate(requests) {
                problems.push(format!("ledger: {e}"));
            }
            let terminals = log.terminals().len();
            if terminals != requests.len() {
                problems.push(format!(
                    "{terminals} terminal events for {} requests",
                    requests.len()
                ));
            }
            if let Err(e) = log.validate(&ledger) {
                problems.push(format!("event log against ledger: {e}"));
            }
            if let Err(e) = log.check_conservation() {
                problems.push(format!("event log conservation: {e}"));
            }
            match &first_json[draw] {
                Some(first) if *first != json => problems.push(format!(
                    "ledger JSON of trace {draw} differs from its first replay's"
                )),
                Some(_) => {}
                None => first_json[draw] = Some(json),
            }
            Some(Replay {
                wall_ms,
                json_ms,
                ledger,
                log,
            })
        }
        Err(e) => {
            problems.push(format!("run_continuous_with_events failed: {e}"));
            None
        }
    };
    rec.tr.close(open);
    rec.tr.end_ops();
    rec.operation(problems);
    replay
}

pub fn run(opts: &RunOpts) -> RunOutcome {
    let mut rec = Recorder::new(opts);
    let inputs = rec.timed_setup(|tr| setup(tr, opts.seed, opts.size));
    let requests = inputs.traces[0].len();
    let virtual_ms = inputs.traces[0].last().map_or(0, |r| r.arrival_ms).max(1);
    rec.fact("requests_per_trace", Json::Int(requests as i64));
    rec.fact("traces", Json::Int(TRACES as i64));
    rec.fact("virtual_ms", Json::Int(virtual_ms as i64));
    rec.fact("rate_per_virtual_s", Json::Float(RATE_PER_SEC));

    let mut first_json = vec![None; TRACES];
    let layers = opts.traced.then(|| layer_probes(&mut rec, opts, &inputs));
    // Replays so far, the warm-up included: replay `n` runs trace `n % TRACES`.
    let mut started = 0;
    if !opts.traced {
        // One replay outside the timings (checked and counted like the
        // rest) lets buffers and page tables reach steady state.
        let warm = replay(&mut rec, &inputs, 0, &mut first_json);
        started = 1;
        rec.fact(
            "warmup_replay_ms",
            Json::Float(warm.map_or(0.0, |r| r.wall_ms)),
        );
    }
    // Of the ledgers only trace 0's latest is kept: memory does not grow
    // with the replays that fit in the budget, and the outcome counts do
    // not depend on how many did.
    let (mut wall_ms, mut json_ms, mut kept) = (Vec::new(), Vec::new(), None);
    let budget = if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    measured_loop(budget, 2, || {
        let draw = started % TRACES;
        started += 1;
        if let Some(replay) = replay(&mut rec, &inputs, draw, &mut first_json) {
            wall_ms.push(replay.wall_ms);
            json_ms.push(replay.json_ms);
            if draw == 0 {
                kept = Some(replay);
            }
        }
    });
    rec.fact("replays", Json::Int(wall_ms.len() as i64));

    if wall_ms.is_empty() {
        return rec.finish();
    }
    if let Some(layers) = layers {
        // A traced run starts at trace 0, so its replay is there unless it failed.
        if let Some(kept) = kept {
            layers.record(&mut rec, &wall_ms, &json_ms, &kept, &inputs, virtual_ms);
        }
    } else {
        // The replay is one call from outside: its inner unit is a request.
        let step = (median(&wall_ms) / requests as f64, wall_ms.len());
        drop(inputs);
        rec.end_to_end(&wall_ms, step, |tr| setup(tr, opts.seed, opts.size));
    }
    rec.finish()
}

struct LayerProbes {
    plan_ms: Vec<f64>,
    sa_trace_ms: f64,
    plain_ms: f64,
}

fn layer_probes(rec: &mut Recorder, opts: &RunOpts, inputs: &Inputs) -> LayerProbes {
    let (_, sizes) = probes::run(
        &mut rec.tr,
        opts.seed,
        opts.size.probe_shape(),
        &mut rec.metrics,
    );
    rec.fact("probe_sizes", sizes);
    let requests = &inputs.traces[0];
    let plan_ms = (0..PLAN_REPS)
        .map(|_| {
            rec.tr
                .time("serve.plan", || {
                    std::hint::black_box(inputs.scheduler.plan_continuous(requests))
                })
                .1
        })
        .collect();
    // The same replay with sa-trace's own probes switched off and on.
    let (result, plain_ms) = rec.tr.time("trace.replay_plain", || {
        inputs.scheduler.run_continuous_with_events(requests)
    });
    drop(result.expect("replay"));
    sa_trace::set_enabled(true);
    let (result, sa_trace_ms) = rec.tr.time("trace.replay_traced", || {
        inputs.scheduler.run_continuous_with_events(requests)
    });
    sa_trace::set_enabled(false);
    drop(sa_trace::drain());
    drop(result.expect("replay under sa-trace"));
    LayerProbes {
        plan_ms,
        sa_trace_ms,
        plain_ms,
    }
}

impl LayerProbes {
    fn record(
        &self,
        rec: &mut Recorder,
        wall_ms: &[f64],
        json_ms: &[f64],
        kept: &Replay,
        inputs: &Inputs,
        virtual_ms: u64,
    ) {
        let requests = &inputs.traces[0];
        let m = &mut rec.metrics;
        let (wall, plan) = (median(wall_ms), median(&self.plan_ms));
        m.set("serve.plan_ms_p50", plan, self.plan_ms.len());
        // Derived: execution cannot be called apart from planning.
        m.set("serve.execute_ms_p50", wall - plan, wall_ms.len());
        m.set("serve.plan_share", plan / wall, wall_ms.len());
        m.set(
            "serve.requests_per_wall_s",
            requests.len() as f64 / (wall / 1e3),
            wall_ms.len(),
        );
        m.set(
            "serve.wall_ms_per_virtual_s",
            wall / (virtual_ms as f64 / 1e3),
            wall_ms.len(),
        );
        m.set("serve.ledger_json_ms_p50", median(json_ms), json_ms.len());
        m.set(
            "trace.overhead_share_serve",
            self.sa_trace_ms / self.plain_ms - 1.0,
            1,
        );
        m.set("workloads.generate_ms", inputs.generate_ms, 1);

        // Exact, virtual-clock outcomes of trace 0's (deterministic) replay.
        let ledger = &kept.ledger;
        let count =
            |outcomes: &[Outcome]| outcomes.iter().map(|&o| ledger.count(o)).sum::<usize>() as f64;
        let total = |f: &dyn Fn(&sa_serve::RequestRecord) -> u64| {
            ledger.records.iter().map(f).sum::<u64>() as f64
        };
        m.set("serve.requests", ledger.records.len() as f64, 1);
        m.set("serve.served", count(&[Outcome::Served]), 1);
        m.set(
            "serve.shed",
            count(&[
                Outcome::RejectedOverloaded,
                Outcome::RejectedBudget,
                Outcome::ShedQualityFloor,
            ]),
            1,
        );
        m.set("serve.cancelled", count(&[Outcome::Cancelled]), 1);
        m.set(
            "serve.deadline_exceeded",
            count(&[Outcome::ExpiredInQueue, Outcome::DeadlineExceeded]),
            1,
        );
        m.set("serve.failed", count(&[Outcome::Failed]), 1);
        m.set("serve.retries", total(&|r| r.retries), 1);
        m.set(
            "serve.recovered_attempts",
            total(&|r| r.recovered_attempts),
            1,
        );
        m.set("serve.canary_probes", total(&|r| u64::from(r.canary)), 1);
        m.set("serve.events", kept.log.events.len() as f64, 1);
        let slo = SloSummary::from_ledger("continuous", ledger, requests);
        m.set(
            "serve.ttft_virtual_ms_p50",
            slo.ttft.p50_ms as f64,
            slo.ttft.count as usize,
        );
        m.set(
            "serve.ttft_virtual_ms_p99",
            slo.ttft.p99_ms as f64,
            slo.ttft.count as usize,
        );
        m.set(
            "serve.tpot_virtual_ms_p50",
            slo.tpot.p50_ms as f64,
            slo.tpot.count as usize,
        );
        m.set("serve.goodput_virtual_rps", slo.goodput_per_sec, 1);
        m.set(
            "serve.goodput_share",
            slo.served_within_deadline as f64 / slo.requests.max(1) as f64,
            1,
        );
    }
}
