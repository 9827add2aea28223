//! The two sharded-service workloads.
//!
//! * `svc-matrix-saturated` — one matrix shard offered 10 M msg/s in an
//!   open loop, about twice its ceiling: a few huge 1024-entry launches,
//!   nearly all host time in the simulator.
//! * `svc-hash-tenants-faults` — two hash shards on two OS threads, four
//!   Zipf tenants with mixed QoS and bursty arrivals, live resharding
//!   armed, random crashes with checkpoint recovery and supervision, flow
//!   tracing on and Prometheus/Perfetto export after every pass:
//!   thousands of tiny launches, host time spread over admission,
//!   scheduling, recovery, per-launch overhead and obs.

use std::hint::black_box;
use std::time::Instant;

use gpu_msg::{
    tenancy::zipf_shares, ArrivalPattern, FaultPlan, FaultRates, FaultTolerance, Histogram,
    QosClass, RecoveryConfig, ReshardPolicy, Scheduler, ServiceEngine, ServiceMetrics,
    ShardEnginePolicy, ShardedMatchService, ShardedServiceConfig, ShardedServiceReport,
    SupervisorConfig, TenancyConfig, TenantSpec,
};
use simt_sim::GpuGeneration;

use crate::probes;
use crate::report::{median, peak_rss_mib, ratio, secs, Outcome};
use crate::spans::Spans;
use crate::Budget;

const GEN: GpuGeneration = GpuGeneration::PascalGtx1080;

/// Which service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One saturated matrix shard.
    MatrixSaturated,
    /// Two hash shards, tenants, faults and obs export.
    HashTenantsFaults,
}

impl Kind {
    /// The scheduler the workload runs under.
    fn scheduler(self) -> Scheduler {
        match self {
            Kind::MatrixSaturated => Scheduler::GlobalClock,
            Kind::HashTenantsFaults => Scheduler::ThreadPerShard,
        }
    }

    /// Does the engine promise per-stream FIFO commits? The matrix
    /// engine does; the hash engine relaxes ordering.
    fn ordered(self) -> bool {
        self == Kind::MatrixSaturated
    }

    /// Does a pass export Prometheus and Perfetto documents?
    fn exports(self) -> bool {
        matches!(self, Kind::HashTenantsFaults)
    }
}

const HASH_OFFERED: f64 = 16.0e6;
const HASH_DURATION: f64 = 0.030;
const HASH_SHARDS: usize = 2;
const CRASH_RATE: f64 = 200.0;

fn service_config(kind: Kind, seed: u64, scheduler: Scheduler) -> ShardedServiceConfig {
    match kind {
        Kind::MatrixSaturated => ShardedServiceConfig {
            shards: 1,
            // The matrix engine's simulated time does not depend on
            // message contents, so the seed also draws the offered rate
            // (10 M msg/s ± 1%): each seed gives its own arrival
            // schedule rather than the same simulated run.
            arrival_rate: 10.0e6 * (1.0 + 0.01 * (2.0 * crate::unit_draw(seed) - 1.0)),
            duration: 0.002,
            policy: ShardEnginePolicy::Fixed(ServiceEngine::Matrix),
            scheduler,
            seed,
            trace: false,
            ..Default::default()
        },
        Kind::HashTenantsFaults => ShardedServiceConfig {
            shards: HASH_SHARDS,
            arrival_rate: HASH_OFFERED,
            duration: HASH_DURATION,
            queue_capacity: 4096,
            policy: ShardEnginePolicy::Fixed(ServiceEngine::Hash),
            scheduler,
            seed,
            trace: true,
            ..Default::default()
        },
    }
}

/// Four Zipf-shared tenants; classes cycle guaranteed → burstable →
/// best-effort down the popularity ranking, metered classes get 1.5×
/// their fair share as quota, and odd-ranked tenants arrive in bursts.
fn tenants() -> TenancyConfig {
    let specs = zipf_shares(4, 1.0)
        .iter()
        .enumerate()
        .map(|(i, &share)| {
            let class = [
                QosClass::Guaranteed,
                QosClass::Burstable,
                QosClass::BestEffort,
            ][i % 3];
            let metered = class != QosClass::BestEffort;
            TenantSpec {
                streams: 2,
                quota_rate: if metered {
                    share * HASH_OFFERED * 1.5
                } else {
                    0.0
                },
                burst: if metered { 256.0 } else { 0.0 },
                pattern: if i % 2 == 1 {
                    ArrivalPattern::Bursty {
                        period: 2.0e-4,
                        duty: 0.5,
                    }
                } else {
                    ArrivalPattern::Uniform
                },
                ..TenantSpec::new(&format!("tenant{i}"), class, share)
            }
        })
        .collect();
    TenancyConfig {
        reshard: Some(ReshardPolicy::default()),
        ..TenancyConfig::new(specs)
    }
}

fn fault_tolerance(seed: u64) -> FaultTolerance {
    FaultTolerance {
        plan: FaultPlan::random(
            seed ^ 0x5eed_fa17,
            HASH_SHARDS,
            HASH_DURATION,
            &FaultRates {
                crash_rate: CRASH_RATE,
                ..Default::default()
            },
        ),
        recovery: RecoveryConfig::default(),
        supervisor: Some(SupervisorConfig::default()),
    }
}

/// Build the service and its inputs (the measured set-up).
fn build(kind: Kind, seed: u64, scheduler: Scheduler) -> ShardedMatchService {
    let cfg = service_config(kind, seed, scheduler);
    let mut svc = match kind {
        Kind::MatrixSaturated => ShardedMatchService::new(GEN, cfg),
        Kind::HashTenantsFaults => {
            let mut svc = ShardedMatchService::with_tenancy(GEN, cfg, tenants());
            svc.set_fault_tolerance(Some(fault_tolerance(seed)));
            svc
        }
    };
    svc.set_record_completions(true);
    svc
}

/// One pass: a full service run plus, where the workload exports, the
/// Prometheus and Perfetto documents.
struct Pass {
    report: ShardedServiceReport,
    /// Hash of the committed sequences (see [`fingerprint`]).
    fingerprint: u64,
    host_s: f64,
    export_s: f64,
    export_bytes: usize,
}

fn pass(svc: &mut ShardedMatchService, kind: Kind, spans: &mut Spans) -> Pass {
    let t0 = Instant::now();
    let report = spans.span("gpu_msg.ShardedMatchService::run", |_| svc.run());
    let t1 = Instant::now();
    let (export_bytes, t2) = if kind.exports() {
        let bytes = spans.span("obs.export", |spans| {
            let prom = spans.span("obs.to_prometheus", |_| {
                report.metrics.to_prometheus() + &report.scheduler_profile.to_prometheus()
            });
            let trace = spans.span("obs.trace_json", |_| svc.trace_json().unwrap_or_default());
            let wall = spans.span("obs.wall_trace_json", |_| {
                svc.wall_trace_json().unwrap_or_default()
            });
            black_box(prom.len() + trace.len() + wall.len())
        });
        (bytes, Instant::now())
    } else {
        (0, t1)
    };
    Pass {
        report,
        fingerprint: 0,
        host_s: (t2 - t0).as_secs_f64(),
        export_s: (t2 - t1).as_secs_f64(),
        export_bytes,
    }
}

fn merged(m: &ServiceMetrics, pick: fn(&gpu_msg::ShardMetrics) -> &Histogram) -> Histogram {
    let mut h = pick(&m.shards[0]).clone();
    for s in &m.shards[1..] {
        h.merge(pick(s));
    }
    h
}

fn shard_sum(m: &ServiceMetrics, f: fn(&gpu_msg::ShardMetrics) -> u64) -> u64 {
    m.shards.iter().map(f).sum()
}

/// Correctness of one pass: exactly-once commits, per-stream FIFO where
/// the engine promises order, and the service's own accounting.
fn check(kind: Kind, r: &ShardedServiceReport, out: &mut Outcome) {
    let m = &r.metrics;
    let Some(completions) = r.completions.as_ref() else {
        out.violation(1, "completions were not recorded".into());
        return;
    };
    let mut committed = 0u64;
    for (stream, seqs) in completions.iter().enumerate() {
        committed += seqs.len() as u64;
        if kind.ordered() {
            let bad = seqs.windows(2).filter(|w| w[0] >= w[1]).count() as u64;
            if bad > 0 {
                out.violation(
                    bad,
                    format!("stream {stream}: {bad} commits out of FIFO order"),
                );
            }
        } else {
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            let dups = sorted.windows(2).filter(|w| w[0] == w[1]).count() as u64;
            if dups > 0 {
                out.violation(
                    dups,
                    format!("stream {stream}: {dups} seqs committed twice"),
                );
            }
        }
    }
    if committed != m.total_matched {
        out.violation(
            committed.abs_diff(m.total_matched),
            format!(
                "{committed} recorded commits but the service counted {} matches",
                m.total_matched
            ),
        );
    }
    for s in &m.shards {
        if s.admitted > s.arrivals || s.admitted + s.overflow.spilled > s.arrivals {
            out.violation(
                1,
                format!(
                    "shard {}: admitted {} + spilled {} exceed arrivals {}",
                    s.shard, s.admitted, s.overflow.spilled, s.arrivals
                ),
            );
        }
    }
    let arrivals = shard_sum(m, |s| s.arrivals);
    if m.total_matched + m.total_spilled > arrivals {
        out.violation(
            1,
            format!(
                "matched {} + spilled {} exceed arrivals {arrivals}",
                m.total_matched, m.total_spilled
            ),
        );
    }
}

/// FNV-1a hash of every stream's committed sequence, stream by stream.
fn fingerprint(r: &ShardedServiceReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for stream in r.completions.iter().flatten() {
        eat(stream.len() as u64);
        stream.iter().for_each(|&seq| eat(seq));
    }
    h
}

/// Paths of the counters that differ between two metrics snapshots
/// (leaf by leaf; a snapshot with extra leaves differs in each of them).
fn differing_leaves(a: &ServiceMetrics, b: &ServiceMetrics) -> Vec<String> {
    use serde::Serialize;
    let (mut la, mut lb) = (Vec::new(), Vec::new());
    leaves(&a.to_value(), String::new(), &mut la);
    leaves(&b.to_value(), String::new(), &mut lb);
    let mut diff: Vec<String> = la
        .iter()
        .zip(&lb)
        .filter(|(x, y)| x != y)
        .map(|(x, _)| x.0.clone())
        .collect();
    let longer = if la.len() > lb.len() { &la } else { &lb };
    diff.extend(longer[la.len().min(lb.len())..].iter().map(|x| x.0.clone()));
    diff
}

fn leaves(v: &serde::Value, path: String, out: &mut Vec<(String, String)>) {
    match v {
        serde::Value::Array(items) => {
            for (i, x) in items.iter().enumerate() {
                leaves(x, format!("{path}[{i}]"), out);
            }
        }
        serde::Value::Object(pairs) => {
            for (k, x) in pairs {
                leaves(x, format!("{path}.{k}"), out);
            }
        }
        leaf => out.push((path, format!("{leaf:?}"))),
    }
}

/// Run a service workload for `budget` and fill `out`.
///
/// A run measures `budget.variants` instances of the workload, each
/// generated from its own seed derived from `seed`; simulated metrics
/// are merged over all of them and passes rotate through them.
pub fn run(kind: Kind, seed: u64, budget: &Budget, spans: &mut Spans, out: &mut Outcome) {
    let traced = spans.on();
    let seeds: Vec<u64> = (0..budget.variants)
        .map(|i| crate::variant_seed(seed, i))
        .collect();

    // ---- Set-up, several times (each instance built and dropped); the
    // median is `setup_s`. Then the instances the passes use.
    let setup: Vec<f64> = (0..budget.setup_reps)
        .map(|rep| {
            let vseed = seeds[rep % seeds.len()];
            let t0 = Instant::now();
            let svc = spans.span("setup", |_| build(kind, vseed, kind.scheduler()));
            let dt = secs(t0);
            drop(black_box(svc));
            dt
        })
        .collect();
    let mut svcs: Vec<_> = seeds
        .iter()
        .map(|&s| build(kind, s, kind.scheduler()))
        .collect();

    // ---- Reference passes: checked in full, and every later pass of a
    // variant must reproduce its simulated outcome bit for bit.
    let refs: Vec<Pass> = svcs
        .iter_mut()
        .map(|svc| {
            let mut p = spans.span("pass", |spans| pass(svc, kind, spans));
            check(kind, &p.report, out);
            p.fingerprint = fingerprint(&p.report);
            p.report.completions = None;
            p
        })
        .collect();
    let all = || refs.iter().map(|p| &p.report.metrics);
    let arrivals: u64 = all().map(|m| shard_sum(m, |s| s.arrivals)).sum();
    let matched: u64 = all().map(|m| m.total_matched).sum();
    out.attempted = arrivals;

    // ---- Timed passes, round-robin over the variants. In a traced run
    // they alternate with untraced passes so the two can be compared.
    let mut untraced = Vec::new();
    let mut traced_s = Vec::new();
    let mut export_s = Vec::new();
    let mut buckets: Vec<[f64; 4]> = Vec::new();
    let t_start = Instant::now();
    let mut k = 0usize;
    while k < budget.min_passes || secs(t_start) < budget.measure_s {
        // A traced run measures each variant untraced, then traced.
        let (v, trace_this) = if traced {
            ((k / 2) % svcs.len(), k % 2 == 1)
        } else {
            (k % svcs.len(), false)
        };
        spans.set_on(trace_this);
        let p = spans.span("pass", |spans| pass(&mut svcs[v], kind, spans));
        spans.set_on(traced);
        if trace_this {
            traced_s.push(p.host_s);
        } else {
            untraced.push(p.host_s);
        }
        export_s.push(p.export_s);
        let totals = p.report.scheduler_profile.totals();
        buckets.push(std::array::from_fn(|i| totals[i].1 as f64 * 1e-9));
        determinism(k + 1, &refs[v], &p.report, out);
        k += 1;
    }
    let host_s = median(&untraced);
    crate::report::describe_passes(&untraced);
    let per_pass = |total: u64| total as f64 / refs.len() as f64;

    if !traced {
        let mut lat = Histogram::new(1e9);
        let mut sim_s = 0.0;
        for m in all() {
            lat.merge(&merged(m, |s| &s.match_latency));
            sim_s += ratio(m.total_matched as f64, m.sustained_rate);
        }
        out.set("host_s", host_s);
        out.set("msgs_per_host_s", per_pass(matched) / host_s);
        out.set("setup_s", median(&setup));
        out.set("peak_rss_mib", peak_rss_mib());
        out.set(
            "completed_frac",
            ratio(matched.saturating_sub(out.failed) as f64, arrivals as f64),
        );
        out.set("sim_match_rate", ratio(matched as f64, sim_s));
        out.set("sim_latency_p50_us", lat.p50() * 1e6);
        out.set("sim_latency_p99_us", lat.p99() * 1e6);
        return;
    }

    // ---- Per-layer metrics (traced run): counts are means per pass
    // over the variants.
    let sum =
        |f: fn(&gpu_msg::ShardMetrics) -> u64| -> u64 { all().map(|m| shard_sum(m, f)).sum() };
    let mean = |f: fn(&gpu_msg::ShardMetrics) -> u64| per_pass(sum(f));
    let total = |f: fn(&ServiceMetrics) -> u64| per_pass(all().map(f).sum());
    let merged_all = |pick: fn(&gpu_msg::ShardMetrics) -> &Histogram| {
        let mut h = Histogram::new(pick(&refs[0].report.metrics.shards[0]).scale);
        for m in all() {
            h.merge(&merged(m, pick));
        }
        h
    };
    let instructions = mean(|s| s.profile.instructions);
    out.set("simt.instructions", instructions);
    out.set("simt.launches", mean(|s| s.profile.launches));
    out.set("simt.cycles", mean(|s| s.profile.cycles));
    out.set("simt.host_ns_per_instr", ratio(host_s * 1e9, instructions));

    let batch = merged_all(|s| &s.batch_size);
    // Every dispatched entry is screened twice: as a message and as the
    // request that mirrors it.
    out.set(
        "match.prefilter_reject_ratio",
        ratio(sum(|s| s.prefilter_rejections) as f64, 2.0 * batch.sum),
    );
    out.set("match.skipped_launch_ratio", 0.0);
    out.set("match.probe_dedups", mean(|s| s.profile.probe_dedups));
    out.set("match.batch_mean", batch.mean());

    for (i, name) in [
        "sched.compute_s",
        "sched.barrier_wait_s",
        "sched.backpressure_s",
        "sched.supervisor_sync_s",
    ]
    .into_iter()
    .enumerate()
    {
        let per_pass: Vec<f64> = buckets.iter().map(|b| b[i]).collect();
        out.set(name, median(&per_pass));
    }
    let (speedup, mismatch) = spans.span("sched.scheduler_comparison", |spans| {
        scheduler_comparison(kind, &seeds, budget, spans)
    });
    out.set("sched.thread_speedup", speedup);
    out.set("sched.profile_mismatch", mismatch as f64);

    out.set(
        "svc.batches",
        total(|m| m.shards.iter().map(|s| s.batches).sum()),
    );
    out.set(
        "svc.utilisation",
        refs.iter()
            .map(|p| p.report.aggregate.utilisation)
            .sum::<f64>()
            / refs.len() as f64,
    );
    out.set("svc.queue_depth_p99", merged_all(|s| &s.queue_depth).p99());
    out.set("svc.spilled", total(|m| m.total_spilled));
    out.set("svc.shed", total(|m| m.total_shed));
    out.set("svc.migrations", total(|m| m.total_migrations));
    out.set(
        "tenancy.guaranteed_shed",
        total(|m| {
            m.tenants
                .iter()
                .filter(|t| t.class == QosClass::Guaranteed.label())
                .map(|t| t.overflow.shed)
                .sum()
        }),
    );

    out.set("recovery.crashes", total(|m| m.total_crashes));
    out.set("recovery.recoveries", total(|m| m.total_recoveries));
    out.set("recovery.failovers", total(|m| m.total_failovers));
    out.set("recovery.checkpoints", mean(|s| s.checkpoints));
    out.set("recovery.journal_replayed", mean(|s| s.journal_replayed));
    out.set("recovery.replay_duplicates", mean(|s| s.replay_duplicates));
    out.set(
        "recovery.latency_mean_us",
        merged_all(|s| &s.recovery_seconds).mean() * 1e6,
    );

    out.set("obs.export_s", median(&export_s));
    out.set(
        "obs.trace_bytes",
        refs.iter().map(|p| p.export_bytes as f64).sum::<f64>() / refs.len() as f64,
    );
    out.set("obs.trace_dropped", mean(|s| s.trace_dropped));
    out.set(
        "bench.trace_overhead",
        ratio(median(&traced_s), host_s) - 1.0,
    );

    // ---- Layer probes: the matcher and the timing replay alone, on the
    // saturated matrix shard's batch shape.
    if kind == Kind::MatrixSaturated {
        let launches = refs[0].report.metrics.shards[0].profile.launches;
        let probe = spans.span("probe.msg_match::MatchEngine::match_with", |_| {
            probes::match_probe(seeds[0], launches, budget.probe_reps)
        });
        match probe {
            Ok(s) => out.set("match.probe_host_s", s),
            Err(e) => out.violation(1, e),
        }
        let p = &refs[0].report.metrics.shards[0].profile;
        let per_launch = [
            p.instr_alu,
            p.instr_warp_op,
            p.instr_global_mem,
            p.instr_shared_mem,
            p.instr_atomic,
            p.instr_barrier,
        ]
        .map(|c| c / launches.max(1));
        let ns = spans.span("probe.simt_sim::timing::simulate", |_| {
            probes::replay_probe(&per_launch, launches, budget.probe_reps)
        });
        out.set("simt.replay_probe_ns_per_op", ns);
    } else {
        out.set("match.probe_host_s", 0.0);
        out.set("simt.replay_probe_ns_per_op", 0.0);
    }
    crate::zero_layers(out, &["domain.", "fabric."]);
}

/// Every simulated artefact of a later pass must equal the reference
/// pass's: metrics snapshot and committed sequences.
fn determinism(k: usize, want: &Pass, got: &ShardedServiceReport, out: &mut Outcome) {
    let diff = differing_leaves(&want.report.metrics, &got.metrics);
    if !diff.is_empty() {
        out.violation(
            1,
            format!(
                "pass {k}: {} simulated counters differ from the reference pass, e.g. {}",
                diff.len(),
                diff[0]
            ),
        );
    }
    if want.fingerprint != fingerprint(got) {
        out.violation(
            1,
            format!("pass {k}: committed sequences differ from the reference pass"),
        );
    }
}

/// `GlobalClock` host s over `ThreadPerShard` host s on identical
/// configs (medians over alternating passes, one pair per instance), and
/// the number of metrics counters that differ between the two
/// schedulers, summed over the instances compared.
fn scheduler_comparison(
    kind: Kind,
    seeds: &[u64],
    budget: &Budget,
    spans: &mut Spans,
) -> (f64, usize) {
    let (mut g, mut t) = (Vec::new(), Vec::new());
    let mut mismatch = 0;
    for i in 0..budget.comparison_pairs {
        let seed = seeds[i % seeds.len()];
        let mut global = build(kind, seed, Scheduler::GlobalClock);
        let mut threaded = build(kind, seed, Scheduler::ThreadPerShard);
        // Alternate which side runs first.
        let order = if i % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let mut snaps = [None, None];
        for threaded_side in order {
            let (svc, times, name) = if threaded_side {
                (&mut threaded, &mut t, "pass.thread_per_shard")
            } else {
                (&mut global, &mut g, "pass.global_clock")
            };
            let p = spans.span(name, |spans| pass(svc, kind, spans));
            times.push(p.host_s);
            snaps[usize::from(threaded_side)] = Some(p.report.metrics);
        }
        if let [Some(a), Some(b)] = &snaps {
            if i < seeds.len() {
                let diff = differing_leaves(a, b);
                if !diff.is_empty() {
                    eprintln!(
                        "  seed {seed}: {} counters differ between schedulers, e.g. {}",
                        diff.len(),
                        diff.iter().take(6).cloned().collect::<Vec<_>>().join(", ")
                    );
                }
                mismatch += diff.len();
            }
        }
    }
    (median(&g) / median(&t), mismatch)
}
