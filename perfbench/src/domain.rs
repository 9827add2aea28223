//! The `domain-lossy-unexpected` workload: a full-MPI matrix-matching
//! `Domain` of 8 ranks over a lossy simulated fabric, driven closed-loop
//! in rounds with senders running ahead of receivers, so most of each
//! endpoint's queue is unexpected traffic the pre-filter screens out.
//!
//! Every round each rank sends two messages to each peer. The first is
//! received with an exact `(src, tag)` receive, the second with
//! `ANY_SOURCE` on a tag of its own — a wildcard never shares a tag with
//! exact receives, since MPI ordering could then legitimately leave an
//! exact receive without a message.

use std::collections::HashSet;
use std::time::Instant;

use bytes::Bytes;
use fabric::{DeliveryOrder, Fabric, FabricConfig, FaultConfig};
use gpu_msg::{Domain, DomainConfig, MatcherKind, TransportConfig};
use msg_match::{Envelope, RecvRequest, RelaxationConfig, SrcSpec};
use simt_sim::GpuGeneration;

use crate::report::{median, peak_rss_mib, ratio, secs, Outcome};
use crate::spans::Spans;
use crate::Budget;

const RANKS: u32 = 8;
const ROUNDS: u32 = 300;
/// Rounds the senders run ahead of the receivers.
const LEAD: u32 = 4;
const HEADER: usize = 16;
/// Progress calls allowed per rank-round, on average, before the run
/// counts as stranded.
const SWEEP_BOUND: u32 = 10_000;

fn fabric_config(seed: u64) -> FabricConfig {
    FabricConfig {
        eager_threshold: 256,
        seed,
        fault: FaultConfig {
            drop_prob: 0.01,
            duplicate_prob: 0.005,
            reorder_prob: 0.30,
            reorder_skew_ns: 2_000,
            corrupt_prob: 0.0,
        },
        ..Default::default()
    }
}

/// Simulated ns one `Domain::progress` call advances the fabric clock:
/// the fabric transport's progress quantum for this configuration.
fn quantum_ns(cfg: &FabricConfig) -> u64 {
    cfg.link_latency_ns
        .max(cfg.retransmit_timeout_ns / 2)
        .max(1)
}

fn exact_tag(round: u32) -> u32 {
    2 * round
}

fn wildcard_tag(round: u32) -> u32 {
    2 * round + 1
}

/// The generated inputs: one payload per `(round, src, dst, kind)`.
struct Schedule {
    seed: u64,
    payloads: Vec<Bytes>,
}

impl Schedule {
    fn index(round: u32, src: u32, dst: u32, kind: u32) -> usize {
        (((round * RANKS + src) * RANKS + dst) * 2 + kind) as usize
    }

    /// Payloads of 16–640 bytes (straddling the 256-byte eager threshold
    /// and the MTU) whose header names `(src, dst, round, kind)` and
    /// whose body is a pure function of the header and the seed.
    fn generate(seed: u64) -> Self {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            crate::mix(state)
        };
        let n = Self::index(ROUNDS, 0, 0, 0);
        let mut payloads = Vec::with_capacity(n);
        for round in 0..ROUNDS {
            for src in 0..RANKS {
                for dst in 0..RANKS {
                    for kind in 0..2 {
                        let len = HEADER + (next() % 625) as usize;
                        payloads.push(Bytes::from(body(src, dst, round, kind, len)));
                    }
                }
            }
        }
        Schedule { seed, payloads }
    }

    fn payload(&self, round: u32, src: u32, dst: u32, kind: u32) -> &Bytes {
        &self.payloads[Self::index(round, src, dst, kind)]
    }
}

fn body(src: u32, dst: u32, round: u32, kind: u32, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    for w in [src, dst, round, kind] {
        v.extend_from_slice(&w.to_le_bytes());
    }
    let fill = (src * 31 + dst * 7 + round * 3 + kind) as u8;
    v.extend((HEADER..len).map(|i| fill.wrapping_add(i as u8)));
    v
}

fn header(p: &[u8]) -> Option<[u32; 4]> {
    (p.len() >= HEADER).then(|| {
        std::array::from_fn(|i| u32::from_le_bytes(p[4 * i..4 * i + 4].try_into().expect("4")))
    })
}

/// One posted receive, in per-rank post (= handle) order.
#[derive(Clone, Copy)]
struct Posted {
    round: u32,
    request: RecvRequest,
}

/// What a pass observed, for checking after the timed region.
struct PassLog {
    /// Per rank, in post order: the receive, and every completion it got
    /// with its simulated completion instant in ns.
    posted: Vec<Vec<Posted>>,
    completions: Vec<Vec<Vec<(Bytes, Envelope, f64)>>>,
    /// Progress-call count when each `(round, src)` batch was sent.
    sent_at: Vec<u64>,
    progress_calls: u64,
    stranded: Option<String>,
    domain: Domain,
}

fn build(seed: u64) -> Domain {
    let mut cfg = DomainConfig::new(
        RANKS,
        GpuGeneration::PascalGtx1080,
        MatcherKind::Matrix,
        RelaxationConfig::FULL_MPI,
    );
    cfg.transport = TransportConfig::Fabric(fabric_config(seed));
    Domain::with_config(cfg)
}

/// Host time inside each `Domain` entry point, measured call by call in
/// traced passes.
#[derive(Default, Clone, Copy)]
struct CallTimes {
    send_s: f64,
    post_s: f64,
    progress_s: f64,
    /// Also record every call as a span (one pass per run is enough: a
    /// pass makes thousands of calls).
    spans: bool,
}

/// One rank's place in its own round loop.
#[derive(Clone, Copy)]
struct RankState {
    round: u32,
    /// Receives of `round` not yet completed.
    open: usize,
    /// Device seconds the rank's kernels had used after its last
    /// progress call.
    kernel_s: f64,
}

/// Drive every rank through all rounds. The caller times the whole call.
///
/// Each rank runs its own round loop: entering round `r` it sends its
/// round `r + LEAD` messages, posts its round `r` receives, and then
/// progresses until they complete. There is no barrier between ranks; a
/// seeded scheduler picks which unfinished rank makes the next
/// `Domain::progress` call, as an OS would interleave rank processes.
///
/// Simulated time is the fabric clock, which each `Domain::progress`
/// call advances by one quantum, plus — for a completion — the device
/// time of the matching kernel that call ran.
fn drive(
    domain: Domain,
    sched: &Schedule,
    quantum: u64,
    spans: &mut Spans,
    calls: &mut CallTimes,
) -> PassLog {
    let timed = spans.on();
    let per_rank = (ROUNDS * (RANKS - 1) * 2) as usize;
    let mut log = PassLog {
        posted: vec![Vec::with_capacity(per_rank); RANKS as usize],
        completions: vec![vec![Vec::new(); per_rank]; RANKS as usize],
        sent_at: vec![0; (ROUNDS * RANKS) as usize],
        progress_calls: 0,
        stranded: None,
        domain,
    };
    let mut rng = sched.seed ^ 0xd1b5_4a32_d192_ed03;
    let mut next_rank = |live: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % live as u64) as usize
    };
    let mut ranks = vec![
        RankState {
            round: 0,
            open: 0,
            kernel_s: 0.0,
        };
        RANKS as usize
    ];
    for src in 0..RANKS {
        for round in 0..LEAD.min(ROUNDS) {
            send_round(&log.domain, sched, src, round, spans, calls);
        }
        if let Err(e) = enter_round(&mut log, sched, src, &mut ranks[src as usize], spans, calls) {
            log.stranded = Some(e);
            return log;
        }
    }
    let mut live: Vec<u32> = (0..RANKS).collect();
    let bound = SWEEP_BOUND as u64 * (ROUNDS * RANKS) as u64;
    while !live.is_empty() {
        let pick = next_rank(live.len());
        let rank = live[pick];
        let st = &mut ranks[rank as usize];
        let d = &log.domain;
        let t0 = timed.then(Instant::now);
        let r = d.progress(rank);
        if let Some(t0) = t0 {
            let t1 = Instant::now();
            calls.progress_s += (t1 - t0).as_secs_f64();
            if calls.spans {
                spans.record("gpu_msg.Domain::progress", t0, t1);
            }
        }
        log.progress_calls += 1;
        if let Err(e) = r {
            log.stranded = Some(format!(
                "rank {rank} round {}: progress failed: {e}",
                st.round
            ));
            return log;
        }
        let ks = d.stats(rank).kernel_seconds;
        let at_ns = (log.progress_calls * quantum) as f64 + (ks - st.kernel_s) * 1e9;
        st.kernel_s = ks;
        for c in d.take_completions(rank) {
            match log.completions[rank as usize].get_mut(c.handle.0 as usize) {
                Some(v) => v.push((c.message.payload, c.message.envelope, at_ns)),
                None => {
                    log.stranded = Some(format!(
                        "rank {rank}: unknown receive handle {:?}",
                        c.handle
                    ));
                    return log;
                }
            }
            st.open = st.open.saturating_sub(1);
        }
        if st.open == 0 {
            st.round += 1;
            if st.round == ROUNDS {
                live.swap_remove(pick);
            } else if let Err(e) = enter_round(
                &mut log,
                sched,
                rank,
                &mut ranks[rank as usize],
                spans,
                calls,
            ) {
                log.stranded = Some(e);
                return log;
            }
        }
        if log.progress_calls > bound {
            log.stranded = Some(format!(
                "{} ranks still open after {bound} progress calls",
                live.len()
            ));
            return log;
        }
    }
    log
}

/// `src` sends its `round` messages: an exact-tag and a wildcard-tag
/// message to every peer.
fn send_round(
    d: &Domain,
    sched: &Schedule,
    src: u32,
    round: u32,
    spans: &mut Spans,
    calls: &mut CallTimes,
) {
    let t0 = spans.on().then(Instant::now);
    for dst in (0..RANKS).filter(|&d| d != src) {
        d.send(
            src,
            dst,
            exact_tag(round),
            0,
            sched.payload(round, src, dst, 0).clone(),
        );
        d.send(
            src,
            dst,
            wildcard_tag(round),
            0,
            sched.payload(round, src, dst, 1).clone(),
        );
    }
    if let Some(t0) = t0 {
        let t1 = Instant::now();
        calls.send_s += (t1 - t0).as_secs_f64();
        if calls.spans {
            spans.record("gpu_msg.Domain::send", t0, t1);
        }
    }
}

/// `rank` enters `st.round`: sends its round `st.round + LEAD` messages
/// and posts its round `st.round` receives.
fn enter_round(
    log: &mut PassLog,
    sched: &Schedule,
    rank: u32,
    st: &mut RankState,
    spans: &mut Spans,
    calls: &mut CallTimes,
) -> Result<(), String> {
    let round = st.round;
    if round + LEAD < ROUNDS {
        log.sent_at[((round + LEAD) * RANKS + rank) as usize] = log.progress_calls;
        send_round(&log.domain, sched, rank, round + LEAD, spans, calls);
    }
    let t0 = spans.on().then(Instant::now);
    let exact = (0..RANKS)
        .filter(|&s| s != rank)
        .map(|src| RecvRequest::exact(src, exact_tag(round), 0));
    let wild = (1..RANKS).map(|_| RecvRequest::any_source(wildcard_tag(round), 0));
    for request in exact.chain(wild) {
        log.domain
            .post_recv(rank, request)
            .map_err(|e| format!("rank {rank} round {round}: post_recv refused: {e}"))?;
        log.posted[rank as usize].push(Posted { round, request });
    }
    if let Some(t0) = t0 {
        let t1 = Instant::now();
        calls.post_s += (t1 - t0).as_secs_f64();
        if calls.spans {
            spans.record("gpu_msg.Domain::post_recv", t0, t1);
        }
    }
    st.open = (2 * (RANKS - 1)) as usize;
    Ok(())
}

/// Check every posted receive completed exactly once with the
/// `(src, tag, length)` it names and the bytes that were sent, that no
/// message was delivered twice, and that each pair's messages matched
/// in send order. Returns the send → completion latencies in simulated
/// ns.
fn check(sched: &Schedule, log: &PassLog, quantum: u64, out: &mut Outcome) -> Vec<f64> {
    if let Some(e) = &log.stranded {
        out.violation(1, e.clone());
    }
    let mut latencies = Vec::new();
    let mut seen = HashSet::new();
    for dst in 0..RANKS {
        // Per source: send index of the last message matched on this
        // pair, in receive post order.
        let mut last_seq: Vec<Option<u32>> = vec![None; RANKS as usize];
        for (h, p) in log.posted[dst as usize].iter().enumerate() {
            let got = &log.completions[dst as usize][h];
            if got.len() != 1 {
                out.violation(
                    1,
                    format!("rank {dst} receive {h}: {} completions", got.len()),
                );
                continue;
            }
            let (payload, env, at) = &got[0];
            let Some([src, to, round, kind]) = header(payload) else {
                out.violation(1, format!("rank {dst} receive {h}: truncated payload"));
                continue;
            };
            let named_src = match p.request.src {
                SrcSpec::Rank(s) => Some(s),
                SrcSpec::Any => None,
            };
            let want_tag = if named_src.is_some() {
                exact_tag(p.round)
            } else {
                wildcard_tag(p.round)
            };
            let sent = (src < RANKS && round < ROUNDS && kind < 2)
                .then(|| sched.payload(round, src, to, kind));
            let ok = to == dst
                && env.src == src
                && env.tag == want_tag
                && named_src.is_none_or(|s| s == src)
                && round == p.round
                && kind == u32::from(named_src.is_none())
                && sent.is_some_and(|b| b[..] == payload[..]);
            if !ok {
                out.violation(
                    1,
                    format!(
                        "rank {dst} receive {h} ({:?}) got src {src} round {round} kind {kind} \
                         tag {} len {}",
                        p.request,
                        env.tag,
                        payload.len()
                    ),
                );
                continue;
            }
            if !seen.insert((src, dst, round, kind)) {
                out.violation(
                    1,
                    format!("message {src}->{dst} round {round} kind {kind} delivered twice"),
                );
            }
            let seq = 2 * round + kind;
            if last_seq[src as usize].is_some_and(|s| s >= seq) {
                out.violation(
                    1,
                    format!("pair {src}->{dst}: message {seq} matched out of order"),
                );
            }
            last_seq[src as usize] = Some(seq);
            let sent_ns = (log.sent_at[(round * RANKS + src) as usize] * quantum) as f64;
            latencies.push(at - sent_ns);
        }
    }
    latencies
}

/// Per-pass simulated outcome that every pass must reproduce.
fn signature(log: &PassLog) -> Vec<u64> {
    let mut sig = vec![log.progress_calls];
    for rank in 0..RANKS {
        let s = log.domain.stats(rank);
        sig.extend([
            s.kernel_cycles,
            s.matches,
            s.launches,
            s.umq_high_water as u64,
            s.prefilter_rejections,
            s.prefilter_probes,
            s.prefilter_skipped_launches,
            s.probe_dedups,
        ]);
    }
    if let Some(f) = log.domain.fabric_stats() {
        sig.extend([
            f.packets_sent,
            f.retransmits,
            f.wire_bytes,
            f.credit_stall_ns,
        ]);
    }
    sig
}

/// A checked reference pass, reduced to what the metrics need.
struct Reference {
    sig: Vec<u64>,
    posted: u64,
    progress_calls: u64,
    stats: Vec<gpu_msg::EndpointStats>,
    fabric: fabric::FabricStats,
    /// Payload bytes that crossed the wire (local sends excluded).
    wire_payload: u64,
    /// Send → completion latency, simulated seconds.
    latency: gpu_msg::Histogram,
}

/// Run the domain workload for `budget` and fill `out`.
///
/// A run measures `budget.variants` instances of the workload, each
/// generated from its own seed derived from `seed`; simulated metrics
/// are merged over all of them and passes rotate through them.
pub fn run(seed: u64, budget: &Budget, spans: &mut Spans, out: &mut Outcome) {
    let traced = spans.on();
    let seeds: Vec<u64> = (0..budget.variants)
        .map(|i| crate::variant_seed(seed, i))
        .collect();
    let quantum = quantum_ns(&fabric_config(seed));

    // ---- Set-up, several times (a schedule and a domain, built and
    // dropped); the median is `setup_s`. Then the schedules the passes
    // use.
    let setup: Vec<f64> = (0..budget.setup_reps)
        .map(|rep| {
            let vseed = seeds[rep % seeds.len()];
            let t0 = Instant::now();
            let built = spans.span("setup", |_| (Schedule::generate(vseed), build(vseed)));
            let dt = secs(t0);
            drop(std::hint::black_box(built));
            dt
        })
        .collect();
    let scheds: Vec<Schedule> = seeds.iter().map(|&s| Schedule::generate(s)).collect();

    // ---- Reference passes, checked in full.
    let mut refs = Vec::with_capacity(seeds.len());
    for (&vseed, sched) in seeds.iter().zip(&scheds) {
        let mut calls = CallTimes::default();
        let domain = build(vseed);
        let log = spans.span("pass", |spans| {
            drive(domain, sched, quantum, spans, &mut calls)
        });
        let mut latency = gpu_msg::Histogram::new(1e9);
        for ns in check(sched, &log, quantum, out) {
            latency.record(ns * 1e-9);
        }
        let wire_payload = (0..ROUNDS)
            .flat_map(|round| (0..RANKS).map(move |src| (round, src)))
            .flat_map(|(round, src)| {
                (0..RANKS)
                    .filter(move |&d| d != src)
                    .map(move |dst| (round, src, dst))
            })
            .map(|(round, src, dst)| {
                (0..2)
                    .map(|k| sched.payload(round, src, dst, k).len() as u64)
                    .sum::<u64>()
            })
            .sum();
        refs.push(Reference {
            sig: signature(&log),
            posted: log.posted.iter().map(|p| p.len() as u64).sum(),
            progress_calls: log.progress_calls,
            stats: (0..RANKS).map(|r| log.domain.stats(r)).collect(),
            fabric: log.domain.fabric_stats().unwrap_or_default(),
            wire_payload,
            latency,
        });
    }
    let posted: u64 = refs.iter().map(|r| r.posted).sum();
    out.attempted = posted;

    // ---- Timed passes, round-robin over the variants; each builds a
    // fresh domain outside the timer.
    let mut untraced = Vec::new();
    let mut traced_s = Vec::new();
    let mut per_call: Vec<CallTimes> = Vec::new();
    let t_start = Instant::now();
    let mut k = 0usize;
    while k < budget.min_passes || secs(t_start) < budget.measure_s {
        // A traced run measures each variant untraced, then traced.
        let (v, trace_this) = if traced {
            ((k / 2) % seeds.len(), k % 2 == 1)
        } else {
            (k % seeds.len(), false)
        };
        let domain = build(seeds[v]);
        spans.set_on(trace_this);
        let mut calls = CallTimes {
            spans: per_call.is_empty(),
            ..CallTimes::default()
        };
        let t0 = Instant::now();
        let log = spans.span("pass", |spans| {
            drive(domain, &scheds[v], quantum, spans, &mut calls)
        });
        let dt = secs(t0);
        spans.set_on(traced);
        if trace_this {
            traced_s.push(dt);
            per_call.push(calls);
        } else {
            untraced.push(dt);
        }
        if signature(&log) != refs[v].sig || log.stranded.is_some() {
            out.violation(
                1,
                format!(
                    "pass {}: simulated outcome differs from the reference pass",
                    k + 1
                ),
            );
        }
        k += 1;
    }
    let host_s = median(&untraced);
    crate::report::describe_passes(&untraced);
    let completed = posted.saturating_sub(out.failed) as f64;
    let calls_total: u64 = refs.iter().map(|r| r.progress_calls).sum();
    let sim_s = calls_total as f64 * quantum as f64 * 1e-9;

    if !traced {
        let mut lat = gpu_msg::Histogram::new(1e9);
        for r in &refs {
            lat.merge(&r.latency);
        }
        out.set("host_s", host_s);
        out.set("msgs_per_host_s", completed / refs.len() as f64 / host_s);
        out.set("setup_s", median(&setup));
        out.set("peak_rss_mib", peak_rss_mib());
        out.set("completed_frac", ratio(completed, posted as f64));
        out.set("sim_match_rate", ratio(completed, sim_s));
        out.set("sim_latency_p50_us", lat.p50() * 1e6);
        out.set("sim_latency_p99_us", lat.p99() * 1e6);
        return;
    }

    // ---- Per-layer metrics (traced run): counts are means per pass
    // over the variants.
    let n = refs.len() as f64;
    let sum = |f: fn(&gpu_msg::EndpointStats) -> u64| {
        refs.iter().flat_map(|r| &r.stats).map(f).sum::<u64>() as f64
    };
    let launches = sum(|s| s.launches);
    let skipped = sum(|s| s.prefilter_skipped_launches);
    out.set("simt.instructions", 0.0);
    out.set("simt.launches", launches / n);
    out.set("simt.cycles", sum(|s| s.kernel_cycles) / n);
    out.set("simt.host_ns_per_instr", 0.0);
    out.set(
        "match.prefilter_reject_ratio",
        ratio(sum(|s| s.prefilter_rejections), sum(|s| s.prefilter_probes)),
    );
    out.set(
        "match.skipped_launch_ratio",
        ratio(skipped, launches + skipped),
    );
    out.set("match.probe_dedups", sum(|s| s.probe_dedups) / n);
    out.set("match.batch_mean", ratio(sum(|s| s.matches), launches));

    let med = |f: fn(&CallTimes) -> f64| median(&per_call.iter().map(f).collect::<Vec<_>>());
    out.set("domain.send_s", med(|c| c.send_s));
    out.set("domain.post_s", med(|c| c.post_s));
    out.set("domain.progress_s", med(|c| c.progress_s));
    out.set("domain.progress_calls", calls_total as f64 / n);
    out.set(
        "domain.umq_high_water",
        refs.iter()
            .flat_map(|r| &r.stats)
            .map(|s| s.umq_high_water)
            .max()
            .unwrap_or(0) as f64,
    );

    let fsum =
        |f: fn(&fabric::FabricStats) -> u64| refs.iter().map(|r| f(&r.fabric)).sum::<u64>() as f64;
    out.set("fabric.packets", fsum(|f| f.packets_sent) / n);
    out.set(
        "fabric.retransmit_ratio",
        ratio(fsum(|f| f.retransmits), fsum(|f| f.data_packets)),
    );
    out.set("fabric.credit_stall_ns", fsum(|f| f.credit_stall_ns) / n);
    out.set(
        "fabric.wire_overhead",
        ratio(
            fsum(|f| f.wire_bytes),
            refs.iter().map(|r| r.wire_payload).sum::<u64>() as f64,
        ),
    );
    out.set("fabric.sim_finish_us", sim_s / n * 1e6);
    let probe = spans.span("probe.fabric::Fabric", |_| {
        fabric_probe(seeds[0], &scheds[0], budget.probe_reps)
    });
    match probe {
        Ok(s) => out.set("fabric.probe_host_s", s),
        Err(e) => out.violation(1, e),
    }
    out.set(
        "bench.trace_overhead",
        ratio(median(&traced_s), host_s) - 1.0,
    );
    crate::zero_layers(
        out,
        &[
            "simt.replay",
            "match.probe_host",
            "sched.",
            "svc.",
            "tenancy.",
            "recovery.",
            "obs.",
        ],
    );
}

/// Host seconds a bare `fabric::Fabric` takes to carry the workload's
/// send schedule round by round: the same lead, the same per-pair FIFO
/// wire and fault model, advanced one progress quantum per rank sweep
/// step until the round's messages are delivered. Median of `reps`.
///
/// # Errors
/// Fails if a round is not delivered within the sweep bound or a packet
/// exhausts its retransmissions.
fn fabric_probe(seed: u64, sched: &Schedule, reps: usize) -> Result<f64, String> {
    let cfg = FabricConfig {
        order: DeliveryOrder::PerPairFifo,
        ..fabric_config(seed)
    };
    let quantum = quantum_ns(&cfg);
    let per_round = (RANKS * (RANKS - 1) * 2) as usize;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut net = Fabric::new(RANKS, cfg);
        let send = |net: &mut Fabric, round: u32| {
            for src in 0..RANKS {
                for dst in (0..RANKS).filter(|&d| d != src) {
                    for kind in 0..2 {
                        let tag = if kind == 0 {
                            exact_tag(round)
                        } else {
                            wildcard_tag(round)
                        };
                        net.send(
                            src,
                            dst,
                            Envelope::new(src, tag, 0),
                            sched.payload(round, src, dst, kind).clone(),
                        );
                    }
                }
            }
        };
        let t0 = Instant::now();
        for round in 0..LEAD.min(ROUNDS) {
            send(&mut net, round);
        }
        let mut delivered = 0usize;
        for round in 0..ROUNDS {
            if round + LEAD < ROUNDS {
                send(&mut net, round + LEAD);
            }
            let target = (round as usize + 1) * per_round;
            let mut steps = 0u32;
            while delivered < target {
                net.advance(quantum);
                for dst in 0..RANKS {
                    delivered += net.take_deliveries(dst).len();
                }
                steps += 1;
                if steps > SWEEP_BOUND * RANKS {
                    return Err(format!("fabric probe: round {round} not delivered"));
                }
            }
            if !net.errors().is_empty() {
                return Err(format!("fabric probe: {}", net.errors().join("; ")));
            }
        }
        times.push(secs(t0));
    }
    Ok(median(&times))
}
