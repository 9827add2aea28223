//! Layer probes: one layer's public entry point driven alone, on the
//! shape a workload gives it, so its host time can be set against the
//! workload's end-to-end `host_s`.

use std::hint::black_box;
use std::time::Instant;

use msg_match::{EngineChoice, MatchEngine, RecvRequest, WorkloadSpec, MAX_BATCH};
use simt_sim::{trace::CtaTrace, Gpu, GpuGeneration, GridTrace, OpKind, WarpTrace, WARP_SIZE};

use crate::report::median;

/// Host seconds `MatchEngine::match_with` takes for `launches` full
/// 1024 × 1024 matrix batches on a fresh device — the saturated matrix
/// shard's batch shape, drawn from the same traffic pool the service
/// generates for its single shard. Median of `reps` repetitions.
///
/// # Errors
/// Fails if a batch does not match completely (service batches are
/// self-matching).
pub fn match_probe(seed: u64, launches: u64, reps: usize) -> Result<f64, String> {
    let pool = WorkloadSpec {
        len: 4 * MAX_BATCH,
        peers: 64,
        tags: 1 << 12,
        comm: 0,
        seed,
        ..Default::default()
    }
    .generate()
    .msgs;
    let batches: Vec<(Vec<_>, Vec<_>)> = (0..launches as usize)
        .map(|k| {
            let msgs: Vec<_> = (0..MAX_BATCH)
                .map(|i| pool[(k * MAX_BATCH + i) % pool.len()])
                .collect();
            let reqs = msgs
                .iter()
                .map(|m| RecvRequest::exact(m.src, m.tag, m.comm))
                .collect();
            (msgs, reqs)
        })
        .collect();
    let engine = MatchEngine::default();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut gpu = Gpu::new(GpuGeneration::PascalGtx1080);
        let t0 = Instant::now();
        for (msgs, reqs) in &batches {
            gpu.reset_memory();
            let r = engine.match_with(&mut gpu, EngineChoice::Matrix, msgs, reqs)?;
            if r.matches as usize != msgs.len() {
                return Err(format!(
                    "match probe: {} of {} self-matching entries matched",
                    r.matches,
                    msgs.len()
                ));
            }
            black_box(r);
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// A grid trace with the matrix kernel's full-batch launch geometry (one
/// CTA of 32 warps, 1024 threads) whose instruction mix per launch is
/// `per_launch` (indexed like `simt_sim::OpClass`). Each warp repeats the
/// scan loop's pattern — ALU bookkeeping, a warp op gated on the last
/// global load, a shared store — with the other classes spread evenly.
fn matrix_grid(per_launch: &[u64; 6]) -> GridTrace {
    let warps = 32usize;
    let per_warp: Vec<u64> = per_launch.iter().map(|&c| c / warps as u64).collect();
    // Non-ALU ops, in class order; ALU instructions ride in between.
    let kinds = [
        OpKind::Shfl,
        OpKind::LdGlobal { transactions: 1 },
        OpKind::StShared { replays: 1 },
        OpKind::AtomShared { replays: 1 },
    ];
    let counts = [per_warp[1], per_warp[2], per_warp[3], per_warp[4]];
    let non_alu: u64 = counts.iter().sum::<u64>().max(1);
    let alu_per_op = (per_warp[0] / non_alu).max(1) as u32;
    let mut warp = WarpTrace::default();
    let mut emitted = [0u64; 4];
    let mut last_load = None;
    for step in 0..non_alu {
        warp.push(OpKind::IAlu { n: alu_per_op });
        // Emit the class furthest behind its share at this step.
        let (class, _) = counts
            .iter()
            .enumerate()
            .filter(|(i, &c)| emitted[*i] < c)
            .map(|(i, &c)| (i, emitted[i] as f64 / c as f64))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((0, 0.0));
        emitted[class] += 1;
        let tok = match kinds[class] {
            OpKind::Shfl if step % 2 == 1 => warp.push_dep(OpKind::Vote, last_load),
            kind => warp.push(kind),
        };
        if class == 1 {
            last_load = Some(tok);
        }
    }
    // Barriers must match across warps; spread them at the end.
    for _ in 0..per_warp[5] {
        warp.push(OpKind::Bar);
    }
    GridTrace {
        ctas: vec![CtaTrace {
            warps: vec![warp; warps],
            shared_bytes: (2 * WARP_SIZE * WARP_SIZE * 4) as u32,
        }],
        threads_per_cta: (warps * WARP_SIZE) as u32,
        registers_per_thread: 32,
    }
}

/// Host ns per warp-op record that `simt_sim::timing::simulate` spends
/// replaying [`matrix_grid`] `launches` times on one SM. Median of
/// `reps` repetitions.
pub fn replay_probe(per_launch: &[u64; 6], launches: u64, reps: usize) -> f64 {
    let grid = matrix_grid(per_launch);
    let ops: usize = grid.ctas[0].warps.iter().map(|w| w.ops.len()).sum();
    let cfg = GpuGeneration::PascalGtx1080.config();
    let mut per_op = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..launches.max(1) {
            black_box(simt_sim::timing::simulate(black_box(&grid), &cfg, 1));
        }
        let ns = t0.elapsed().as_nanos() as f64;
        per_op.push(ns / (launches.max(1) as f64 * ops as f64));
    }
    median(&per_op)
}
