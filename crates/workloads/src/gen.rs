//! Synthetic program generation from benchmark profiles.
//!
//! A generated workload is a real program over a real memory image: the
//! pointer-chase regions are initialized with Sattolo-cycle permutations,
//! so every "dependent cache miss" in the simulation is a genuine
//! data-dependent load whose address came out of a previous load — exactly
//! the structure the EMC accelerates. Streams read (and for lbm-like
//! profiles write) long sequential regions; random segments compute
//! xorshift addresses in registers, producing prefetch-hostile but
//! *independent* misses (the kind the EMC does **not** target).

use crate::profiles::{Benchmark, Profile};
use emc_types::program::{Program, StaticUop};
use emc_types::rng::{seeded_rng, substream, SmallRng};
use emc_types::{Addr, BranchCond, MemoryImage, Reg, UopKind, PAGE_BYTES};

/// Base of the spill/fill scratch region (L1-resident).
pub const SPILL_BASE: u64 = 0x0010_0000;
/// Base of the pointer-chase node region.
pub const CHASE_BASE: u64 = 0x1000_0000;
/// Base of the payload region (targets of dependent loads).
pub const PAYLOAD_BASE: u64 = 0x4000_0000;
/// Base of the streaming-read region.
pub const STREAM_BASE: u64 = 0x8000_0000;
/// Offset from the read stream to the write stream (lbm-style kernels).
pub const STREAM_WB_OFFSET: u64 = 0x2000_0000;
/// Base of the random-access region.
pub const RANDOM_BASE: u64 = 0x1_0000_0000;

// Register plan (see module docs of `emc_types::uop` for the 16-reg ISA):
// r0/r1 chase ptrs | r2/r3 address scratch | r4-r7 accumulators
// r8 spill base | r9 rng state | r10 random mask | r11 random base
// r12 branch scratch | r13 stream ptr | r14 fp accumulator | r15 loop ctr
const R_CHASE: [Reg; 2] = [Reg(0), Reg(1)];
const R_T0: Reg = Reg(2);
const R_T1: Reg = Reg(3);
const R_ACC: [Reg; 4] = [Reg(4), Reg(5), Reg(6), Reg(7)];
const R_SPILL: Reg = Reg(8);
const R_RNG: Reg = Reg(9);
const R_MASK: Reg = Reg(10);
const R_RBASE: Reg = Reg(11);
const R_BR: Reg = Reg(12);
const R_STREAM: Reg = Reg(13);
const R_FP: Reg = Reg(14);
const R_LOOP: Reg = Reg(15);

/// A generated workload: the program plus its initialized memory image.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The benchmark this models.
    pub bench: Benchmark,
    /// The static program (one big loop).
    pub program: Program,
    /// The initialized functional memory.
    pub memory: MemoryImage,
    /// Number of uops in one loop iteration (diagnostics/calibration).
    pub body_uops: usize,
}

/// Build the synthetic workload for `bench`.
///
/// `seed` decorrelates multiple copies of the same benchmark (homogeneous
/// mixes); `iterations` bounds the loop so functional reference runs
/// terminate (timing runs usually stop on a retired-uop budget first).
///
/// # Example
///
/// ```
/// use emc_workloads::{build, Benchmark};
///
/// let w = build(Benchmark::Mcf, 1, 10_000);
/// assert!(w.program.validate().is_ok());
/// assert!(w.memory.resident_pages() > 0, "chase pointers initialized");
/// ```
pub fn build(bench: Benchmark, seed: u64, iterations: u64) -> Workload {
    let p = bench.profile();
    let mut rng = seeded_rng(substream(seed, bench as u64 + 1));
    let mut memory = MemoryImage::new();
    init_chase_regions(&p, &mut memory, &mut rng);

    let mut e = Emitter {
        uops: Vec::new(),
        spill_slot: 0,
        acc: 0,
        chase_idx: 0,
    };
    // --- preamble: architectural constants ---
    e.push(StaticUop::mov_imm(R_LOOP, iterations.max(1)));
    // Independent chase walkers start at opposite phases of the Sattolo
    // cycle (real pointer codes sustain memory-level parallelism through
    // several concurrent traversals).
    e.push(StaticUop::mov_imm(R_CHASE[0], CHASE_BASE));
    e.push(StaticUop::mov_imm(
        R_CHASE[1],
        CHASE_BASE + (p.chase_lines / 2) * 64,
    ));
    e.push(StaticUop::mov_imm(R_SPILL, SPILL_BASE));
    e.push(StaticUop::mov_imm(R_RNG, rng.next_u64() | 1));
    e.push(StaticUop::mov_imm(R_MASK, (p.random_span - 1) & !7));
    e.push(StaticUop::mov_imm(R_RBASE, RANDOM_BASE));
    e.push(StaticUop::mov_imm(R_STREAM, STREAM_BASE));
    let loop_start = e.uops.len() as u32;

    // --- loop body: shuffled segments with compute spread between ---
    #[derive(Clone, Copy)]
    enum Seg {
        Chase,
        Stream,
        Random,
        Spill,
        Branch,
    }
    let mut segs = Vec::new();
    segs.extend(std::iter::repeat_n(Seg::Chase, p.chase_segments as usize));
    segs.extend(std::iter::repeat_n(Seg::Stream, p.stream_segments as usize));
    segs.extend(std::iter::repeat_n(Seg::Random, p.random_segments as usize));
    segs.extend(std::iter::repeat_n(Seg::Spill, p.spill_segments as usize));
    segs.extend(std::iter::repeat_n(Seg::Branch, p.noisy_branches as usize));
    rng.shuffle(&mut segs);

    let gaps = segs.len() + 1;
    let compute_per_gap = p.compute_ops as usize / gaps;
    let fp_per_gap = p.fp_ops as usize / gaps;
    e.emit_compute(compute_per_gap + p.compute_ops as usize % gaps, fp_per_gap);
    for seg in segs {
        match seg {
            Seg::Chase => e.emit_chase(&p),
            Seg::Stream => e.emit_stream(&p),
            Seg::Random => e.emit_random(),
            Seg::Spill => e.emit_spill(),
            Seg::Branch => e.emit_branch(),
        }
        e.emit_compute(compute_per_gap, fp_per_gap);
    }

    // --- loop control ---
    e.push(StaticUop::alu(UopKind::IntSub, R_LOOP, R_LOOP, None, 1));
    e.push(StaticUop::branch(
        BranchCond::NotZero,
        Some(R_LOOP),
        loop_start,
    ));

    let body_uops = e.uops.len() - loop_start as usize;
    let program = Program::new(e.uops, 0x1_0000 * (bench as u64 + 1));
    debug_assert!(program.validate().is_ok());
    Workload {
        bench,
        program,
        memory,
        body_uops,
    }
}

/// Build with the default iteration cap ([`crate::DEFAULT_ITERATIONS`]).
pub fn build_default(bench: Benchmark, seed: u64) -> Workload {
    build(bench, seed, crate::DEFAULT_ITERATIONS)
}

fn init_chase_regions(p: &Profile, memory: &mut MemoryImage, rng: &mut SmallRng) {
    if p.chase_lines == 0 || p.chase_segments == 0 {
        return;
    }
    // Sattolo's algorithm: a single-cycle permutation of the node region,
    // so the chase visits every node with no short cycles for a prefetcher
    // to latch onto.
    let n = p.chase_lines as usize;
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i as u64) as usize;
        perm.swap(i, j);
    }
    // perm is a random permutation; convert to successor mapping by
    // chaining the permutation order into a cycle.
    //
    // Payload pointers cluster by *walk order*: consecutive chase hops
    // touch nearby payload lines (allocation-order locality, as in mcf's
    // arc arrays). This is what makes dependent misses issued together
    // by the EMC coalesce into DRAM row batches (§6.3: 85% of the
    // row-conflict reduction comes from batched same-row dependents).
    // A small fraction of payloads point into a hot region, giving the
    // EMC data cache and the LLC some temporal reuse (Figure 17).
    //
    // The draws happen in walk order: the image is a function of these
    // exact streams. The writes happen in address order, a page at a
    // time, so that a page costs one probe of the image's page table,
    // not one per word into a random page.
    let payload_span = p.payload_lines.max(64);
    // Each node's (successor, payload) pointers, indexed by node.
    let mut nodes = vec![[0u64; 2]; n];
    for w in 0..n {
        let next = perm[(w + 1) % n] as u64;
        let payload_line = if rng.gen_range(0..100) < 15 {
            // Hot subset: 64 lines (4 KB).
            rng.gen_range(0..64)
        } else {
            (w as u64 * 8 + rng.gen_range(0..16)) % payload_span
        };
        nodes[perm[w] as usize] = [CHASE_BASE + next * 64, PAYLOAD_BASE + payload_line * 64];
    }
    for_each_page(memory, CHASE_BASE, n, |page, first| {
        for (line, node) in page.chunks_exact_mut(64).zip(&nodes[first..]) {
            line[..8].copy_from_slice(&node[0].to_le_bytes());
            line[8..16].copy_from_slice(&node[1].to_le_bytes());
        }
    });
    if p.dep_depth > 1 {
        // Payload lines chain onward for deeper indirection (at +0x18);
        // these draws are in address order already.
        let lines = p.payload_lines as usize;
        for_each_page(memory, PAYLOAD_BASE, lines, |page, first| {
            for line in page.chunks_exact_mut(64).take(lines - first) {
                let next = PAYLOAD_BASE + rng.gen_range(0..p.payload_lines) * 64;
                line[0x18..0x20].copy_from_slice(&next.to_le_bytes());
            }
        });
    }
}

/// Hand `fill` each page of the `lines` 64-byte lines from the
/// page-aligned `base`, in address order, with the index of the page's
/// first line.
fn for_each_page(
    memory: &mut MemoryImage,
    base: u64,
    lines: usize,
    mut fill: impl FnMut(&mut [u8; PAGE_BYTES as usize], usize),
) {
    debug_assert_eq!(base % PAGE_BYTES, 0);
    for first in (0..lines).step_by((PAGE_BYTES / 64) as usize) {
        fill(memory.page_mut(Addr(base + first as u64 * 64)), first);
    }
}

struct Emitter {
    uops: Vec<StaticUop>,
    spill_slot: u64,
    acc: usize,
    chase_idx: usize,
}

impl Emitter {
    fn push(&mut self, u: StaticUop) {
        self.uops.push(u);
    }

    fn next_acc(&mut self) -> Reg {
        self.acc = (self.acc + 1) % R_ACC.len();
        R_ACC[self.acc]
    }

    /// mcf-style pointer chase: the node load is the *source miss*, the
    /// payload load (behind `interleave_ops` ALU ops) is the *dependent
    /// miss* (Figure 5 of the paper). Successive chase segments use
    /// independent walker registers, so a profile with two segments
    /// sustains two concurrent dependence chains.
    fn emit_chase(&mut self, p: &Profile) {
        if p.chase_lines == 0 {
            return;
        }
        let ptr = R_CHASE[self.chase_idx % R_CHASE.len()];
        self.chase_idx += 1;
        // Source miss: payload pointer and next pointer share the node line.
        self.push(StaticUop::load(R_T0, ptr, 8));
        // Address arithmetic between source and dependent load: a serial
        // chain of `interleave_ops` ALU ops on the address path (the
        // "small number of relatively simple uops" of Figure 5/6 —
        // pointer math, tag masking, bounds checks in real code).
        self.push(StaticUop::alu(UopKind::IntAdd, R_T1, R_T0, None, 0x18));
        for k in 1..p.interleave_ops {
            let kind = match k % 3 {
                0 => UopKind::IntAdd, // + 0: identity, stays on the path
                1 => UopKind::Xor,    // ^ 0
                _ => UopKind::Or,     // | 0
            };
            self.push(StaticUop::alu(kind, R_T1, R_T1, None, 0));
        }
        // Dependent miss(es).
        let mut addr_reg = R_T1;
        for d in 0..p.dep_depth.max(1) {
            let dst = self.next_acc();
            self.push(StaticUop::load(dst, addr_reg, 0));
            if d + 1 < p.dep_depth {
                // Deeper indirection: follow the payload chain at +0x18.
                self.push(StaticUop::alu(UopKind::IntAdd, R_T1, dst, None, 0x18));
                addr_reg = R_T1;
            }
        }
        // Advance the walker (the next source miss).
        self.push(StaticUop::load(ptr, ptr, 0));
    }

    /// Sequential stream: read (and for lbm-style kernels, write) and
    /// advance. Trivially prefetchable; generates zero dependent misses.
    fn emit_stream(&mut self, p: &Profile) {
        let dst = self.next_acc();
        self.push(StaticUop::load(dst, R_STREAM, 0));
        if p.stream_stores {
            self.push(StaticUop::store(R_STREAM, dst, STREAM_WB_OFFSET));
        }
        self.push(StaticUop::alu(
            UopKind::IntAdd,
            R_STREAM,
            R_STREAM,
            None,
            p.stream_stride,
        ));
        let acc = self.next_acc();
        self.push(StaticUop::alu(UopKind::IntAdd, acc, acc, Some(dst), 0));
    }

    /// Independent random miss: an xorshift address computed in registers.
    /// Hard to prefetch, but *not* dependent on any prior miss — the class
    /// of miss that runahead-style techniques (not the EMC) target.
    fn emit_random(&mut self) {
        self.push(StaticUop::alu(UopKind::Shl, R_T0, R_RNG, None, 13));
        self.push(StaticUop::alu(UopKind::Xor, R_RNG, R_RNG, Some(R_T0), 0));
        self.push(StaticUop::alu(UopKind::Shr, R_T0, R_RNG, None, 7));
        self.push(StaticUop::alu(UopKind::Xor, R_RNG, R_RNG, Some(R_T0), 0));
        self.push(StaticUop::alu(UopKind::And, R_T0, R_RNG, Some(R_MASK), 0));
        self.push(StaticUop::alu(
            UopKind::IntAdd,
            R_T0,
            R_T0,
            Some(R_RBASE),
            0,
        ));
        let dst = self.next_acc();
        self.push(StaticUop::load(dst, R_T0, 0));
    }

    /// Register spill/fill pair (x86 idiom the EMC supports: a store is
    /// chain-eligible only when a matching fill exists, §4.3).
    fn emit_spill(&mut self) {
        let off = (self.spill_slot % 8) * 8;
        self.spill_slot += 1;
        let v = R_ACC[self.acc];
        self.push(StaticUop::store(R_SPILL, v, off));
        let dst = self.next_acc();
        self.push(StaticUop::alu(UopKind::IntAdd, dst, v, None, 1));
        self.push(StaticUop::load(v, R_SPILL, off));
    }

    /// Data-dependent branch with ~50% taken rate (hybrid predictors fare
    /// poorly on these, creating realistic pipeline flushes).
    fn emit_branch(&mut self) {
        self.push(StaticUop::alu(UopKind::Shl, R_T0, R_RNG, None, 13));
        self.push(StaticUop::alu(UopKind::Xor, R_RNG, R_RNG, Some(R_T0), 0));
        self.push(StaticUop::alu(UopKind::Shr, R_T0, R_RNG, None, 9));
        self.push(StaticUop::alu(UopKind::Xor, R_RNG, R_RNG, Some(R_T0), 0));
        self.push(StaticUop::alu(UopKind::And, R_BR, R_RNG, None, 1));
        let target = self.uops.len() as u32 + 2;
        self.push(StaticUop::branch(BranchCond::Zero, Some(R_BR), target));
        let dst = self.next_acc();
        self.push(StaticUop::alu(UopKind::IntAdd, dst, dst, None, 3));
    }

    /// Integer (and optional FP) filler with ILP across accumulators.
    fn emit_compute(&mut self, int_ops: usize, fp_ops: usize) {
        for k in 0..int_ops {
            let dst = self.next_acc();
            let kind = match k % 4 {
                0 => UopKind::IntAdd,
                1 => UopKind::Xor,
                2 => UopKind::Shl,
                _ => UopKind::IntSub,
            };
            let imm = match kind {
                UopKind::Shl => 1,
                _ => 0x9e37 + k as u64,
            };
            self.push(StaticUop::alu(kind, dst, dst, None, imm));
        }
        for k in 0..fp_ops {
            let kind = if k % 2 == 0 {
                UopKind::FpAdd
            } else {
                UopKind::FpMul
            };
            self.push(StaticUop::alu(kind, R_FP, R_FP, Some(R_ACC[self.acc]), 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_ITERATIONS;
    use emc_types::program::run_reference;

    #[test]
    fn all_benchmarks_generate_valid_programs() {
        for b in Benchmark::all() {
            let w = build(b, 7, 100);
            w.program.validate().unwrap_or_else(|e| panic!("{b}: {e}"));
            assert!(w.body_uops > 0, "{b} empty body");
            assert!(w.program.uops.len() < 1000, "{b} program too large");
        }
    }

    #[test]
    fn programs_terminate_at_iteration_count() {
        let w = build(Benchmark::Libquantum, 3, 50);
        let mut mem = w.memory.clone();
        let st = run_reference(&w.program, &mut mem, 10_000_000);
        assert!(!st.capped, "program must terminate");
        // r15 counted down to zero.
        assert_eq!(st.regs[R_LOOP.idx()], 0);
    }

    #[test]
    fn chase_follows_initialized_pointers() {
        let w = build(Benchmark::Mcf, 11, 200);
        let mut mem = w.memory.clone();
        let st = run_reference(&w.program, &mut mem, 10_000_000);
        assert!(!st.capped);
        // After the run the chase register holds a valid node address.
        let r0 = st.regs[R_CHASE[0].idx()];
        assert!(r0 >= CHASE_BASE, "chase pointer escaped: {r0:#x}");
        assert!(r0 < CHASE_BASE + Benchmark::Mcf.profile().chase_lines * 64);
        assert_eq!(r0 % 64, 0, "nodes are line-aligned");
    }

    /// The reference the images are held to: the same draws, each word
    /// written with `write_u64` in walk order.
    fn init_chase_regions_by_word(p: &Profile, memory: &mut MemoryImage, rng: &mut SmallRng) {
        if p.chase_lines == 0 || p.chase_segments == 0 {
            return;
        }
        let n = p.chase_lines as usize;
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..i as u64) as usize;
            perm.swap(i, j);
        }
        let payload_span = p.payload_lines.max(64);
        for w in 0..n {
            let cur = perm[w] as u64;
            let next = perm[(w + 1) % n] as u64;
            let node = CHASE_BASE + cur * 64;
            memory.write_u64(Addr(node), CHASE_BASE + next * 64);
            let payload_line = if rng.gen_range(0..100) < 15 {
                rng.gen_range(0..64)
            } else {
                (w as u64 * 8 + rng.gen_range(0..16)) % payload_span
            };
            memory.write_u64(Addr(node + 8), PAYLOAD_BASE + payload_line * 64);
        }
        if p.dep_depth > 1 {
            for i in 0..p.payload_lines {
                let addr = PAYLOAD_BASE + i * 64 + 0x18;
                let next = PAYLOAD_BASE + rng.gen_range(0..p.payload_lines) * 64;
                memory.write_u64(Addr(addr), next);
            }
        }
    }

    #[test]
    fn every_benchmark_image_is_the_word_at_a_time_image() {
        for b in Benchmark::all() {
            for seed in [1, 2, 0x5eed] {
                let mut rng = seeded_rng(substream(seed, b as u64 + 1));
                let mut want = MemoryImage::new();
                init_chase_regions_by_word(&b.profile(), &mut want, &mut rng);
                let got = build(b, seed, DEFAULT_ITERATIONS).memory;
                assert!(
                    got == want,
                    "{b} seed {seed}: {} pages, the reference has {}",
                    got.resident_pages(),
                    want.resident_pages()
                );
            }
        }
    }

    #[test]
    fn partial_last_pages_match_the_word_at_a_time_image() {
        // (chase_lines, payload_lines, dep_depth): no region is a whole
        // number of 64-line pages, and the last is a single line.
        for (chase_lines, payload_lines, dep_depth) in [(1000, 777, 2), (65, 33, 3), (1, 1, 2)] {
            let p = Profile {
                chase_lines,
                payload_lines,
                dep_depth,
                ..Benchmark::Mcf.profile()
            };
            for seed in [1, 2, 3] {
                let (mut got_rng, mut want_rng) = (seeded_rng(seed), seeded_rng(seed));
                let (mut got, mut want) = (MemoryImage::new(), MemoryImage::new());
                init_chase_regions(&p, &mut got, &mut got_rng);
                init_chase_regions_by_word(&p, &mut want, &mut want_rng);
                let what = format!("{chase_lines}/{payload_lines}/{dep_depth} seed {seed}");
                assert!(got == want, "{what}: the images differ");
                assert_eq!(got_rng, want_rng, "{what}: the draws differ");
            }
        }
    }

    #[test]
    fn chase_cycle_has_full_period() {
        // The Sattolo cycle must visit every node: walk it functionally.
        let p = Profile {
            chase_lines: 64,
            payload_lines: 8,
            ..Benchmark::Mcf.profile()
        };
        let mut mem = MemoryImage::new();
        let mut rng = seeded_rng(5);
        init_chase_regions(&p, &mut mem, &mut rng);
        let mut seen = std::collections::HashSet::new();
        let mut node = CHASE_BASE;
        for _ in 0..64 {
            assert!(seen.insert(node), "cycle shorter than region");
            node = mem.read_u64(Addr(node));
        }
        assert_eq!(node, CHASE_BASE, "single full cycle");
    }

    #[test]
    fn payload_pointers_stay_in_region() {
        let w = build(Benchmark::Omnetpp, 13, 1);
        let p = Benchmark::Omnetpp.profile();
        let mut node = CHASE_BASE;
        for _ in 0..100 {
            let payload = w.memory.read_u64(Addr(node + 8));
            assert!(payload >= PAYLOAD_BASE);
            assert!(payload < PAYLOAD_BASE + p.payload_lines * 64);
            node = w.memory.read_u64(Addr(node));
        }
    }

    #[test]
    fn different_seeds_differ_but_same_seed_reproduces() {
        let a = build(Benchmark::Mcf, 1, 10);
        let b = build(Benchmark::Mcf, 1, 10);
        let c = build(Benchmark::Mcf, 2, 10);
        assert_eq!(a.program.uops, b.program.uops);
        assert_ne!(
            a.memory.read_u64(Addr(CHASE_BASE)),
            c.memory.read_u64(Addr(CHASE_BASE)),
            "different seeds give different permutations"
        );
    }

    #[test]
    fn streamers_touch_no_chase_memory() {
        let w = build(Benchmark::Libquantum, 1, 10);
        assert_eq!(w.memory.resident_pages(), 0, "pure streaming needs no init");
    }

    #[test]
    fn spill_fill_round_trips() {
        let w = build(Benchmark::Gcc, 1, 20);
        let mut mem = w.memory.clone();
        let st = run_reference(&w.program, &mut mem, 1_000_000);
        assert!(!st.capped);
        assert!(st.stores > 0, "gcc profile spills");
        assert!(st.loads > st.stores);
    }

    #[test]
    fn fp_benchmarks_emit_fp_uops() {
        let w = build(Benchmark::Lbm, 1, 1);
        let has_fp = w
            .program
            .uops
            .iter()
            .any(|u| matches!(u.kind, UopKind::FpAdd | UopKind::FpMul));
        assert!(has_fp);
    }

    #[test]
    fn noisy_branch_rate_is_balanced() {
        // Execute mcf's noisy branches and check the taken rate is not
        // degenerate (the xorshift low bit must actually toggle).
        let w = build(Benchmark::Mcf, 9, 500);
        let mut mem = w.memory.clone();
        let st = run_reference(&w.program, &mut mem, 10_000_000);
        assert!(!st.capped);
        // r4..r7 accumulate +3 on not-taken paths; if branches were
        // constant the accumulators would be exactly 0 or maximal. Just
        // sanity-check execution ran a meaningful number of uops.
        assert!(st.dyn_uops > 10_000);
    }
}
