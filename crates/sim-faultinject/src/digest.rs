//! Golden-run capture and commit-order architectural emulation.
//!
//! A fault trial is judged by *architectural* state, not
//! microarchitectural state: a flipped bit matters exactly when it
//! changes something the program externalises — the retired-store
//! stream, control decisions, program output. The emulator here gives
//! every committed instruction a synthetic 64-bit result (a hash of its
//! opcode, PC and source values, so corruption propagates through the
//! dataflow exactly along the dependence edges the ACE analyzer walks)
//! and folds the results reaching *sinks* (stores, control,
//! [`micro_isa::OpClass::Output`]) into per-thread rolling chain
//! hashes. Two runs whose [`SinkDigest`]s match are architecturally
//! indistinguishable.
//!
//! Because payload and register faults are injected as *directives*
//! over the recorded golden commit stream rather than as mutations of
//! timing-simulator state, the perturbed replay is cycle-for-cycle
//! aligned with the golden run by construction — the differential
//! comparison isolates the fault's dataflow effect with no timing
//! noise.
//!
//! Two evaluators share one definition of the hash rules
//! (`result_hash`, `fold_sink`): [`replay`] re-emulates the whole
//! stream under a directive (the reference oracle), and
//! [`GoldenTrace::judge`] reaches the same verdict differentially —
//! starting at the fault's commit, it walks only the victim thread and
//! tracks only the registers and memory words whose value differs from
//! the golden run, taking every other result from the recorded trace.

use std::collections::{BTreeMap, HashMap};

use micro_isa::{OpClass, Reg, ThreadId};
use serde::{Deserialize, Serialize};
use smt_sim::{RetireEvent, SimObserver, REGS_PER_THREAD};

/// SplitMix64-style finalizer: the avalanche mixing all synthetic
/// values flow through.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One committed instruction, as recorded from the golden run — the
/// minimum the emulator needs to re-derive architectural dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRec {
    pub seq: u64,
    pub tid: ThreadId,
    pub pc: u64,
    pub op: OpClass,
    pub dest: Option<Reg>,
    pub srcs: [Option<Reg>; 2],
    pub mem_addr: Option<u64>,
    /// Resolved control outcome `(taken, next_pc)` for control ops.
    pub ctrl: Option<(bool, u64)>,
    pub retire_cycle: u64,
}

impl CommitRec {
    pub fn of(ev: &RetireEvent) -> CommitRec {
        CommitRec {
            seq: ev.inst.seq,
            tid: ev.inst.tid,
            pc: ev.inst.pc,
            op: ev.inst.op,
            dest: ev.inst.dest,
            srcs: ev.inst.srcs,
            mem_addr: ev.inst.mem_addr,
            ctrl: ev.inst.ctrl.map(|c| (c.taken, c.next_pc)),
            retire_cycle: ev.retire_cycle,
        }
    }
}

/// [`SimObserver`] that records the committed-instruction stream of a
/// golden run (squashes are architecturally invisible and skipped).
#[derive(Debug, Default)]
pub struct GoldenRecorder {
    pub commits: Vec<CommitRec>,
    pub final_cycle: u64,
}

impl SimObserver for GoldenRecorder {
    fn on_commit(&mut self, ev: &RetireEvent) {
        self.commits.push(CommitRec::of(ev));
    }

    fn on_finish(&mut self, final_cycle: u64) {
        self.final_cycle = final_cycle;
    }
}

/// Fault applied during an emulator replay of the commit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultDirective {
    /// Fault-free replay (produces the golden digest).
    #[default]
    None,
    /// A payload bit of the victim's IQ/ROB entry flipped: XOR the
    /// victim's result as it commits, along its original wiring.
    PerturbResult { victim_seq: u64, perturbation: u64 },
    /// An architectural register bit flipped at `at_cycle`: XOR the
    /// register at the thread's first commit at or after that cycle.
    FlipRegister {
        tid: ThreadId,
        reg_index: usize,
        bit: u32,
        at_cycle: u64,
    },
}

/// Architectural summary of one (real or replayed) run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SinkDigest {
    /// Per-thread rolling hash over everything that reached a sink.
    pub chains: Vec<u64>,
    /// Per-thread sink count.
    pub sinks: Vec<u64>,
    /// Per-thread committed-instruction count.
    pub committed: Vec<u64>,
    /// Hash of the final architectural register values of all threads.
    /// Divergence here *without* chain divergence means the corruption
    /// is still latent in a register no sink has read — not (yet) SDC.
    pub rf_hash: u64,
}

impl SinkDigest {
    /// Architecturally indistinguishable observable behaviour?
    pub fn chains_match(&self, other: &SinkDigest) -> bool {
        self.chains == other.chains && self.sinks == other.sinks
    }
}

/// Architectural value of register `reg` of thread `tid` before the
/// thread's first commit.
#[inline]
fn initial_reg(tid: usize, reg: usize) -> u64 {
    mix((tid * REGS_PER_THREAD + reg) as u64 + 1)
}

/// Memory word a load or store of `rec` touches.
#[inline]
fn word(rec: &CommitRec) -> u64 {
    rec.mem_addr.unwrap_or(0) >> 3
}

/// Synthetic result of an `op` at `pc`: a hash of its opcode, PC,
/// source register values (`reg` maps a flat register index to its
/// value) and, for a load, the `loaded` memory word. Fault
/// perturbations are applied by the caller on top.
#[inline]
fn result_hash(
    op: OpClass,
    pc: u64,
    srcs: &[Option<Reg>; 2],
    mut reg: impl FnMut(usize) -> u64,
    loaded: u64,
) -> u64 {
    let mut h = mix(op.opcode() as u64 ^ pc.rotate_left(17));
    for src in srcs.iter().flatten() {
        h = mix(h ^ reg(src.flat_index()));
    }
    if op == OpClass::Load {
        h = mix(h ^ loaded);
    }
    h
}

/// Fold a sink at `pc` with control outcome `ctrl` and result `h` into
/// its thread's chain. For a fixed sink value the step
/// `chain -> mix(chain ^ s)` is a bijection, so two chains that differ
/// stay different while they fold identical values.
#[inline]
fn fold_sink(chain: u64, pc: u64, ctrl: Option<(bool, u64)>, h: u64) -> u64 {
    let mut s = mix(h ^ pc);
    if let Some((taken, next)) = ctrl {
        s = mix(s ^ ((taken as u64) << 1) ^ next);
    }
    mix(chain ^ s)
}

/// Hash of the architectural register files of all threads, in thread
/// order.
fn rf_hash<'a>(rfs: impl IntoIterator<Item = &'a [u64; REGS_PER_THREAD]>) -> u64 {
    let mut h = 0u64;
    for regs in rfs {
        for &v in regs.iter() {
            h = mix(h ^ v);
        }
    }
    h
}

/// Commit-order architectural emulator.
///
/// Memory is modelled per-thread (the synthetic workloads share no
/// data; a shared map would couple thread digests through commit
/// *interleaving*, turning timing jitter into false SDC). Loads from
/// never-written addresses return a deterministic hash of the address,
/// so golden and replayed runs agree on cold memory.
pub struct ArchEmulator {
    rf: Vec<[u64; REGS_PER_THREAD]>,
    mem: Vec<HashMap<u64, u64>>,
    chains: Vec<u64>,
    sinks: Vec<u64>,
    committed: Vec<u64>,
    directive: FaultDirective,
    flip_applied: bool,
}

impl ArchEmulator {
    pub fn new(num_threads: usize, directive: FaultDirective) -> ArchEmulator {
        let rf = (0..num_threads)
            .map(|t| std::array::from_fn(|r| initial_reg(t, r)))
            .collect();
        ArchEmulator {
            rf,
            mem: vec![HashMap::new(); num_threads],
            chains: vec![0; num_threads],
            sinks: vec![0; num_threads],
            committed: vec![0; num_threads],
            directive,
            flip_applied: false,
        }
    }

    /// Execute one committed instruction.
    pub fn commit(&mut self, rec: &CommitRec) {
        self.execute(rec);
    }

    /// Execute one committed instruction and return its result and, for
    /// a load, the memory word it read (0 otherwise).
    fn execute(&mut self, rec: &CommitRec) -> (u64, u64) {
        let t = rec.tid as usize;
        if let FaultDirective::FlipRegister {
            tid,
            reg_index,
            bit,
            at_cycle,
        } = self.directive
        {
            if !self.flip_applied && tid as usize == t && rec.retire_cycle >= at_cycle {
                self.rf[t][reg_index] ^= 1u64 << (bit % 64);
                self.flip_applied = true;
            }
        }
        let loaded = if rec.op == OpClass::Load {
            let addr = word(rec);
            *self.mem[t].entry(addr).or_insert_with(|| mix(!addr))
        } else {
            0
        };
        let regs = &self.rf[t];
        let mut h = result_hash(rec.op, rec.pc, &rec.srcs, |r| regs[r], loaded);
        if let FaultDirective::PerturbResult {
            victim_seq,
            perturbation,
        } = self.directive
        {
            if rec.seq == victim_seq {
                h ^= perturbation;
            }
        }
        if rec.op == OpClass::Store {
            self.mem[t].insert(word(rec), h);
        }
        if let Some(d) = rec.dest {
            self.rf[t][d.flat_index()] = h;
        }
        if avf::ace::is_sink(rec.op) {
            self.chains[t] = fold_sink(self.chains[t], rec.pc, rec.ctrl, h);
            self.sinks[t] += 1;
        }
        self.committed[t] += 1;
        (h, loaded)
    }

    /// Finish the replay and summarise.
    pub fn finish(self) -> SinkDigest {
        SinkDigest {
            rf_hash: rf_hash(&self.rf),
            chains: self.chains,
            sinks: self.sinks,
            committed: self.committed,
        }
    }
}

/// Replay a recorded commit stream under `directive`.
pub fn replay(num_threads: usize, commits: &[CommitRec], directive: FaultDirective) -> SinkDigest {
    let mut emu = ArchEmulator::new(num_threads, directive);
    for rec in commits {
        emu.commit(rec);
    }
    emu.finish()
}

/// The fault-free digest of a recorded commit stream.
pub fn golden_digest(num_threads: usize, commits: &[CommitRec]) -> SinkDigest {
    replay(num_threads, commits, FaultDirective::None)
}

/// Architectural verdict on one fault directive, relative to the golden
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The sink stream is unchanged ([`SinkDigest::chains_match`]).
    pub chains_match: bool,
    /// The sink stream is unchanged but the final register files differ:
    /// corruption no sink has read yet. Always `false` when the chains
    /// differ.
    pub latent: bool,
}

impl Verdict {
    const CLEAN: Verdict = Verdict {
        chains_match: true,
        latent: false,
    };

    /// The verdict [`replay`] implies: `faulty` compared with `golden`.
    pub fn of(faulty: &SinkDigest, golden: &SinkDigest) -> Verdict {
        let chains_match = faulty.chains_match(golden);
        Verdict {
            chains_match,
            latent: chains_match && faulty.rf_hash != golden.rf_hash,
        }
    }
}

/// One golden commit, packed to what a differential walk reads: the
/// parts of its [`CommitRec`] the hash rules use, and what the golden
/// run derived for it.
#[derive(Debug, Clone, Copy)]
struct TracedCommit {
    seq: u64,
    retire_cycle: u64,
    pc: u64,
    /// Memory word of a load or store.
    word: u64,
    /// Next PC of a control outcome (0 without one).
    next_pc: u64,
    /// The golden result.
    result: u64,
    /// For a load, the word it read. For any other op, the thread's
    /// golden sink chain after it (a load is never a sink, so the chain
    /// after a load is the one after the last non-load before it).
    aux: u64,
    op: OpClass,
    /// Control outcome: whether it was taken, if there is one.
    taken: Option<bool>,
    dest: Option<Reg>,
    srcs: [Option<Reg>; 2],
}

impl TracedCommit {
    fn ctrl(&self) -> Option<(bool, u64)> {
        self.taken.map(|taken| (taken, self.next_pc))
    }
}

/// The golden chain of a thread before its commit `k`.
fn chain_before(commits: &[TracedCommit], k: usize) -> u64 {
    commits[..k]
        .iter()
        .rev()
        .find(|c| c.op != OpClass::Load)
        .map_or(0, |c| c.aux)
}

#[derive(Debug, Clone)]
struct ThreadTrace {
    /// In retirement order; `seq` and `retire_cycle` both rise along it.
    commits: Vec<TracedCommit>,
    final_rf: [u64; REGS_PER_THREAD],
}

/// A golden commit stream, split by thread and annotated with every
/// golden result, loaded word and sink chain, so a fault directive can
/// be judged differentially ([`GoldenTrace::judge`]) instead of by a
/// full [`replay`].
#[derive(Debug, Clone)]
pub struct GoldenTrace {
    threads: Vec<ThreadTrace>,
    digest: SinkDigest,
}

/// [`SimObserver`] that emulates a golden run's commits as they retire
/// and records them into a [`GoldenTrace`].
pub(crate) struct TraceRecorder {
    emu: ArchEmulator,
    threads: Vec<Vec<TracedCommit>>,
}

impl TraceRecorder {
    pub(crate) fn new(num_threads: usize) -> TraceRecorder {
        TraceRecorder {
            emu: ArchEmulator::new(num_threads, FaultDirective::None),
            threads: vec![Vec::new(); num_threads],
        }
    }

    /// Record the next committed instruction. Each thread's commits
    /// must arrive in retirement order: rising `seq`, non-decreasing
    /// `retire_cycle`.
    pub(crate) fn push(&mut self, rec: CommitRec) {
        let (result, loaded) = self.emu.execute(&rec);
        let t = rec.tid as usize;
        let commits = &mut self.threads[t];
        assert!(
            commits
                .last()
                .is_none_or(|c| c.seq < rec.seq && c.retire_cycle <= rec.retire_cycle),
            "thread {t} commit seq {} out of retirement order",
            rec.seq
        );
        commits.push(TracedCommit {
            seq: rec.seq,
            retire_cycle: rec.retire_cycle,
            pc: rec.pc,
            word: word(&rec),
            next_pc: rec.ctrl.map_or(0, |(_, next)| next),
            result,
            aux: if rec.op == OpClass::Load {
                loaded
            } else {
                self.emu.chains[t]
            },
            op: rec.op,
            taken: rec.ctrl.map(|(taken, _)| taken),
            dest: rec.dest,
            srcs: rec.srcs,
        });
    }

    pub(crate) fn finish(self) -> GoldenTrace {
        let threads = self
            .threads
            .into_iter()
            .zip(&self.emu.rf)
            .map(|(commits, rf)| ThreadTrace {
                commits,
                final_rf: *rf,
            })
            .collect();
        GoldenTrace {
            threads,
            digest: self.emu.finish(),
        }
    }
}

impl SimObserver for TraceRecorder {
    fn on_commit(&mut self, ev: &RetireEvent) {
        self.push(CommitRec::of(ev));
    }
}

/// Where a differential walk starts corrupting its victim thread.
#[derive(Debug, Clone, Copy)]
enum Seed {
    /// XOR the result of the starting commit.
    Perturb(u64),
    /// XOR register `.0` with `.1` just before the starting commit.
    Flip(usize, u64),
}

impl GoldenTrace {
    /// Trace a recorded commit stream, in retirement order.
    pub fn from_commits(num_threads: usize, commits: &[CommitRec]) -> GoldenTrace {
        let mut recorder = TraceRecorder::new(num_threads);
        for rec in commits {
            recorder.push(*rec);
        }
        recorder.finish()
    }

    /// The golden digest ([`golden_digest`] of the same stream).
    pub fn digest(&self) -> &SinkDigest {
        &self.digest
    }

    /// Committed instructions over all threads.
    pub fn committed(&self) -> u64 {
        self.threads.iter().map(|t| t.commits.len() as u64).sum()
    }

    /// `(thread, index)` of the commit with sequence number `seq`.
    fn find(&self, seq: u64) -> Option<(usize, usize)> {
        self.threads.iter().enumerate().find_map(|(t, th)| {
            th.commits
                .binary_search_by_key(&seq, |c| c.seq)
                .ok()
                .map(|k| (t, k))
        })
    }

    /// Did the instruction with sequence number `seq` commit?
    pub fn contains(&self, seq: u64) -> bool {
        self.find(seq).is_some()
    }

    /// Judge `directive` against the golden run: the same verdict as
    /// [`Verdict::of`] a full [`replay`], reached by walking only the
    /// victim thread from the fault's commit.
    pub fn judge(&self, directive: FaultDirective) -> Verdict {
        match directive {
            FaultDirective::None => Verdict::CLEAN,
            FaultDirective::PerturbResult {
                victim_seq,
                perturbation,
            } => match self.find(victim_seq) {
                // Squashed or never retired: the corruption is discarded.
                None => Verdict::CLEAN,
                Some((t, k)) => self.walk(t, k, Seed::Perturb(perturbation)),
            },
            FaultDirective::FlipRegister {
                tid,
                reg_index,
                bit,
                at_cycle,
            } => {
                let Some(th) = self.threads.get(tid as usize) else {
                    return Verdict::CLEAN;
                };
                let k = th.commits.partition_point(|c| c.retire_cycle < at_cycle);
                if k == th.commits.len() {
                    // The thread never commits again: the flip is never
                    // applied.
                    return Verdict::CLEAN;
                }
                self.walk(tid as usize, k, Seed::Flip(reg_index, 1u64 << (bit % 64)))
            }
        }
    }

    /// Emulate thread `t` from its commit `k` under `seed`, tracking only
    /// the registers and memory words whose value differs from golden
    /// (the dirty set). Commits with no dirty input take their golden
    /// result. Once the dirty set is empty every later commit is golden
    /// again, so the verdict is already decided: the chain matches at
    /// the end exactly when it matches now, because folding identical
    /// sink values is a bijection.
    fn walk(&self, t: usize, k: usize, seed: Seed) -> Verdict {
        let commits = &self.threads[t].commits;
        let mut golden = GoldenRegs::before(&commits[..k], t);
        let mut dirty = 0u64;
        let mut faulty = [0u64; REGS_PER_THREAD];
        let mut mem: BTreeMap<u64, u64> = BTreeMap::new();
        let mut chain = chain_before(commits, k);
        let mut perturbation = 0;
        match seed {
            Seed::Perturb(p) => perturbation = p,
            Seed::Flip(r, mask) => {
                faulty[r] = golden.get(r) ^ mask;
                dirty |= 1 << r;
            }
        }
        for c in &commits[k..] {
            let load = c.op == OpClass::Load;
            let dirty_word = if load {
                mem.get(&c.word).copied()
            } else {
                None
            };
            let dirty_src = c
                .srcs
                .iter()
                .flatten()
                .any(|r| dirty >> r.flat_index() & 1 != 0);
            let mut h = if dirty_src || dirty_word.is_some() {
                let reg = |r: usize| {
                    if dirty >> r & 1 != 0 {
                        faulty[r]
                    } else {
                        golden.get(r)
                    }
                };
                result_hash(c.op, c.pc, &c.srcs, reg, dirty_word.unwrap_or(c.aux))
            } else {
                c.result
            };
            h ^= std::mem::take(&mut perturbation);
            if c.op == OpClass::Store {
                if h == c.result {
                    mem.remove(&c.word);
                } else {
                    mem.insert(c.word, h);
                }
            }
            if let Some(d) = c.dest {
                let d = d.flat_index();
                golden.set(d, c.result);
                if h == c.result {
                    dirty &= !(1 << d);
                } else {
                    faulty[d] = h;
                    dirty |= 1 << d;
                }
            }
            if avf::ace::is_sink(c.op) {
                chain = fold_sink(chain, c.pc, c.ctrl(), h);
            }
            // The golden chain is on record after every non-load.
            if dirty == 0 && mem.is_empty() && !load {
                return Verdict {
                    chains_match: chain == c.aux,
                    latent: false,
                };
            }
        }
        let chains_match = chain == self.digest.chains[t];
        let latent = chains_match && {
            let mut rf = self.threads[t].final_rf;
            for (r, v) in rf.iter_mut().enumerate() {
                if dirty >> r & 1 != 0 {
                    *v = faulty[r];
                }
            }
            let rfs = self
                .threads
                .iter()
                .enumerate()
                .map(|(u, th)| if u == t { &rf } else { &th.final_rf });
            rf_hash(rfs) != self.digest.rf_hash
        };
        Verdict {
            chains_match,
            latent,
        }
    }
}

/// A thread's golden register values at the commit a differential walk
/// has reached, each looked up on first use from the last write before
/// the walk's start and then kept current by the walk.
struct GoldenRegs<'a> {
    before: &'a [TracedCommit],
    tid: usize,
    known: u64,
    vals: [u64; REGS_PER_THREAD],
}

const _: () = assert!(REGS_PER_THREAD <= 64, "register masks are one u64");

impl<'a> GoldenRegs<'a> {
    fn before(before: &'a [TracedCommit], tid: usize) -> GoldenRegs<'a> {
        GoldenRegs {
            before,
            tid,
            known: 0,
            vals: [0; REGS_PER_THREAD],
        }
    }

    fn get(&mut self, r: usize) -> u64 {
        if self.known >> r & 1 == 0 {
            let last_write = self
                .before
                .iter()
                .rev()
                .find(|c| c.dest.is_some_and(|d| d.flat_index() == r));
            self.set(
                r,
                last_write.map_or_else(|| initial_reg(self.tid, r), |c| c.result),
            );
        }
        self.vals[r]
    }

    fn set(&mut self, r: usize, v: u64) {
        self.vals[r] = v;
        self.known |= 1 << r;
    }
}

/// [`SimObserver`] that watches one sequence number's fate during a
/// forked (pipeline-mutating) trial.
#[derive(Debug, Default)]
pub struct FateObserver {
    pub watch_seq: u64,
    pub committed: bool,
    pub squashed: bool,
}

impl FateObserver {
    pub fn new(watch_seq: u64) -> FateObserver {
        FateObserver {
            watch_seq,
            committed: false,
            squashed: false,
        }
    }
}

impl SimObserver for FateObserver {
    fn on_commit(&mut self, ev: &RetireEvent) {
        if ev.inst.seq == self.watch_seq {
            self.committed = true;
        }
    }

    fn on_squash(&mut self, ev: &RetireEvent) {
        if ev.inst.seq == self.watch_seq {
            self.squashed = true;
        }
    }
}

/// Fan-out observer: drives two observers from one simulation (the
/// golden run feeds the AVF collector and the commit recorder at once).
pub struct Tandem<'a, A: SimObserver, B: SimObserver>(pub &'a mut A, pub &'a mut B);

impl<A: SimObserver, B: SimObserver> SimObserver for Tandem<'_, A, B> {
    fn on_commit(&mut self, ev: &RetireEvent) {
        self.0.on_commit(ev);
        self.1.on_commit(ev);
    }

    fn on_squash(&mut self, ev: &RetireEvent) {
        self.0.on_squash(ev);
        self.1.on_squash(ev);
    }

    fn on_finish(&mut self, final_cycle: u64) {
        self.0.on_finish(final_cycle);
        self.1.on_finish(final_cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micro_isa::Reg;

    fn rec(seq: u64, op: OpClass, dest: Option<Reg>, srcs: [Option<Reg>; 2]) -> CommitRec {
        CommitRec {
            seq,
            tid: 0,
            pc: 0x400 + seq * 4,
            op,
            dest,
            srcs,
            mem_addr: if op.is_mem() { Some(seq * 8) } else { None },
            ctrl: None,
            retire_cycle: seq,
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let stream = vec![
            rec(1, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            rec(
                2,
                OpClass::IAlu,
                Some(Reg::int(2)),
                [Some(Reg::int(1)), None],
            ),
            rec(3, OpClass::Store, None, [Some(Reg::int(2)), None]),
        ];
        let a = golden_digest(1, &stream);
        let b = golden_digest(1, &stream);
        assert_eq!(a, b);
        assert_eq!(a.sinks, vec![1]);
        assert_eq!(a.committed, vec![3]);
    }

    #[test]
    fn perturbing_a_sink_reaching_value_changes_the_chain() {
        let stream = vec![
            rec(1, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            rec(
                2,
                OpClass::IAlu,
                Some(Reg::int(2)),
                [Some(Reg::int(1)), None],
            ),
            rec(3, OpClass::Store, None, [Some(Reg::int(2)), None]),
        ];
        let golden = golden_digest(1, &stream);
        let faulty = replay(
            1,
            &stream,
            FaultDirective::PerturbResult {
                victim_seq: 1,
                perturbation: 1 << 5,
            },
        );
        assert!(!faulty.chains_match(&golden), "corruption reached a store");
    }

    #[test]
    fn perturbing_a_dead_value_is_masked() {
        // seq 1's result is overwritten by seq 2 before anything reads
        // it; the store consumes only seq 2's value.
        let stream = vec![
            rec(1, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            rec(2, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            rec(3, OpClass::Store, None, [Some(Reg::int(1)), None]),
        ];
        let golden = golden_digest(1, &stream);
        let faulty = replay(
            1,
            &stream,
            FaultDirective::PerturbResult {
                victim_seq: 1,
                perturbation: 0xdead_beef,
            },
        );
        assert!(faulty.chains_match(&golden));
        assert_eq!(faulty.rf_hash, golden.rf_hash, "value was overwritten");
    }

    #[test]
    fn register_flip_after_last_use_is_latent_not_sdc() {
        // The store reads r1 at seq 2; the flip lands afterwards
        // (cycle 3), so no sink ever observes it — but the final
        // register file differs: latent corruption, not SDC.
        let stream = vec![
            rec(1, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            rec(2, OpClass::Store, None, [Some(Reg::int(1)), None]),
            rec(3, OpClass::IAlu, Some(Reg::int(2)), [None, None]),
        ];
        let golden = golden_digest(1, &stream);
        let faulty = replay(
            1,
            &stream,
            FaultDirective::FlipRegister {
                tid: 0,
                reg_index: Reg::int(1).flat_index(),
                bit: 7,
                at_cycle: 3,
            },
        );
        assert!(faulty.chains_match(&golden), "flip after last use");
        assert_ne!(faulty.rf_hash, golden.rf_hash, "corruption is latent");
    }

    #[test]
    fn register_flip_before_read_is_sdc() {
        let stream = vec![
            rec(1, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            rec(2, OpClass::Store, None, [Some(Reg::int(1)), None]),
        ];
        let golden = golden_digest(1, &stream);
        let faulty = replay(
            1,
            &stream,
            FaultDirective::FlipRegister {
                tid: 0,
                reg_index: Reg::int(1).flat_index(),
                bit: 0,
                at_cycle: 2,
            },
        );
        assert!(!faulty.chains_match(&golden));
    }

    #[test]
    fn register_overwritten_before_read_is_fully_masked() {
        let stream = vec![
            rec(1, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            rec(2, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            rec(3, OpClass::Store, None, [Some(Reg::int(1)), None]),
        ];
        let golden = golden_digest(1, &stream);
        // Flip lands at cycle 1 (before the overwrite at cycle 2).
        let faulty = replay(
            1,
            &stream,
            FaultDirective::FlipRegister {
                tid: 0,
                reg_index: Reg::int(1).flat_index(),
                bit: 63,
                at_cycle: 1,
            },
        );
        // Note: the flip applies before seq 1 executes (same commit),
        // but seq 1 overwrites r1 unconditionally, so nothing survives.
        assert!(faulty.chains_match(&golden));
        assert_eq!(faulty.rf_hash, golden.rf_hash);
    }

    /// A memory op of thread 0 at word address `addr`.
    fn mem_op(
        seq: u64,
        op: OpClass,
        addr: u64,
        dest: Option<Reg>,
        srcs: [Option<Reg>; 2],
    ) -> CommitRec {
        CommitRec {
            mem_addr: Some(addr * 8),
            ..rec(seq, op, dest, srcs)
        }
    }

    /// Judge `directive` differentially and check the verdict against a
    /// full replay.
    fn judged(stream: &[CommitRec], directive: FaultDirective) -> Verdict {
        let golden = golden_digest(1, stream);
        let trace = GoldenTrace::from_commits(1, stream);
        assert_eq!(trace.digest(), &golden);
        let verdict = trace.judge(directive);
        assert_eq!(verdict, Verdict::of(&replay(1, stream, directive), &golden));
        verdict
    }

    fn perturb(victim_seq: u64) -> FaultDirective {
        FaultDirective::PerturbResult {
            victim_seq,
            perturbation: 1 << 9,
        }
    }

    #[test]
    fn perturbing_a_sink_itself_is_sdc() {
        let stream = vec![
            rec(1, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            rec(2, OpClass::Store, None, [Some(Reg::int(1)), None]),
            CommitRec {
                ctrl: Some((true, 0x500)),
                ..rec(3, OpClass::CondBranch, None, [Some(Reg::int(1)), None])
            },
            rec(4, OpClass::IAlu, Some(Reg::int(2)), [None, None]),
        ];
        for victim in [2, 3] {
            let v = judged(&stream, perturb(victim));
            assert!(!v.chains_match, "sink seq {victim}");
            assert!(!v.latent);
        }
    }

    #[test]
    fn store_load_chain_through_a_word_overwritten_clean() {
        // seq 1's corrupted value is stored to word 5 and loaded back
        // into r2 before seq 5 overwrites the word with a clean value;
        // the later load of word 5 reads golden data again.
        let stream = vec![
            rec(1, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            mem_op(2, OpClass::Store, 5, None, [Some(Reg::int(1)), None]),
            mem_op(3, OpClass::Load, 5, Some(Reg::int(2)), [None, None]),
            rec(4, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            mem_op(5, OpClass::Store, 5, None, [Some(Reg::int(1)), None]),
            mem_op(6, OpClass::Load, 5, Some(Reg::int(3)), [None, None]),
            rec(7, OpClass::IAlu, Some(Reg::int(2)), [None, None]),
        ];
        let v = judged(&stream, perturb(1));
        assert!(!v.chains_match, "the corrupted store is a sink");
        // A flip of r1 after its corrupted store cannot reach memory.
        let v = judged(
            &stream,
            FaultDirective::FlipRegister {
                tid: 0,
                reg_index: Reg::int(1).flat_index(),
                bit: 3,
                at_cycle: 3,
            },
        );
        assert_eq!(v, Verdict::CLEAN, "r1 is overwritten before it is read");
    }

    #[test]
    fn dirty_register_overwritten_clean_is_masked() {
        let stream = vec![
            rec(1, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            rec(
                2,
                OpClass::IAlu,
                Some(Reg::int(2)),
                [Some(Reg::int(1)), None],
            ),
            rec(3, OpClass::IAlu, Some(Reg::int(2)), [None, None]),
            rec(4, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            rec(
                5,
                OpClass::Store,
                None,
                [Some(Reg::int(2)), Some(Reg::int(1))],
            ),
        ];
        assert_eq!(judged(&stream, perturb(1)), Verdict::CLEAN);
    }

    #[test]
    fn flip_after_the_threads_last_commit_is_never_applied() {
        let stream = vec![
            rec(1, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            rec(2, OpClass::Store, None, [Some(Reg::int(1)), None]),
        ];
        let v = judged(
            &stream,
            FaultDirective::FlipRegister {
                tid: 0,
                reg_index: Reg::int(1).flat_index(),
                bit: 5,
                at_cycle: 3,
            },
        );
        assert_eq!(v, Verdict::CLEAN);
    }

    #[test]
    fn diverged_chain_with_dirty_registers_at_the_end_is_sdc() {
        let stream = vec![
            rec(1, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            rec(2, OpClass::Store, None, [Some(Reg::int(1)), None]),
            rec(
                3,
                OpClass::IAlu,
                Some(Reg::int(2)),
                [Some(Reg::int(1)), None],
            ),
        ];
        let golden = golden_digest(1, &stream);
        let faulty = replay(1, &stream, perturb(1));
        assert_ne!(faulty.rf_hash, golden.rf_hash, "r1 and r2 stay dirty");
        let v = judged(&stream, perturb(1));
        assert!(!v.chains_match);
        assert!(!v.latent, "latent is only reported for matching chains");
    }

    #[test]
    fn latent_flip_is_latent_under_both_evaluators() {
        let stream = vec![
            rec(1, OpClass::IAlu, Some(Reg::int(1)), [None, None]),
            rec(2, OpClass::Store, None, [Some(Reg::int(1)), None]),
            rec(3, OpClass::IAlu, Some(Reg::int(2)), [None, None]),
        ];
        let v = judged(
            &stream,
            FaultDirective::FlipRegister {
                tid: 0,
                reg_index: Reg::int(1).flat_index(),
                bit: 7,
                at_cycle: 3,
            },
        );
        assert_eq!(
            v,
            Verdict {
                chains_match: true,
                latent: true
            }
        );
    }
}
