//! Event-driven IQ wakeup and the incremental ready list.
//!
//! Wakeup: at dispatch, every outstanding source of an instruction is
//! registered in its producer's *consumer list* as an `(id, seq)` pair
//! (indexed by the producer's slab slot). A completing producer drains
//! only its own list and clears the matching `waiting_on` slots; pairs
//! whose consumer has since been squashed (slot dead or recycled, so
//! `seq` no longer matches) are dropped.
//!
//! Select: the ready list holds `(id, seq)` pairs of IQ entries whose
//! operands are all available. An entry is pushed when it dispatches
//! with every source ready, or when its last source wakes up. Entries
//! that have since issued, been squashed, been recycled or been
//! fault-inhibited are dropped lazily when the issue stage gathers the
//! list. Issue policies sort by a total order (`seq`, or `(!ace, seq)`),
//! so the list's order never reaches the simulated outcome.
//!
//! The running `executing`/`executing_ace` counters count IQ entries in
//! the `Issued` stage (RUU-style: the entry is held until writeback).
//!
//! Everything here is derived from the slab and the IQ: it is never
//! serialized, and [`Wakeup::rebuild`] reconstructs it from scratch on
//! restore. [`Wakeup::check`] recounts it for the `--selfcheck` sweep.

use crate::iq::IssueQueue;
use crate::issue::ReadyInst;
use crate::types::{InstId, InstInfo, InstSlab, InstStage};
use micro_isa::DynSeq;

/// Consumer lists, ready list and executing counters.
#[derive(Debug, Default)]
pub(crate) struct Wakeup {
    /// `consumers[p]`: instructions waiting on producer slot `p`.
    consumers: Vec<Vec<(InstId, DynSeq)>>,
    /// Candidates for select (possibly stale; see module docs).
    ready: Vec<(InstId, DynSeq)>,
    executing: usize,
    executing_ace: usize,
}

/// The live occupant of slot `id`, if it is still instruction `seq`.
#[inline]
fn is_current(slab: &InstSlab, id: InstId, seq: DynSeq) -> Option<&InstInfo> {
    if !slab.contains(id) {
        return None;
    }
    let info = slab.get(id);
    (info.inst.seq == seq).then_some(info)
}

/// A selectable IQ entry: dispatched, operands ready, not inhibited.
#[inline]
fn selectable(info: &InstInfo) -> bool {
    info.stage == InstStage::Dispatched && info.sources_ready() && !info.inhibit_issue
}

impl Wakeup {
    /// IQ entries currently executing (issued, not yet written back).
    pub fn executing(&self) -> usize {
        self.executing
    }

    /// ACE-hinted IQ entries currently executing.
    pub fn executing_ace(&self) -> usize {
        self.executing_ace
    }

    /// Both the ready list and some consumer list hold entries (tests).
    #[cfg(test)]
    pub fn has_pending(&self) -> bool {
        !self.ready.is_empty() && self.consumers.iter().any(|l| !l.is_empty())
    }

    /// `id` (sequence `seq`) entered the IQ waiting on `waiting`.
    pub fn on_dispatch(&mut self, id: InstId, seq: DynSeq, waiting: [Option<InstId>; 2]) {
        // Nobody can wait on `id` before it dispatches, so whatever the
        // slot's previous (squashed) occupant left behind is stale.
        if let Some(list) = self.consumers.get_mut(id) {
            list.clear();
        }
        self.register(id, seq, waiting);
    }

    /// Register `id`'s outstanding sources, or mark it ready if none.
    fn register(&mut self, id: InstId, seq: DynSeq, waiting: [Option<InstId>; 2]) {
        let top = waiting.into_iter().flatten().max().unwrap_or(0).max(id);
        if top >= self.consumers.len() {
            self.consumers.resize_with(top + 1, Vec::new);
        }
        match waiting {
            [None, None] => self.ready.push((id, seq)),
            [Some(a), Some(b)] if a == b => self.consumers[a].push((id, seq)),
            _ => {
                for p in waiting.into_iter().flatten() {
                    self.consumers[p].push((id, seq));
                }
            }
        }
    }

    /// Producer `id` completed: wake its registered consumers.
    pub fn on_complete(&mut self, slab: &mut InstSlab, id: InstId) {
        let Some(list) = self.consumers.get_mut(id) else {
            return;
        };
        let mut list = std::mem::take(list);
        for &(c, seq) in &list {
            if is_current(slab, c, seq).is_none() {
                continue; // consumer squashed since it registered
            }
            let info = slab.get_mut(c);
            let mut cleared = false;
            for w in &mut info.waiting_on {
                if *w == Some(id) {
                    *w = None;
                    cleared = true;
                }
            }
            if cleared && info.sources_ready() {
                self.ready.push((c, seq));
            }
        }
        list.clear();
        self.consumers[id] = list;
    }

    /// An IQ entry moved to `Issued`.
    pub fn on_issue(&mut self, ace_hint: bool) {
        self.executing += 1;
        self.executing_ace += ace_hint as usize;
    }

    /// An IQ entry was freed (writeback or squash) in stage `stage`.
    pub fn on_iq_free(&mut self, stage: InstStage, ace_hint: bool) {
        if stage == InstStage::Issued {
            self.executing -= 1;
            self.executing_ace -= ace_hint as usize;
        }
    }

    /// Drop stale ready-list entries and write the selectable ones into
    /// `out` (cleared first), in no particular order.
    pub fn gather(&mut self, slab: &InstSlab, out: &mut Vec<ReadyInst>) {
        out.clear();
        self.ready.retain(|&(id, seq)| {
            let Some(info) = is_current(slab, id, seq).filter(|i| selectable(i)) else {
                return false;
            };
            out.push(ReadyInst {
                id,
                seq,
                tid: info.inst.tid,
                op: info.inst.op,
                ace_hint: info.inst.ace_hint,
                wrong_path: info.inst.wrong_path,
            });
            true
        });
    }

    /// Reconstruct all derived state from the slab and the IQ (whose
    /// entries must be live slab slots). Fails on a `waiting_on` edge to
    /// a dead producer, which a consistent snapshot cannot contain.
    pub fn rebuild(&mut self, slab: &InstSlab, iq: &IssueQueue) -> Result<(), String> {
        for list in &mut self.consumers {
            list.clear();
        }
        self.ready.clear();
        self.executing = 0;
        self.executing_ace = 0;
        for id in iq.iter() {
            let info = slab.get(id);
            match info.stage {
                InstStage::Issued => self.on_issue(info.inst.ace_hint),
                InstStage::Dispatched => {
                    if let Some(p) = info
                        .waiting_on
                        .into_iter()
                        .flatten()
                        .find(|&p| !slab.contains(p))
                    {
                        return Err(format!("IQ entry {id} waits on dead producer {p}"));
                    }
                    self.register(id, info.inst.seq, info.waiting_on)
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Recount the derived state from scratch and compare.
    pub fn check(&self, slab: &InstSlab, iq: &IssueQueue) -> Result<(), String> {
        let (mut executing, mut executing_ace, mut selectable_n) = (0usize, 0usize, 0usize);
        for id in iq.iter() {
            let info = slab.get(id);
            if info.stage == InstStage::Issued {
                executing += 1;
                executing_ace += info.inst.ace_hint as usize;
            }
            if selectable(info) {
                selectable_n += 1;
                if !self.ready.contains(&(id, info.inst.seq)) {
                    return Err(format!(
                        "selectable IQ entry {id} (seq {}) missing from the ready list",
                        info.inst.seq
                    ));
                }
            }
            if info.stage != InstStage::Dispatched {
                continue;
            }
            for p in info.waiting_on.into_iter().flatten() {
                if !slab.contains(p) || slab.get(p).stage == InstStage::Completed {
                    return Err(format!(
                        "IQ entry {id} (seq {}) waits on dead or completed producer {p}",
                        info.inst.seq
                    ));
                }
                let registered = self
                    .consumers
                    .get(p)
                    .is_some_and(|l| l.contains(&(id, info.inst.seq)));
                if !registered {
                    return Err(format!(
                        "IQ entry {id} (seq {}) waits on {p} but is not in its consumer list",
                        info.inst.seq
                    ));
                }
            }
        }
        let mut live: Vec<InstId> = self
            .ready
            .iter()
            .filter(|&&(id, seq)| is_current(slab, id, seq).is_some_and(selectable))
            .map(|&(id, _)| id)
            .collect();
        let pairs = live.len();
        live.sort_unstable();
        live.dedup();
        if live.len() != pairs {
            return Err("ready list holds a live entry twice".into());
        }
        // Every selectable IQ entry is in `live` (checked above), so
        // equal counts leave no live entry outside the IQ.
        if live.len() != selectable_n {
            return Err(format!(
                "ready list holds {} distinct live entries, IQ has {selectable_n} selectable",
                live.len()
            ));
        }
        if (executing, executing_ace) != (self.executing, self.executing_ace) {
            return Err(format!(
                "executing counters {}/{} (all/ACE) != {executing}/{executing_ace} recounted",
                self.executing, self.executing_ace
            ));
        }
        Ok(())
    }
}
