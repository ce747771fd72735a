//! In-memory trace sinks.

use crate::{TraceEvent, TraceSink};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Bounded in-memory ring buffer: keeps the most recent `capacity`
/// events. Inspection goes through a cloneable [`RingHandle`] obtained
/// *before* the sink is handed to a `Tracer` (the same pattern the
/// simulator uses for DVM telemetry handles).
pub struct RingSink {
    buf: Arc<Mutex<RingState>>,
}

struct RingState {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    /// Total events ever recorded (including those evicted).
    recorded: u64,
}

impl RingSink {
    pub fn new(capacity: usize) -> RingSink {
        assert!(capacity > 0, "ring capacity must be nonzero");
        RingSink {
            buf: Arc::new(Mutex::new(RingState {
                events: VecDeque::with_capacity(capacity),
                capacity,
                recorded: 0,
            })),
        }
    }

    pub fn handle(&self) -> RingHandle {
        RingHandle {
            buf: Arc::clone(&self.buf),
        }
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        let mut state = self.buf.lock();
        if state.events.len() == state.capacity {
            state.events.pop_front();
        }
        state.events.push_back(event.clone());
        state.recorded += 1;
    }
}

/// Shared view into a [`RingSink`]'s buffer.
#[derive(Clone)]
pub struct RingHandle {
    buf: Arc<Mutex<RingState>>,
}

impl RingHandle {
    /// Events currently retained, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.buf.lock().events.iter().cloned().collect()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events recorded over the sink's lifetime, counting those
    /// already evicted from the ring.
    pub fn total_recorded(&self) -> u64 {
        self.buf.lock().recorded
    }

    /// Retained events matching an event-kind label (`"dvm_trigger"`,
    /// `"interval"`, ...).
    pub fn of_kind(&self, kind: &str) -> Vec<TraceEvent> {
        self.buf
            .lock()
            .events
            .iter()
            .filter(|e| e.kind() == kind)
            .cloned()
            .collect()
    }

    pub fn clear(&self) {
        let mut state = self.buf.lock();
        state.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(cycle: u64) -> TraceEvent {
        TraceEvent::L2Miss {
            cycle,
            tid: 0,
            addr: cycle * 64,
        }
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let mut sink = RingSink::new(3);
        let handle = sink.handle();
        for c in 0..5 {
            sink.record(&miss(c));
        }
        let kept: Vec<u64> = handle.snapshot().iter().map(|e| e.cycle()).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(handle.total_recorded(), 5);
    }

    #[test]
    fn ring_kind_filter() {
        let mut sink = RingSink::new(8);
        let handle = sink.handle();
        sink.record(&miss(1));
        sink.record(&TraceEvent::Writeback { cycle: 2, count: 3 });
        assert_eq!(handle.of_kind("l2_miss").len(), 1);
        assert_eq!(handle.of_kind("writeback").len(), 1);
        assert!(handle.of_kind("flush").is_empty());
    }
}
