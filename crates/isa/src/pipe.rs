//! Bounded batch channels: the pipelined sibling of
//! [`Broadcast`](crate::trace::Broadcast).
//!
//! The experiment runner no longer pipelines (it was slower than one worker
//! on every measured grid); the only caller left is the `perfbench` ladder's
//! `L2p` rung, and this module goes with the benchmark change (ROADMAP
//! item 2).
//!
//! [`Broadcast`](crate::trace::Broadcast) drives its children serially on the
//! interpreter's thread — one thread does 1 interpret + N simulates. This
//! module splits that into a producer/consumer pipeline: the interpreter
//! publishes *batches* of [`DynInst`]s (contiguous `Arc<[DynInst]>` slices,
//! shared by all members without cloning the instructions) into one bounded
//! SPSC channel per member, and each member's simulator drains its channel on
//! its own thread. The bound provides backpressure: total buffered memory
//! stays O(batch × capacity × members), never O(trace).
//!
//! The building blocks:
//!
//! * [`batch_channel`] — a bounded single-producer single-consumer channel of
//!   [`Batch`]es over [`std::sync::mpsc::sync_channel`]. Dropping either
//!   endpoint closes the channel: a closed-receiver `send` returns
//!   [`Disconnected`] (and discards what was queued), a closed-sender `recv`
//!   drains the queue and then returns `None`.
//! * [`BatchSink`] — a [`TraceSink`] that accumulates instructions into a
//!   batch and, when full, sends one `Arc` clone of the batch to every member
//!   channel in member order. Call [`BatchSink::finish`] to flush the final
//!   partial batch and close the channels; merely *dropping* the sink closes
//!   the channels **without flushing** (so a panicking producer unblocks its
//!   consumers instead of blocking on a full channel during unwind).
//!
//! Batches are contiguous slices so a future SIMD decode/execute stage can
//! process them without re-gathering.

use crate::trace::{DynInst, TraceSink};
use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// A contiguous, immutable run of dynamic instructions in program order,
/// cheaply shareable across consumer threads.
pub type Batch = Arc<[DynInst]>;

/// Default number of instructions per batch published by a [`BatchSink`].
pub const DEFAULT_BATCH_INSTS: usize = 1024;

/// Default per-member channel capacity, in batches.
pub const DEFAULT_CHANNEL_BATCHES: usize = 4;

/// Error returned by [`BatchSender::send`] when the receiving end has been
/// dropped: nobody will ever consume the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl fmt::Display for Disconnected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("batch channel receiver disconnected")
    }
}

impl std::error::Error for Disconnected {}

/// Producer endpoint of a bounded batch channel (see [`batch_channel`]).
#[derive(Debug)]
pub struct BatchSender(SyncSender<Batch>);

/// Consumer endpoint of a bounded batch channel (see [`batch_channel`]).
#[derive(Debug)]
pub struct BatchReceiver(Receiver<Batch>);

/// Create a bounded SPSC channel carrying [`Batch`]es.
///
/// `capacity` is the maximum number of batches buffered in flight (clamped to
/// at least 1). A full channel blocks [`BatchSender::send`] until the
/// receiver drains a batch — this backpressure is what bounds the pipeline's
/// memory. Both endpoints are `Send`, so producer and consumer can live on
/// different threads; neither is `Clone` (single producer, single consumer).
pub fn batch_channel(capacity: usize) -> (BatchSender, BatchReceiver) {
    let (tx, rx) = sync_channel(capacity.max(1));
    (BatchSender(tx), BatchReceiver(rx))
}

impl BatchSender {
    /// Enqueue a batch, blocking while the channel is full.
    ///
    /// Returns [`Disconnected`] if the receiver has been dropped (including
    /// while blocked waiting for space) — the batch is discarded in that case.
    pub fn send(&self, batch: Batch) -> Result<(), Disconnected> {
        self.0.send(batch).map_err(|_| Disconnected)
    }
}

impl BatchReceiver {
    /// Dequeue the next batch, blocking while the channel is empty.
    ///
    /// Returns `None` once the sender has been dropped *and* the queue is
    /// drained — already-enqueued batches are always delivered first, so a
    /// producer that `finish()`es and exits loses nothing.
    pub fn recv(&self) -> Option<Batch> {
        self.0.recv().ok()
    }
}

/// A [`TraceSink`] that batches instructions and fans the batches out to N
/// member channels — the channel-backed sibling of
/// [`Broadcast`](crate::trace::Broadcast).
///
/// Each full batch is sent to every live member in member order (one `Arc`
/// clone per member; the instructions themselves are shared, not copied). A
/// member whose receiver has hung up is skipped from then on. The producer
/// must call [`BatchSink::finish`] when the stream ends: it flushes the final
/// partial batch and closes all channels. Dropping the sink without
/// `finish()` closes the channels **without flushing** — deliberate, so an
/// unwinding producer never blocks on a full channel and its consumers see
/// end-of-stream promptly.
#[derive(Debug)]
pub struct BatchSink {
    buf: Vec<DynInst>,
    batch_insts: usize,
    outputs: Vec<Option<BatchSender>>,
}

impl BatchSink {
    /// Build a sink fanning out to `outputs` with `batch_insts` instructions
    /// per batch (clamped to at least 1).
    pub fn new(outputs: Vec<BatchSender>, batch_insts: usize) -> Self {
        let batch_insts = batch_insts.max(1);
        Self {
            buf: Vec::with_capacity(batch_insts),
            batch_insts,
            outputs: outputs.into_iter().map(Some).collect(),
        }
    }

    /// Number of member channels (live or hung-up).
    pub fn members(&self) -> usize {
        self.outputs.len()
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let batch: Batch = std::mem::take(&mut self.buf).into();
        self.buf.reserve(self.batch_insts);
        for slot in &mut self.outputs {
            if let Some(tx) = slot {
                if tx.send(Arc::clone(&batch)).is_err() {
                    *slot = None;
                }
            }
        }
    }

    /// Flush the final partial batch and close every member channel, marking
    /// a clean end-of-stream for the consumers.
    pub fn finish(mut self) {
        self.flush();
        // Dropping `self` drops the senders, which closes the channels.
    }
}

impl TraceSink for BatchSink {
    fn emit(&mut self, inst: DynInst) {
        self.buf.push(inst);
        if self.buf.len() >= self.batch_insts {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::InstClass;
    use std::thread;

    fn inst(pc: u64) -> DynInst {
        DynInst::new(InstClass::IntSimple, pc)
    }

    #[test]
    fn batches_arrive_in_fifo_order_and_close_cleanly() {
        let (tx, rx) = batch_channel(2);
        let producer = thread::spawn(move || {
            for base in 0..5u64 {
                let batch: Batch = vec![inst(base * 2), inst(base * 2 + 1)].into();
                tx.send(batch).expect("receiver alive");
            }
            // tx dropped here: clean close.
        });
        let mut pcs = Vec::new();
        while let Some(batch) = rx.recv() {
            pcs.extend(batch.iter().map(|i| i.pc));
        }
        producer.join().unwrap();
        assert_eq!(pcs, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn capacity_one_backpressure_still_delivers_everything() {
        let (tx, rx) = batch_channel(1);
        let producer = thread::spawn(move || {
            for pc in 0..64u64 {
                tx.send(vec![inst(pc)].into()).expect("receiver alive");
            }
        });
        let mut seen = 0u64;
        while let Some(batch) = rx.recv() {
            for i in batch.iter() {
                assert_eq!(i.pc, seen);
                seen += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, 64);
    }

    #[test]
    fn send_fails_once_receiver_is_gone() {
        let (tx, rx) = batch_channel(4);
        drop(rx);
        assert_eq!(tx.send(vec![inst(0)].into()), Err(Disconnected));
    }

    #[test]
    fn dropping_receiver_unblocks_a_full_sender() {
        let (tx, rx) = batch_channel(1);
        tx.send(vec![inst(0)].into()).expect("space for one");
        let blocked = thread::spawn(move || tx.send(vec![inst(1)].into()));
        // Give the sender a chance to block on the full channel, then hang up.
        thread::sleep(std::time::Duration::from_millis(10));
        drop(rx);
        assert_eq!(blocked.join().unwrap(), Err(Disconnected));
    }

    #[test]
    fn batch_sink_flushes_full_batches_and_finish_flushes_the_tail() {
        let (tx_a, rx_a) = batch_channel(8);
        let (tx_b, rx_b) = batch_channel(8);
        let mut sink = BatchSink::new(vec![tx_a, tx_b], 3);
        assert_eq!(sink.members(), 2);
        for pc in 0..7u64 {
            sink.emit(inst(pc));
        }
        sink.finish();
        for rx in [rx_a, rx_b] {
            let sizes: Vec<usize> = std::iter::from_fn(|| rx.recv()).map(|b| b.len()).collect();
            assert_eq!(sizes, vec![3, 3, 1], "two full batches plus the tail");
        }
    }

    #[test]
    fn dropping_batch_sink_closes_without_flushing() {
        let (tx, rx) = batch_channel(8);
        let mut sink = BatchSink::new(vec![tx], 100);
        sink.emit(inst(0));
        drop(sink); // no finish(): the partial batch is discarded
        assert!(rx.recv().is_none(), "drop must close without flushing");
    }

    #[test]
    fn batch_sink_survives_a_hung_up_member() {
        let (tx_a, rx_a) = batch_channel(8);
        let (tx_b, rx_b) = batch_channel(8);
        drop(rx_b); // member B gives up immediately
        let mut sink = BatchSink::new(vec![tx_a, tx_b], 2);
        for pc in 0..4u64 {
            sink.emit(inst(pc));
        }
        sink.finish();
        let total: usize = std::iter::from_fn(|| rx_a.recv()).map(|b| b.len()).sum();
        assert_eq!(total, 4, "member A still sees the full stream");
    }
}
