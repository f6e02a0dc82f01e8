//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a layer name, a start and an end (ns since the tracer's
//! epoch), the span that caused it and the id of the round it belongs to.
//! Every span's duration (divided by the keys or frames it carried) lands
//! in its layer's [`Hist`]; each layer's first `cap` spans are also kept
//! and written out when the benchmark ends, each with its self time: its
//! duration minus the part of its interval its children cover.

use std::io::Write;
use std::time::Instant;

use crate::hist::Hist;

/// The layer boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One `StoreHandle::read`.
    StoreRead,
    /// One `StoreHandle::update_with`.
    StoreUpdate,
    /// One pipelined client round (send, flush, every reply).
    ClientRound,
    /// Encoding a round's request frames into the client buffer.
    ClientEncode,
    /// Writing a round's frames to the socket.
    ClientFlush,
    /// Waiting for and decoding a round's replies.
    ClientRecv,
    /// One mesh round (update batch plus read batch).
    MeshRound,
    /// One `MeshHandle::update_batch`.
    MeshUpdate,
    /// One `MeshHandle::read_many_into`.
    MeshRead,
    /// One `TaggedLlSc` LL+SC pair.
    LlSc,
    /// One update through a persistent `MwLlSc` handle.
    CoreUpdate,
    /// One read through a persistent `MwLlSc` handle.
    CoreRead,
    /// One `MwLlSc::claim` plus drop.
    CoreClaim,
    /// One `StoreHandle::read_many_into`, per key.
    BatchRead,
    /// One `StoreHandle::update_many_with`, per key.
    BatchUpdate,
    /// Encode+decode of a round's request and response frames, per frame.
    Codec,
}

impl Layer {
    const COUNT: usize = 16;

    /// The span name written out.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::StoreRead => "store.read",
            Layer::StoreUpdate => "store.update",
            Layer::ClientRound => "client.round",
            Layer::ClientEncode => "client.encode",
            Layer::ClientFlush => "client.flush",
            Layer::ClientRecv => "client.recv",
            Layer::MeshRound => "mesh.round",
            Layer::MeshUpdate => "mesh.update_batch",
            Layer::MeshRead => "mesh.read_many",
            Layer::LlSc => "llsc.ll_sc",
            Layer::CoreUpdate => "core.update",
            Layer::CoreRead => "core.read",
            Layer::CoreClaim => "core.claim",
            Layer::BatchRead => "store.batch_read",
            Layer::BatchUpdate => "store.batch_update",
            Layer::Codec => "server.codec",
        }
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Where it was recorded.
    pub layer: Layer,
    /// Start, ns since the tracer epoch.
    pub start: u64,
    /// End, ns since the tracer epoch.
    pub end: u64,
    /// Index of the enclosing span, if it was kept.
    pub parent: Option<u32>,
    /// The round (or op) this span belongs to.
    pub round: u64,
}

/// An open span: its children may name it as parent before it ends.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    layer: Layer,
    t0: Instant,
    slot: Option<u32>,
}

impl Open {
    /// The kept index children should record as their parent.
    #[must_use]
    pub fn slot(&self) -> Option<u32> {
        self.slot
    }
}

/// One thread's spans and per-layer histograms.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    cap: usize,
    spans: Vec<Span>,
    kept: [usize; Layer::COUNT],
    hists: Vec<Hist>,
}

impl Tracer {
    /// A tracer timing from `epoch` that keeps at most `cap` spans of
    /// each layer.
    #[must_use]
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Self {
            epoch,
            cap,
            spans: Vec::new(),
            kept: [0; Layer::COUNT],
            hists: vec![Hist::default(); Layer::COUNT],
        }
    }

    /// The instant span times count from.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn keep(&mut self, span: Span) -> Option<u32> {
        let kept = &mut self.kept[span.layer as usize];
        if *kept >= self.cap {
            return None;
        }
        *kept += 1;
        self.spans.push(span);
        Some(self.spans.len() as u32 - 1)
    }

    /// Opens a span; its end is filled in by [`close`](Self::close).
    pub fn open(&mut self, layer: Layer, t0: Instant, parent: Option<u32>, round: u64) -> Open {
        let start = self.ns(t0);
        let slot = self.keep(Span { layer, start, end: start, parent, round });
        Open { layer, t0, slot }
    }

    /// Ends `open` at `t1`; its duration over `per` goes to the layer's
    /// histogram.
    pub fn close(&mut self, open: Open, t1: Instant, per: u64) {
        if let Some(i) = open.slot {
            let end = self.ns(t1);
            self.spans[i as usize].end = end;
        }
        let ns = t1.saturating_duration_since(open.t0).as_nanos() as u64;
        self.hists[open.layer as usize].record(ns / per.max(1));
    }

    /// Records a span with no children in one call.
    pub fn leaf(
        &mut self,
        layer: Layer,
        t0: Instant,
        t1: Instant,
        parent: Option<u32>,
        round: u64,
        per: u64,
    ) {
        let open = self.open(layer, t0, parent, round);
        self.close(open, t1, per);
    }

    /// The histogram of `layer`'s span durations.
    #[must_use]
    pub fn hist(&self, layer: Layer) -> &Hist {
        &self.hists[layer as usize]
    }

    /// Moves `other`'s spans and samples into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// Writes every kept span as one tab-separated line: index, name,
    /// start, end, parent (-1 for none), round, self time.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start, s.end));
            }
        }
        writeln!(out, "idx\tname\tstart_ns\tend_ns\tparent\tround\tself_ns")?;
        for (i, (s, kids)) in self.spans.iter().zip(children.iter_mut()).enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            let own = self_time((s.start, s.end), kids);
            let name = s.layer.name();
            writeln!(out, "{i}\t{name}\t{}\t{}\t{parent}\t{}\t{own}", s.start, s.end, s.round)?;
        }
        Ok(())
    }
}

/// A span's self time: its duration minus the part of `[start, end)` that
/// the union of its children's intervals covers. Children may overlap
/// each other or stick out of the span; both are clipped, never counted
/// twice.
pub fn self_time(span: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (start, end) = span;
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(c0, c1) in children.iter() {
        let lo = c0.max(reach);
        let hi = c1.min(end);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &mut []), 100, "no children: all self");
        assert_eq!(self_time((0, 100), &mut [(10, 30), (50, 60)]), 70, "disjoint");
        assert_eq!(self_time((0, 100), &mut [(20, 40), (10, 30)]), 70, "overlap counted once");
        assert_eq!(self_time((0, 100), &mut [(10, 50), (20, 30)]), 60, "nested child");
        assert_eq!(self_time((0, 100), &mut [(90, 130), (0, 5)]), 85, "clipped");
        assert_eq!(self_time((0, 100), &mut [(0, 100), (0, 100)]), 0, "fully covered");
    }

    #[test]
    fn spans_link_children_to_parents_and_write_self_time() {
        let epoch = Instant::now();
        let ms = |n: u64| epoch + std::time::Duration::from_millis(n);
        let mut t = Tracer::new(epoch, 16);
        let round = t.open(Layer::MeshRound, ms(0), None, 7);
        t.leaf(Layer::MeshUpdate, ms(1), ms(3), round.slot(), 7, 1);
        t.leaf(Layer::MeshRead, ms(4), ms(5), round.slot(), 7, 1);
        t.close(round, ms(10), 1);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        let mut out = Vec::new();
        t.write_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let first = text.lines().nth(1).unwrap();
        assert!(first.ends_with("\t7\t7000000"), "round self = 10 - 2 - 1 ms: {first}");
        assert_eq!(t.hist(Layer::MeshRound).count(), 1);
    }

    #[test]
    fn capped_tracer_still_counts_samples() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 1);
        t.leaf(Layer::CoreRead, epoch, epoch, None, 0, 1);
        t.leaf(Layer::CoreRead, epoch, epoch, None, 1, 1);
        t.leaf(Layer::CoreUpdate, epoch, epoch, None, 2, 1);
        assert_eq!(t.spans.len(), 2, "one span per layer");
        assert_eq!(t.hist(Layer::CoreRead).count(), 2);
    }
}
