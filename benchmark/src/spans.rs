//! Outside-in tracing: spans recorded from the benchmark's own files, around
//! its calls into the engine and inside its own handler. Spans are held in
//! memory while the run is timed and written out when it ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Whether the current slice is traced. Flipped only while no call is in
/// flight (between slices), so a call is traced on both sides or neither.
static TRACING: AtomicBool = AtomicBool::new(false);

pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::SeqCst);
}

pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// One call in eight is sampled; the call id's low bits decide, so the
/// caller and the handler agree without talking.
pub fn sampled(call_id: u64) -> bool {
    call_id.is_multiple_of(8)
}

/// One interval on the process clock (`host::now_ns`). Spans of one call
/// share `trace`, the call id; `parent` names the span that caused this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub trace: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Time in this span that no child covers: its duration minus the union
    /// of the children's intervals, clipped to the span.
    pub fn self_ns(&self, children: &[Span]) -> u64 {
        let mut cuts: Vec<(u64, u64)> = children
            .iter()
            .map(|c| (c.start_ns.max(self.start_ns), c.end_ns.min(self.end_ns)))
            .filter(|(s, e)| e > s)
            .collect();
        cuts.sort_unstable();
        let mut covered = 0;
        let mut frontier = self.start_ns;
        for (start, end) in cuts {
            let start = start.max(frontier);
            if end > start {
                covered += end - start;
                frontier = end;
            }
        }
        self.dur_ns() - covered
    }
}

/// The caller's view of one sampled call: `Client::call` (or an HBase
/// get/put) entered at `start_ns` and returned at `end_ns`.
#[derive(Debug, Clone, Copy)]
pub struct CallSpan {
    pub call_id: u64,
    /// Operation class, for workloads with more than one (`Caller::kind`).
    pub kind: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The handler's view: the benchmark's own `RpcService::call` body.
#[derive(Debug, Clone, Copy)]
pub struct HandlerSpan {
    pub call_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

static HANDLER_SPANS: Mutex<Vec<HandlerSpan>> = Mutex::new(Vec::new());

pub fn record_handler(span: HandlerSpan) {
    HANDLER_SPANS
        .lock()
        .expect("a handler panicked while recording a span")
        .push(span);
}

pub fn take_handler_spans() -> Vec<HandlerSpan> {
    std::mem::take(
        &mut *HANDLER_SPANS
            .lock()
            .expect("a handler panicked while recording a span"),
    )
}

/// The span tree of one echo call. The handler interval splits the call
/// into the path in, the handler, and the path back; the three children
/// tile the parent exactly, because they are cut from the same clock.
pub fn call_tree(call: &CallSpan, handler: &HandlerSpan) -> [Span; 4] {
    let span = |name, parent, start_ns, end_ns| Span {
        trace: call.call_id,
        name,
        parent,
        start_ns,
        end_ns,
    };
    // A handler stamp outside the call would mean two clocks; clamp so the
    // arithmetic stays total and let the tiling check report it.
    let h0 = handler.start_ns.clamp(call.start_ns, call.end_ns);
    let h1 = handler.end_ns.clamp(h0, call.end_ns);
    [
        span("call", None, call.start_ns, call.end_ns),
        span("request_path", Some("call"), call.start_ns, h0),
        span("handler", Some("call"), h0, h1),
        span("response_path", Some("call"), h1, call.end_ns),
    ]
}

/// Write spans as JSON lines: one span per line, `workload` on each.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"trace\":{},\"span\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.trace, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_tile_the_call_span() {
        let call = CallSpan {
            call_id: 8,
            kind: 0,
            start_ns: 1_000,
            end_ns: 91_000,
        };
        let handler = HandlerSpan {
            call_id: 8,
            start_ns: 41_000,
            end_ns: 43_500,
        };
        let [root, req, h, resp] = call_tree(&call, &handler);
        assert_eq!(req.dur_ns() + h.dur_ns() + resp.dur_ns(), root.dur_ns());
        assert_eq!((req.end_ns, h.end_ns), (h.start_ns, resp.start_ns));
        assert_eq!(root.self_ns(&[req, h, resp]), 0);
        assert!([req, h, resp]
            .iter()
            .all(|s| s.parent == Some("call") && s.trace == 8));
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let span = |start_ns, end_ns| Span {
            trace: 1,
            name: "x",
            parent: None,
            start_ns,
            end_ns,
        };
        let root = span(100, 200);
        assert_eq!(root.self_ns(&[]), 100);
        // Overlapping children count once; a child past the end is clipped;
        // one wholly outside is ignored.
        let kids = [
            span(110, 130),
            span(120, 150),
            span(190, 260),
            span(300, 400),
        ];
        assert_eq!(root.self_ns(&kids), 100 - 40 - 10);
    }

    #[test]
    fn sampling_agrees_on_both_sides_and_takes_an_eighth() {
        let n = (0..8_000u64).filter(|id| sampled(*id)).count();
        assert_eq!(n, 1_000);
    }
}
