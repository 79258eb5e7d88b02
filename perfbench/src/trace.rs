//! Spans around the benchmark's calls into each layer's public API.
//!
//! A [`Tracer`] that is off runs the wrapped call and records nothing; one
//! that is on keeps every span in memory, tagged with the pass, the case and
//! the engine side it belongs to, until [`Tracer::write_jsonl`] writes them
//! out at the end of the run.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Which engine configuration of a case a span or result belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Side {
    /// The workload's primary engine: RIC3-pl, or BMC/k-induction with the
    /// default SAT search.
    Primary,
    /// The baseline: RIC3 with prediction off, or BMC/k-induction with the
    /// classic SAT search.
    Base,
}

impl Side {
    /// The name used in trace records.
    pub fn name(self) -> &'static str {
        match self {
            Side::Primary => "primary",
            Side::Base => "base",
        }
    }
}

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer call, e.g. `prep` or `ic3.check`.
    pub layer: &'static str,
    /// The pass the call ran in.
    pub pass: usize,
    /// Index of the case within the workload.
    pub case: usize,
    /// The engine side of the case.
    pub side: Side,
    /// Start, relative to the tracer's creation.
    pub start: Duration,
    /// Duration of the call.
    pub duration: Duration,
}

/// Records [`Span`]s when on; a pass-through when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    pass: usize,
    case: usize,
    side: Side,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            pass: 0,
            case: 0,
            side: Side::Primary,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off for the calls that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the spans that follow with a pass, a case and a side.
    pub fn enter(&mut self, pass: usize, case: usize, side: Side) {
        self.pass = pass;
        self.case = case;
        self.side = side;
    }

    /// Runs `call`, recording it as a span of `layer` when the tracer is on.
    pub fn span<T>(&mut self, layer: &'static str, call: impl FnOnce() -> T) -> T {
        if !self.on {
            return call();
        }
        let started = Instant::now();
        let out = call();
        let duration = started.elapsed();
        self.spans.push(Span {
            layer,
            pass: self.pass,
            case: self.case,
            side: self.side,
            start: started - self.origin,
            duration,
        });
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`, naming the workload and the
    /// case by its generator call.
    pub fn write_jsonl(
        &self,
        path: &Path,
        workload: &str,
        case_ids: &[String],
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"case\":\"{}\",\"side\":\"{}\",\"pass\":{},\"layer\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                case_ids[span.case],
                span.side.name(),
                span.pass,
                span.layer,
                span.start.as_secs_f64() * 1e6,
                span.duration.as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}
