//! Leveled, structured operational event log.
//!
//! Unlike [`TraceLog`](crate::TraceLog), which records *simulated* time
//! for Perfetto, this module records *operational* events — an engine
//! starting a batch or a retry wave — as key=value records with:
//!
//! * a severity [`Level`] filter fixed at construction,
//! * a **logical sequence number** per emitted record (dense, starting
//!   at 0), which is the determinism surface: two runs that perform the
//!   same logical work emit the same `seq`/`event`/`fields` stream,
//! * an optional wall-clock field (`wall_us`) that is *excluded* from
//!   determinism comparisons — [`strip_wall`] removes it so byte
//!   comparison across runs and worker counts is possible,
//! * span `begin`/`end` records correlated by a `span_id`.
//!
//! Two sinks can be armed in any combination: a JSONL file (one
//! versioned-schema object per line) and an in-memory JSONL buffer for
//! tests.
//! Events below the configured level are dropped *without* consuming a
//! sequence number, so the emitted stream stays dense at every level.

use crate::trace::{write_json_string, ArgValue};
use std::fmt;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// Version stamp written as `"v"` on every JSONL record; bump when the
/// line schema changes incompatibly.
pub const LOG_SCHEMA_VERSION: u64 = 1;

/// Event severity, most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed or data was lost.
    Error,
    /// Something suspicious that the run survived.
    Warn,
    /// Normal operational milestones (default).
    Info,
    /// Per-batch / per-sweep detail.
    Debug,
    /// Everything, including per-item chatter.
    Trace,
}

impl Level {
    /// Lower-case name, as serialized in JSONL records.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level name (as produced by [`Level::as_str`]).
    pub fn parse(s: &str) -> Result<Level, String> {
        match s {
            "error" => Ok(Level::Error),
            "warn" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!("unknown log level {other:?} (want error|warn|info|debug|trace)")),
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Marker for span records: plain events carry neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanPhase {
    Begin,
    End,
}

struct Inner {
    seq: u64,
    next_span: u64,
    file: Option<File>,
    memory: Option<String>,
}

/// A leveled structured logger with JSONL file/memory sinks.
///
/// Cheap to share behind an `Arc`; all sinks are guarded by one
/// internal mutex so records from concurrent threads interleave at
/// whole-record granularity and sequence numbers are globally ordered.
pub struct EventLog {
    level: Level,
    inner: Mutex<Inner>,
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventLog").field("level", &self.level).finish()
    }
}

impl EventLog {
    /// A logger with no sinks armed; every record is dropped.
    pub fn new(level: Level) -> EventLog {
        EventLog { level, inner: Mutex::new(Inner { seq: 0, next_span: 1, file: None, memory: None }) }
    }

    /// Arms a JSONL file sink at `path` (truncating any existing file).
    pub fn with_file(self, path: &Path) -> Result<EventLog, String> {
        let file = File::create(path).map_err(|e| format!("cannot create log file {}: {e}", path.display()))?;
        self.inner.lock().unwrap().file = Some(file);
        Ok(self)
    }

    /// A logger writing JSONL records to an in-memory buffer (tests).
    pub fn memory(level: Level) -> EventLog {
        let log = EventLog::new(level);
        log.inner.lock().unwrap().memory = Some(String::new());
        log
    }

    /// The configured severity floor.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Whether records at `level` would be emitted.
    #[inline]
    pub fn enabled(&self, level: Level) -> bool {
        level <= self.level
    }

    /// The accumulated in-memory JSONL buffer (empty unless constructed
    /// with [`EventLog::memory`]).
    pub fn contents(&self) -> String {
        self.inner.lock().unwrap().memory.clone().unwrap_or_default()
    }

    /// Emits one structured event.
    pub fn event(&self, level: Level, target: &str, event: &str, fields: &[(&'static str, ArgValue)]) {
        self.emit(level, target, event, None, 0, fields);
    }

    /// Emits at [`Level::Error`].
    pub fn error(&self, target: &str, event: &str, fields: &[(&'static str, ArgValue)]) {
        self.event(Level::Error, target, event, fields);
    }

    /// Emits at [`Level::Warn`].
    pub fn warn(&self, target: &str, event: &str, fields: &[(&'static str, ArgValue)]) {
        self.event(Level::Warn, target, event, fields);
    }

    /// Emits at [`Level::Info`].
    pub fn info(&self, target: &str, event: &str, fields: &[(&'static str, ArgValue)]) {
        self.event(Level::Info, target, event, fields);
    }

    /// Emits at [`Level::Debug`].
    pub fn debug(&self, target: &str, event: &str, fields: &[(&'static str, ArgValue)]) {
        self.event(Level::Debug, target, event, fields);
    }

    /// Opens a span: emits a `begin` record and returns its span id for
    /// [`EventLog::span_end`]. Returns 0 (and emits nothing) when
    /// `level` is filtered out.
    pub fn span_begin(&self, level: Level, target: &str, event: &str, fields: &[(&'static str, ArgValue)]) -> u64 {
        if !self.enabled(level) {
            return 0;
        }
        let id = {
            let mut inner = self.inner.lock().unwrap();
            let id = inner.next_span;
            inner.next_span += 1;
            id
        };
        self.emit(level, target, event, Some(SpanPhase::Begin), id, fields);
        id
    }

    /// Closes a span opened by [`EventLog::span_begin`]. A `span_id` of
    /// 0 (a filtered begin) emits nothing.
    pub fn span_end(&self, level: Level, target: &str, event: &str, span_id: u64, fields: &[(&'static str, ArgValue)]) {
        if span_id == 0 {
            return;
        }
        self.emit(level, target, event, Some(SpanPhase::End), span_id, fields);
    }

    fn emit(
        &self,
        level: Level,
        target: &str,
        event: &str,
        span: Option<SpanPhase>,
        span_id: u64,
        fields: &[(&'static str, ArgValue)],
    ) {
        if !self.enabled(level) {
            return;
        }
        let wall_us = wall_clock_us();
        let mut inner = self.inner.lock().unwrap();
        if inner.file.is_none() && inner.memory.is_none() {
            return;
        }
        let seq = inner.seq;
        inner.seq += 1;
        let line = render_jsonl(seq, level, target, event, span, span_id, fields, wall_us);
        if let Some(f) = inner.file.as_mut() {
            let _ = f.write_all(line.as_bytes());
            let _ = f.flush();
        }
        if let Some(m) = inner.memory.as_mut() {
            m.push_str(&line);
        }
    }
}

fn wall_clock_us() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

#[allow(clippy::too_many_arguments)]
fn render_jsonl(
    seq: u64,
    level: Level,
    target: &str,
    event: &str,
    span: Option<SpanPhase>,
    span_id: u64,
    fields: &[(&'static str, ArgValue)],
    wall_us: u64,
) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(out, "{{\"v\":{LOG_SCHEMA_VERSION},\"seq\":{seq},\"level\":\"{}\",\"target\":", level.as_str());
    write_json_string(&mut out, target);
    out.push_str(",\"event\":");
    write_json_string(&mut out, event);
    if let Some(phase) = span {
        let word = match phase {
            SpanPhase::Begin => "begin",
            SpanPhase::End => "end",
        };
        let _ = write!(out, ",\"span\":\"{word}\",\"span_id\":{span_id}");
    }
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":");
        match v {
            ArgValue::Int(n) => {
                let _ = write!(out, "{n}");
            }
            ArgValue::Str(s) => write_json_string(&mut out, s),
        }
    }
    // `wall_us` is always the last key so strip_wall can remove it
    // without a JSON parser.
    let _ = writeln!(out, "}},\"wall_us\":{wall_us}}}");
    out
}

/// Removes the `wall_us` field from every JSONL record in `text`,
/// yielding the canonical determinism-comparable form. Lines without a
/// trailing `,"wall_us":N}` are passed through unchanged.
pub fn strip_wall(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        match line.rfind(",\"wall_us\":") {
            Some(pos) if line.ends_with('}') && line[pos + 11..line.len() - 1].bytes().all(|b| b.is_ascii_digit()) => {
                out.push_str(&line[..pos]);
                out.push_str("}\n");
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Trace);
        assert_eq!(Level::parse("debug").unwrap(), Level::Debug);
        assert!(Level::parse("loud").is_err());
        for l in [Level::Error, Level::Warn, Level::Info, Level::Debug, Level::Trace] {
            assert_eq!(Level::parse(l.as_str()).unwrap(), l);
        }
    }

    #[test]
    fn memory_sink_records_dense_seqs_and_schema() {
        let log = EventLog::memory(Level::Info);
        log.info("t", "first", &[("n", 1u64.into())]);
        log.debug("t", "dropped", &[]); // below floor: no seq consumed
        log.warn("t", "second", &[("msg", "a\"b".into())]);
        let text = log.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"v\":1,\"seq\":0,\"level\":\"info\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"v\":1,\"seq\":1,\"level\":\"warn\""), "{}", lines[1]);
        assert!(lines[1].contains("\"msg\":\"a\\\"b\""), "{}", lines[1]);
    }

    #[test]
    fn strip_wall_removes_only_wall_clock() {
        let log = EventLog::memory(Level::Info);
        log.info("t", "e", &[("k", 7u64.into())]);
        let stripped = strip_wall(&log.contents());
        assert_eq!(
            stripped,
            "{\"v\":1,\"seq\":0,\"level\":\"info\",\"target\":\"t\",\"event\":\"e\",\"fields\":{\"k\":7}}\n"
        );
        // Non-record lines pass through.
        assert_eq!(strip_wall("plain\n"), "plain\n");
    }

    #[test]
    fn stripped_stream_is_deterministic() {
        let build = || {
            let log = EventLog::memory(Level::Debug);
            let span = log.span_begin(Level::Info, "x", "work", &[("total", 3u64.into())]);
            log.debug("x", "step", &[("i", 0u64.into())]);
            log.span_end(Level::Info, "x", "work", span, &[("done", 3u64.into())]);
            strip_wall(&log.contents())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn spans_carry_begin_end_and_ids() {
        let log = EventLog::memory(Level::Info);
        let a = log.span_begin(Level::Info, "t", "sweep", &[]);
        let filtered = log.span_begin(Level::Debug, "t", "hidden", &[]);
        assert_eq!(filtered, 0);
        log.span_end(Level::Debug, "t", "hidden", filtered, &[]);
        log.span_end(Level::Info, "t", "sweep", a, &[]);
        let text = log.contents();
        assert!(text.contains(&format!("\"span\":\"begin\",\"span_id\":{a}")), "{text}");
        assert!(text.contains(&format!("\"span\":\"end\",\"span_id\":{a}")), "{text}");
        assert!(!text.contains("hidden"), "{text}");
    }

    #[test]
    fn no_sink_drops_everything() {
        let log = EventLog::new(Level::Trace);
        log.info("t", "e", &[]);
        assert_eq!(log.contents(), "");
    }
}
