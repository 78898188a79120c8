//! Schema validation and canonicalization for JSONL event logs.
//!
//! `experiments logcheck --log FILE` (and the verify.sh gate) runs every
//! line of an [`EventLog`](cfd_obs::EventLog) file through
//! [`check_log`]: each line must parse, carry the expected schema
//! version, a valid level, and a dense sequence starting at 0. The
//! returned text is the wall-clock-stripped canonical form, suitable
//! for byte comparison across runs and worker counts.

use cfd_exec::Json;
use cfd_obs::{strip_wall, Level, LOG_SCHEMA_VERSION};

/// Validates a JSONL event log and returns its canonical
/// (wall-clock-stripped) form.
///
/// Checks, per line: parseable JSON, `v` equal to
/// [`LOG_SCHEMA_VERSION`], a parseable `level`, non-empty `target` and
/// `event` strings, and `seq` exactly equal to the line number (the
/// dense-sequence contract — a gap means records were lost).
pub fn check_log(text: &str) -> Result<String, String> {
    for (lineno, line) in text.lines().enumerate() {
        let v = Json::parse(line).map_err(|e| format!("line {}: unparseable record: {e}", lineno + 1))?;
        let version = v.get("v").and_then(Json::as_u64);
        if version != Some(LOG_SCHEMA_VERSION) {
            return Err(format!("line {}: schema version {version:?}, expected {LOG_SCHEMA_VERSION}", lineno + 1));
        }
        let seq = v.get("seq").and_then(Json::as_u64);
        if seq != Some(lineno as u64) {
            return Err(format!("line {}: seq {seq:?} breaks the dense sequence (expected {lineno})", lineno + 1));
        }
        let level =
            v.get("level").and_then(Json::as_str).ok_or_else(|| format!("line {}: missing level", lineno + 1))?;
        Level::parse(level).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        for key in ["target", "event"] {
            match v.get(key).and_then(Json::as_str) {
                Some(s) if !s.is_empty() => {}
                _ => return Err(format!("line {}: missing or empty {key}", lineno + 1)),
            }
        }
        if v.get("fields").is_none() {
            return Err(format!("line {}: missing fields object", lineno + 1));
        }
    }
    Ok(strip_wall(text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_obs::EventLog;

    #[test]
    fn real_log_output_passes_and_canonicalizes() {
        let log = EventLog::memory(Level::Debug);
        log.info("cfd-exec", "batch_start", &[("submitted", 2u64.into())]);
        log.debug("cfd-exec", "cache_probe", &[("hits", 0u64.into())]);
        let canonical = check_log(&log.contents()).unwrap();
        assert!(!canonical.contains("wall_us"), "{canonical}");
        assert!(canonical.contains("\"seq\":0"));
        assert!(canonical.contains("\"seq\":1"));
    }

    #[test]
    fn bad_version_gap_and_garbage_are_rejected() {
        assert!(check_log("not json\n").unwrap_err().contains("unparseable"));
        let wrong_v = "{\"v\":999,\"seq\":0,\"level\":\"info\",\"target\":\"t\",\"event\":\"e\",\"fields\":{}}\n";
        assert!(check_log(wrong_v).unwrap_err().contains("schema version"));
        let gap = concat!(
            "{\"v\":1,\"seq\":0,\"level\":\"info\",\"target\":\"t\",\"event\":\"e\",\"fields\":{}}\n",
            "{\"v\":1,\"seq\":2,\"level\":\"info\",\"target\":\"t\",\"event\":\"e\",\"fields\":{}}\n",
        );
        assert!(check_log(gap).unwrap_err().contains("dense sequence"));
        let bad_level = "{\"v\":1,\"seq\":0,\"level\":\"loud\",\"target\":\"t\",\"event\":\"e\",\"fields\":{}}\n";
        assert!(check_log(bad_level).unwrap_err().contains("unknown log level"));
    }

    #[test]
    fn empty_log_is_valid() {
        assert_eq!(check_log("").unwrap(), "");
    }
}
