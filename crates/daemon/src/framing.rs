//! The one checksum and the two checksummed line grammars the daemon
//! persists through.
//!
//! * **Record** (`flowtime-wal-v1` segments): `<len> <fnv1a> <json>\n`,
//!   `len` the byte length of `<json>`, the checksum 16 lowercase hex
//!   digits of FNV-1a 64 over exactly those bytes. Self-synchronizing
//!   from the front only.
//! * **Document** (`flowtime-snapshot-v1` files): `MAGIC fnv1a=<hash>\n`
//!   then one `<json>\n` body line hashed the same way.
//!
//! Both writers and both parsers live here so the WAL and the snapshot
//! codec cannot drift apart; neither grammar knows what the JSON means.

use crate::snapshot::SnapshotError;

/// FNV-1a 64-bit over raw bytes — tiny, dependency-free, and stable.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Frames one record line.
pub fn frame_record(json: &str) -> String {
    format!("{} {:016x} {json}\n", json.len(), fnv1a(json.as_bytes()))
}

/// Reads the record line at the head of `rest`, returning its JSON body
/// and the bytes consumed (terminator included).
///
/// # Errors
///
/// The first framing defect, as the text recovery reports.
pub fn unframe_record(rest: &[u8]) -> Result<(&str, usize), String> {
    let sp1 = rest
        .iter()
        .take(21)
        .position(|&b| b == b' ')
        .ok_or("torn length prefix")?;
    let len: usize = std::str::from_utf8(&rest[..sp1])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or("unparseable length prefix")?;
    let body_start = sp1 + 1 + 16 + 1;
    if rest.len() < body_start || rest[body_start - 1] != b' ' {
        return Err("torn checksum field".to_string());
    }
    let expected = std::str::from_utf8(&rest[sp1 + 1..body_start - 1])
        .ok()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("unparseable checksum")?;
    let end = body_start.saturating_add(len);
    if rest.len() <= end {
        return Err("torn record body".to_string());
    }
    let body = &rest[body_start..end];
    if rest[end] != b'\n' {
        return Err("missing record terminator".to_string());
    }
    let actual = fnv1a(body);
    if actual != expected {
        return Err(format!(
            "checksum mismatch (header {expected:016x}, body {actual:016x})"
        ));
    }
    let json = std::str::from_utf8(body).map_err(|_| "record body is not utf-8")?;
    Ok((json, end + 1))
}

/// Frames a two-line document.
pub fn frame_document(magic: &str, json: &str) -> String {
    format!("{magic} fnv1a={:016x}\n{json}\n", fnv1a(json.as_bytes()))
}

/// Validates a two-line document and returns its body line.
///
/// # Errors
///
/// [`SnapshotError::Format`] for a malformed layout,
/// [`SnapshotError::Checksum`] for a body that does not hash to its header.
pub fn unframe_document<'a>(magic: &str, contents: &'a str) -> Result<&'a str, SnapshotError> {
    let format = |d: &str| SnapshotError::Format(d.to_string());
    let mut lines = contents.lines();
    let header = lines.next().ok_or_else(|| format("empty file"))?;
    let body = lines.next().ok_or_else(|| format("missing body line"))?;
    if lines.next().is_some_and(|l| !l.is_empty()) {
        return Err(format("trailing content after body"));
    }
    let checksum_field = header
        .strip_prefix(magic)
        .and_then(|rest| rest.trim().strip_prefix("fnv1a="))
        .ok_or_else(|| format(&format!("header is not a `{magic} fnv1a=...` line")))?;
    let expected = u64::from_str_radix(checksum_field, 16)
        .map_err(|_| format("checksum is not 16 hex digits"))?;
    let actual = fnv1a(body.as_bytes());
    if expected != actual {
        return Err(SnapshotError::Checksum { expected, actual });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_and_reports_consumed_bytes() {
        // The published FNV-1a 64 vector for "a" pins the on-disk bytes.
        let line = frame_record("a");
        assert_eq!(line, "1 af63dc4c8601ec8c a\n");
        let mut two = line.clone().into_bytes();
        two.extend_from_slice(b"trailing");
        assert_eq!(unframe_record(&two), Ok(("a", line.len())));
    }

    #[test]
    fn document_round_trips_and_rejects_typed() {
        let doc = frame_document("magic-v1", "{\"a\":1}");
        assert!(doc.starts_with("magic-v1 fnv1a=") && doc.ends_with("\n{\"a\":1}\n"));
        assert!(matches!(
            unframe_document("magic-v1", &doc),
            Ok("{\"a\":1}")
        ));
        assert!(matches!(
            unframe_document("magic-v2", &doc),
            Err(SnapshotError::Format(_))
        ));
        assert!(matches!(
            unframe_document("magic-v1", &doc.replace(":1", ":2")),
            Err(SnapshotError::Checksum { .. })
        ));
        assert!(matches!(
            unframe_document("magic-v1", ""),
            Err(SnapshotError::Format(_))
        ));
    }
}
