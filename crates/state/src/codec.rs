//! Binary encoding of state values and store snapshots.
//!
//! The durability guarantee of Section IV-D ("TStream can replicate states
//! stored in memory to disk before resuming to compute mode") needs a way to
//! serialise the committed contents of a [`crate::StateStore`].  The format is
//! a small hand-rolled binary codec rather than a third-party serialisation
//! framework: the value space is tiny (six variants), the format must stay
//! stable across runs for the checkpoint/restore tests, and keeping it in-tree
//! avoids pulling `serde` into every downstream crate.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! snapshot   := header [manifest] u32:table_count table*
//! header     := "TSNAP" version_digit     (version 1 = tables only,
//!                                          version 2 = manifest + tables)
//! manifest   := u64:epoch u64:events u64:committed u64:rejected
//! table      := u32:name_len name_bytes u64:record_count record*
//! record     := u64:key value
//! value      := u8:tag payload
//!   tag 0 = Null                      (no payload)
//!   tag 1 = Long   i64
//!   tag 2 = Double f64 bit pattern
//!   tag 3 = Str    u32:len bytes (UTF-8)
//!   tag 4 = Set    u32:len u64*   (ids strictly ascending, so encoding is
//!                                  deterministic; the decoder rejects
//!                                  anything else)
//!   tag 5 = Pair   i64 i64
//! ```

use crate::error::{StateError, StateResult};
use crate::idset::IdSet;
use crate::value::Value;

/// Magic prefix of every snapshot file; a single ASCII-digit version byte
/// follows it (`TSNAP1`, `TSNAP2`, ...).
pub const SNAPSHOT_MAGIC: &[u8; 5] = b"TSNAP";

/// Format version of a bare store snapshot (tables only).
pub const SNAPSHOT_VERSION_PLAIN: u8 = 1;

/// Format version of an epoch-stamped checkpoint: a
/// [`crate::checkpoint::CheckpointManifest`] section precedes the tables.
pub const SNAPSHOT_VERSION_MANIFEST: u8 = 2;

/// Newest snapshot format version this build can decode.  Files carrying a
/// larger version are rejected with [`StateError::UnsupportedVersion`] so a
/// downgrade never mis-parses a newer layout as garbage.
pub const SNAPSHOT_VERSION_MAX: u8 = SNAPSHOT_VERSION_MANIFEST;

/// Append a snapshot header (`TSNAP` + ASCII version digit).
pub fn put_snapshot_header(out: &mut Vec<u8>, version: u8) {
    debug_assert!((1..=9).contains(&version));
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.push(b'0' + version);
}

/// A cursor over an encoded byte buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> StateResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(StateError::Corrupted(format!(
                "unexpected end of input: needed {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> StateResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Check that `count` items of at least `item_bytes` encoded bytes each
    /// can still follow, so a length prefix read from the input is bounded by
    /// the input before anything is allocated for it.
    pub(crate) fn bounded_count(
        &self,
        count: u64,
        item_bytes: usize,
        what: &str,
    ) -> StateResult<usize> {
        match usize::try_from(count) {
            Ok(n) if n <= self.remaining() / item_bytes => Ok(n),
            _ => Err(StateError::Corrupted(format!(
                "{count} {what} claimed, {} bytes left",
                self.remaining()
            ))),
        }
    }

    /// Skip `n` bytes without interpreting them.
    pub fn skip(&mut self, n: usize) -> StateResult<()> {
        self.take(n).map(|_| ())
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> StateResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> StateResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> StateResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian f64.
    pub fn f64(&mut self) -> StateResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> StateResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| StateError::Corrupted(format!("invalid UTF-8 in string: {e}")))
    }

    /// Check and consume a versioned header: `magic` followed by one ASCII
    /// version digit.  Returns the version; a version newer than
    /// `max_supported` is rejected with [`StateError::UnsupportedVersion`]
    /// (naming `artifact`), a malformed header with
    /// [`StateError::Corrupted`].
    pub fn versioned_header(
        &mut self,
        magic: &[u8],
        max_supported: u8,
        artifact: &'static str,
    ) -> StateResult<u8> {
        let got = self.take(magic.len())?;
        if got != magic {
            return Err(StateError::Corrupted(format!(
                "missing {} magic prefix",
                String::from_utf8_lossy(magic)
            )));
        }
        let byte = self.u8()?;
        if !byte.is_ascii_digit() || byte == b'0' {
            return Err(StateError::Corrupted(format!(
                "malformed {artifact} version byte {byte:#04x}"
            )));
        }
        let version = byte - b'0';
        if version > max_supported {
            return Err(StateError::UnsupportedVersion {
                artifact,
                found: version,
                supported: max_supported,
            });
        }
        Ok(version)
    }

    /// Check and consume a snapshot header; returns the format version.
    pub fn snapshot_version(&mut self) -> StateResult<u8> {
        self.versioned_header(SNAPSHOT_MAGIC, SNAPSHOT_VERSION_MAX, "checkpoint")
    }
}

/// Append a length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encode one value onto the end of `out`.
pub fn encode_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(0),
        Value::Long(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Double(v) => {
            out.push(2);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            put_string(out, s);
        }
        Value::Set(set) => {
            out.push(4);
            out.extend_from_slice(&(set.len() as u32).to_le_bytes());
            for id in set.iter() {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        Value::Pair(a, b) => {
            out.push(5);
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
    }
}

/// Decode one value from the reader.
pub fn decode_value(reader: &mut Reader<'_>) -> StateResult<Value> {
    match reader.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Long(reader.i64()?)),
        2 => Ok(Value::Double(reader.f64()?)),
        3 => Ok(Value::Str(reader.string()?.into())),
        4 => {
            let claimed = reader.u32()?;
            let len = reader.bounded_count(claimed.into(), 8, "set ids")?;
            let ids: Vec<u64> = reader
                .take(len * 8)?
                .chunks_exact(8)
                .map(|id| u64::from_le_bytes(id.try_into().expect("8-byte chunk")))
                .collect();
            let set = IdSet::from_sorted(&ids).ok_or_else(|| {
                StateError::Corrupted("set ids are not strictly ascending".into())
            })?;
            Ok(Value::Set(set))
        }
        5 => Ok(Value::Pair(reader.i64()?, reader.i64()?)),
        tag => Err(StateError::Corrupted(format!("unknown value tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: &Value) -> Value {
        let mut buf = Vec::new();
        encode_value(&mut buf, value);
        let mut reader = Reader::new(&buf);
        let decoded = decode_value(&mut reader).unwrap();
        assert_eq!(reader.remaining(), 0, "every byte must be consumed");
        decoded
    }

    #[test]
    fn every_variant_round_trips() {
        let samples = [
            Value::Null,
            Value::Long(-42),
            Value::Long(i64::MAX),
            Value::Double(3.25),
            Value::Double(f64::MIN_POSITIVE),
            Value::Str("".into()),
            Value::Str("hello tstream".into()),
            Value::Set([1u64, 9, 100_000].into_iter().collect()),
            Value::Set(IdSet::new()),
            Value::Pair(-1, 77),
        ];
        for v in &samples {
            assert_eq!(&round_trip(v), v);
        }
    }

    #[test]
    fn set_encoding_is_deterministic() {
        let a: Value = Value::Set([5u64, 1, 3].into_iter().collect());
        let b: Value = Value::Set([3u64, 5, 1].into_iter().collect());
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        encode_value(&mut ea, &a);
        encode_value(&mut eb, &b);
        assert_eq!(ea, eb);
    }

    fn decode_set(claimed_len: u32, ids: &[u64]) -> StateResult<Value> {
        let mut buf = vec![4u8];
        buf.extend_from_slice(&claimed_len.to_le_bytes());
        for id in ids {
            buf.extend_from_slice(&id.to_le_bytes());
        }
        decode_value(&mut Reader::new(&buf))
    }

    #[test]
    fn a_set_longer_than_its_input_is_rejected_before_allocating() {
        // `u32::MAX` ids would be a 32 GiB reservation.
        let decoded = decode_set(u32::MAX, &[1, 2, 3]);
        assert!(matches!(decoded, Err(StateError::Corrupted(_))));
        assert!(matches!(
            decode_set(4, &[1, 2, 3]),
            Err(StateError::Corrupted(_))
        ));
        assert_eq!(
            decode_set(3, &[1, 2, 3]).unwrap().as_set().unwrap().len(),
            3
        );
    }

    #[test]
    fn set_ids_must_be_strictly_ascending() {
        // No encoder writes these, and `IdSet::from_sorted` builds nodes
        // straight from the slice: order is what makes it a set.
        for ids in [[1u64, 3, 2], [2, 2, 5], [9, 1, 0]] {
            assert!(matches!(decode_set(3, &ids), Err(StateError::Corrupted(_))));
        }
    }

    #[test]
    fn truncated_input_is_reported_as_corrupted() {
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::Long(7));
        buf.truncate(buf.len() - 1);
        let mut reader = Reader::new(&buf);
        assert!(matches!(
            decode_value(&mut reader),
            Err(StateError::Corrupted(_))
        ));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut reader = Reader::new(&[250u8]);
        assert!(matches!(
            decode_value(&mut reader),
            Err(StateError::Corrupted(_))
        ));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut buf = vec![3u8];
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut reader = Reader::new(&buf);
        assert!(matches!(
            decode_value(&mut reader),
            Err(StateError::Corrupted(_))
        ));
    }

    #[test]
    fn magic_is_checked() {
        let mut reader = Reader::new(b"NOTSNAP...");
        assert!(matches!(
            reader.snapshot_version(),
            Err(StateError::Corrupted(_))
        ));
        let mut ok = Vec::new();
        put_snapshot_header(&mut ok, SNAPSHOT_VERSION_PLAIN);
        let mut reader = Reader::new(&ok);
        assert_eq!(reader.snapshot_version().unwrap(), 1);
        // The version-1 header is byte-identical to the seed's `TSNAP1`
        // magic, so existing checkpoint files stay readable.
        assert_eq!(ok, b"TSNAP1");
    }

    #[test]
    fn newer_versions_are_rejected_with_a_clear_error() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        bytes.push(b'9');
        let mut reader = Reader::new(&bytes);
        match reader.snapshot_version() {
            Err(StateError::UnsupportedVersion {
                artifact,
                found,
                supported,
            }) => {
                assert_eq!(artifact, "checkpoint");
                assert_eq!(found, 9);
                assert_eq!(supported, SNAPSHOT_VERSION_MAX);
                let msg = StateError::UnsupportedVersion {
                    artifact,
                    found,
                    supported,
                }
                .to_string();
                assert!(msg.contains("upgrade"), "actionable message: {msg}");
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn malformed_version_bytes_are_corrupted_not_unsupported() {
        for bad in [b'0', b'x', 0xFF] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(SNAPSHOT_MAGIC);
            bytes.push(bad);
            let mut reader = Reader::new(&bytes);
            assert!(matches!(
                reader.snapshot_version(),
                Err(StateError::Corrupted(_))
            ));
        }
    }

    #[test]
    fn strings_round_trip_through_helpers() {
        let mut buf = Vec::new();
        put_string(&mut buf, "road_speed");
        let mut reader = Reader::new(&buf);
        assert_eq!(reader.string().unwrap(), "road_speed");
    }
}
