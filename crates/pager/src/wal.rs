//! Write-ahead log framing and recovery scan.
//!
//! The durable backend journals *commit windows*: for every page dirtied
//! since the last commit either its byte image or — when the page's
//! codec offers one that is smaller — a *delta* against the image the
//! log last held for it; the pages freed; and a final commit record
//! sealing the window. Recovery replays whole windows only — a window
//! without its commit record (the torn tail a crash leaves behind) is
//! discarded byte-for-byte, so recovered state is always exactly the
//! state as of some committed window ("reads see a prefix of applies").
//!
//! # Record format
//!
//! Every record is framed as
//!
//! ```text
//! [len: u32 LE] [kind: u8] [payload…] [crc: u32 LE]
//! ```
//!
//! where `len` counts `kind + payload`, and `crc` is [`crc32`] over
//! `len ‖ kind ‖ payload` (the length prefix is covered, so a record
//! whose frame was truncated *and* whose tail happens to parse cannot
//! masquerade as valid). Payloads:
//!
//! * `kind 1` — page image: `[page: u32] [bytes: len-prefixed]`
//! * `kind 2` — free: `[page: u32]`
//! * `kind 3` — commit: `[seq: u64] [meta: len-prefixed]`
//! * `kind 4` — page delta: `[page: u32]` followed, to the end of the
//!   record, by *splices* `[offset: u32] [remove: u32] [insert:
//!   len-prefixed]`
//!
//! # Page deltas
//!
//! A splice reads "replace `remove` bytes at `offset` of the page's
//! **previous image in this log** with `insert`"; the splices of one
//! record are ascending and do not overlap, and every offset refers to
//! the previous image, not to the record's own partial result.
//! [`put_splice`] writes one, [`apply_splices`] is all a reader needs.
//! Like the image, the delta is untyped: the log knows bytes, the
//! [`crate::PageCodec`] knows what changed, and replay needs no code of
//! any index.
//!
//! "Previous image in this log" is well defined without a
//! full-image-on-first-touch rule because the page file is only ever
//! replaced whole (written beside itself, then renamed): there is no
//! torn page for a leading image to repair, and the state a delta's
//! predecessor left is always either in the checkpoint or earlier in
//! the log. A delta is *not* idempotent, which is what the commit path's
//! images-only retry rule is about ([`crate::PageStore::try_commit`]).

use crate::codec::{crc32, put_bytes, put_u32, put_u64, ByteReader};
use crate::store::PageId;

const KIND_PAGE: u8 = 1;
const KIND_FREE: u8 = 2;
const KIND_COMMIT: u8 = 3;
const KIND_DELTA: u8 = 4;

/// One logical WAL record (see the module docs for the wire format).
/// Payloads are borrowed: from the caller's buffer on the way into the
/// log, from the log's bytes on the way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecord<'a> {
    /// The full byte image of a page dirtied in this commit window.
    PageImage {
        /// The page the image belongs to.
        page: PageId,
        /// Its encoded contents ([`crate::PageCodec`]).
        bytes: &'a [u8],
    },
    /// What changed in a page dirtied in this commit window.
    PageDelta {
        /// The page the delta belongs to.
        page: PageId,
        /// Splices against the page's previous image in the log
        /// ([`crate::PageCodec::encode_delta`]).
        splices: &'a [u8],
    },
    /// A page freed in this commit window.
    Free {
        /// The freed page.
        page: PageId,
    },
    /// Seals the current commit window; windows apply atomically.
    Commit {
        /// Monotonic commit sequence number.
        seq: u64,
        /// Opaque structure metadata (e.g. a B+-tree's root/height/len)
        /// captured at commit time and handed back on recovery.
        meta: &'a [u8],
    },
}

/// Appends the framed image of `rec` to `out`, in place: the length is
/// patched in once the payload is written, the checksum appended.
///
/// # Panics
/// Panics if the record is longer than `u32::MAX` bytes.
pub fn encode_record(rec: &WalRecord<'_>, out: &mut Vec<u8>) {
    let start = out.len();
    put_u32(out, 0);
    match *rec {
        WalRecord::PageImage { page, bytes } => {
            out.push(KIND_PAGE);
            put_u32(out, page.index());
            put_bytes(out, bytes);
        }
        WalRecord::PageDelta { page, splices } => {
            out.push(KIND_DELTA);
            put_u32(out, page.index());
            out.extend_from_slice(splices);
        }
        WalRecord::Free { page } => {
            out.push(KIND_FREE);
            put_u32(out, page.index());
        }
        WalRecord::Commit { seq, meta } => {
            out.push(KIND_COMMIT);
            put_u64(out, seq);
            put_bytes(out, meta);
        }
    }
    let len = u32::try_from(out.len() - start - 4).expect("record exceeds u32");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start..]);
    put_u32(out, crc);
}

/// Decodes the record starting at `pos` in `buf`. Returns the record
/// (borrowing its payload from `buf`) and the offset just past its
/// frame, or `None` if the bytes at `pos` are not a complete,
/// checksum-valid record (a torn tail).
#[must_use]
pub fn decode_record_at(buf: &[u8], pos: usize) -> Option<(WalRecord<'_>, usize)> {
    let mut header = ByteReader::new(buf.get(pos..)?);
    let len = header.u32()? as usize;
    let frame_end = pos.checked_add(4 + len + 4)?;
    if frame_end > buf.len() {
        return None; // truncated frame
    }
    let stored_crc = u32::from_le_bytes(buf[frame_end - 4..frame_end].try_into().ok()?);
    if crc32(&buf[pos..frame_end - 4]) != stored_crc {
        return None; // corrupt or torn frame
    }
    let mut body = ByteReader::new(&buf[pos + 4..frame_end - 4]);
    let kind = body.u8()?;
    let rec = match kind {
        KIND_PAGE => WalRecord::PageImage {
            page: PageId::from_index(body.u32()?),
            bytes: body.bytes()?,
        },
        KIND_DELTA => WalRecord::PageDelta {
            page: PageId::from_index(body.u32()?),
            splices: body.take(body.remaining())?,
        },
        KIND_FREE => WalRecord::Free {
            page: PageId::from_index(body.u32()?),
        },
        KIND_COMMIT => WalRecord::Commit {
            seq: body.u64()?,
            meta: body.bytes()?,
        },
        _ => return None,
    };
    if !body.is_empty() {
        return None; // trailing garbage inside a "valid" frame
    }
    Some((rec, frame_end))
}

/// The whole, checksum-valid records at the front of `buf`, in log
/// order, each with the offset just past its frame. Ends at the first
/// frame that is not one (see [`decode_record_at`]).
pub fn records(buf: &[u8]) -> impl Iterator<Item = (WalRecord<'_>, usize)> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let (rec, next) = decode_record_at(buf, pos)?;
        pos = next;
        Some((rec, next))
    })
}

/// Appends one splice — "replace `remove` bytes at `offset` of the
/// previous image with `insert`" — to a delta under construction.
///
/// # Panics
/// Panics if `insert` is longer than `u32::MAX`.
pub fn put_splice(out: &mut Vec<u8>, offset: u32, remove: u32, insert: &[u8]) {
    put_u32(out, offset);
    put_u32(out, remove);
    put_bytes(out, insert);
}

/// Applies the splices of one delta to `base`, the page's previous
/// image. `None` when they do not fit it — a truncated splice, one that
/// starts before its predecessor ended, or one that reaches past the
/// end of `base`: a delta written against some other image.
#[must_use]
pub fn apply_splices(base: &[u8], splices: &[u8]) -> Option<Vec<u8>> {
    let mut r = ByteReader::new(splices);
    let mut out = Vec::with_capacity(base.len() + splices.len());
    // Bytes of `base` before `kept` are spoken for.
    let mut kept = 0usize;
    while !r.is_empty() {
        let offset = r.u32()? as usize;
        let remove = r.u32()? as usize;
        let insert = r.bytes()?;
        let end = offset.checked_add(remove)?;
        if offset < kept || end > base.len() {
            return None;
        }
        out.extend_from_slice(&base[kept..offset]);
        out.extend_from_slice(insert);
        kept = end;
    }
    out.extend_from_slice(&base[kept..]);
    Some(out)
}

/// One durable operation inside a committed window, in log order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp<'a> {
    /// Install `bytes` as the contents of `page` (allocating it if it
    /// was dead).
    Page {
        /// Target page.
        page: PageId,
        /// Encoded contents.
        bytes: &'a [u8],
    },
    /// Apply `splices` to the contents `page` has at this point of the
    /// replay ([`apply_splices`]).
    Delta {
        /// Target page.
        page: PageId,
        /// The splices.
        splices: &'a [u8],
    },
    /// Kill `page`.
    Free {
        /// Target page.
        page: PageId,
    },
}

/// One committed window recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitWindow<'a> {
    /// The window's commit sequence number.
    pub seq: u64,
    /// The metadata blob captured by the sealing commit record.
    pub meta: &'a [u8],
    /// The window's operations, in log order.
    pub ops: Vec<WalOp<'a>>,
    /// Offset just past the window's commit record: the log up to here
    /// is sealed, and a recovery that installs this window last
    /// truncates the log here.
    pub end: usize,
}

/// Scans a WAL image and groups its records into committed windows, in
/// log order, borrowing every payload from `buf`.
///
/// The scan stops at the first frame that is incomplete, fails its
/// checksum, or has an unknown kind — everything from there on is tail.
/// Records after the last commit record (a window the crash interrupted
/// before sealing) are likewise dropped, even when individually valid:
/// the sealed prefix of the log ends at the last window's
/// [`CommitWindow::end`].
#[must_use]
pub fn replay(buf: &[u8]) -> Vec<CommitWindow<'_>> {
    let mut windows = Vec::new();
    let mut ops: Vec<WalOp<'_>> = Vec::new();
    for (rec, next) in records(buf) {
        match rec {
            WalRecord::PageImage { page, bytes } => ops.push(WalOp::Page { page, bytes }),
            WalRecord::PageDelta { page, splices } => ops.push(WalOp::Delta { page, splices }),
            WalRecord::Free { page } => ops.push(WalOp::Free { page }),
            WalRecord::Commit { seq, meta } => windows.push(CommitWindow {
                seq,
                meta,
                ops: std::mem::take(&mut ops),
                end: next,
            }),
        }
    }
    windows
}

/// Kinds 1–3 and a torn fourth record, byte for byte as the encoder
/// before the delta record framed them (it built the body in one
/// buffer and the frame in another; the in-place encoder must agree).
#[cfg(test)]
pub(crate) const FROZEN_LOG: [u8; 98] = [
    0x0D, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, //
    0x00, 0x72, 0x6F, 0x6F, 0x74, 0x97, 0xA3, 0x3D, 0xB5, 0x12, 0x00, 0x00, //
    0x00, 0x01, 0x03, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0xAB, 0xAB, //
    0xAB, 0xAB, 0xAB, 0xAB, 0xAB, 0xAB, 0xAB, 0xBE, 0xC9, 0x35, 0xF7, 0x05, //
    0x00, 0x00, 0x00, 0x02, 0x01, 0x00, 0x00, 0x00, 0xE4, 0x65, 0xE2, 0x6E, //
    0x13, 0x00, 0x00, 0x00, 0x03, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x00, 0x06, 0x00, 0x00, 0x00, 0x6D, 0x65, 0x74, 0x61, 0x2D, 0x31, 0x8A, //
    0xF3, 0x29, 0x7D, 0x13, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, //
    0x0A, 0x00,
];
/// Where the frozen log's one sealed window ends.
#[cfg(test)]
pub(crate) const FROZEN_SEALED: usize = 87;

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> PageId {
        PageId::from_index(n)
    }

    /// Bytes of the log that `replay` reports as sealed.
    fn sealed_len(windows: &[CommitWindow<'_>]) -> usize {
        windows.last().map_or(0, |w| w.end)
    }

    fn sample_log() -> Vec<u8> {
        let mut splices = Vec::new();
        put_splice(&mut splices, 1, 1, &[20, 21]);
        let mut buf = Vec::new();
        for rec in [
            WalRecord::PageImage {
                page: pid(0),
                bytes: &[1, 2, 3],
            },
            WalRecord::Free { page: pid(4) },
            WalRecord::Commit { seq: 1, meta: &[9] },
            WalRecord::PageImage {
                page: pid(2),
                bytes: &[7; 40],
            },
            WalRecord::PageDelta {
                page: pid(0),
                splices: &splices,
            },
            WalRecord::Commit {
                seq: 2,
                meta: &[8, 8],
            },
        ] {
            encode_record(&rec, &mut buf);
        }
        buf
    }

    #[test]
    fn records_round_trip() {
        let mut splices = Vec::new();
        put_splice(&mut splices, 0, 3, b"abc");
        put_splice(&mut splices, 9, 0, b"");
        let recs = [
            WalRecord::PageImage {
                page: pid(7),
                bytes: &[0; 100],
            },
            WalRecord::PageDelta {
                page: pid(7),
                splices: &splices,
            },
            WalRecord::PageDelta {
                page: pid(8),
                splices: &[],
            },
            WalRecord::Free { page: pid(3) },
            WalRecord::Commit {
                seq: 42,
                meta: b"meta",
            },
        ];
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(r, &mut buf);
        }
        let mut pos = 0;
        for r in &recs {
            let (got, next) = decode_record_at(&buf, pos).expect("valid record");
            assert_eq!(&got, r);
            pos = next;
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn a_log_framed_before_the_delta_record_reads_and_re_encodes_unchanged() {
        let windows = replay(&FROZEN_LOG);
        assert_eq!(
            windows,
            vec![CommitWindow {
                seq: 1,
                meta: b"meta-1",
                ops: vec![
                    WalOp::Page {
                        page: pid(0),
                        bytes: b"root",
                    },
                    WalOp::Page {
                        page: pid(3),
                        bytes: &[0xAB; 9],
                    },
                    WalOp::Free { page: pid(1) },
                ],
                end: FROZEN_SEALED,
            }]
        );
        // And the in-place encoder frames those records to the same bytes.
        let mut again = Vec::new();
        for rec in [
            WalRecord::PageImage {
                page: pid(0),
                bytes: b"root",
            },
            WalRecord::PageImage {
                page: pid(3),
                bytes: &[0xAB; 9],
            },
            WalRecord::Free { page: pid(1) },
            WalRecord::Commit {
                seq: 1,
                meta: b"meta-1",
            },
        ] {
            encode_record(&rec, &mut again);
        }
        assert_eq!(again, FROZEN_LOG[..FROZEN_SEALED]);
    }

    #[test]
    fn replay_groups_windows_and_counts() {
        let buf = sample_log();
        let windows = replay(&buf);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].seq, 1);
        assert_eq!(windows[0].meta, [9]);
        assert_eq!(
            windows[0].ops,
            vec![
                WalOp::Page {
                    page: pid(0),
                    bytes: &[1, 2, 3]
                },
                WalOp::Free { page: pid(4) },
            ]
        );
        assert_eq!(windows[1].seq, 2);
        assert!(matches!(windows[1].ops[1], WalOp::Delta { page, .. } if page == pid(0)));
        let records: usize = windows.iter().map(|w| w.ops.len() + 1).sum();
        assert_eq!(records, 6);
        assert!(windows[0].end < windows[1].end);
        assert_eq!(sealed_len(&windows), buf.len());
    }

    #[test]
    fn truncation_at_every_offset_keeps_committed_prefix() {
        let buf = sample_log();
        let full = replay(&buf);
        let first_window_end = full[0].end;
        for cut in 0..buf.len() {
            let windows = replay(&buf[..cut]);
            // Committed windows are an exact prefix of the full replay.
            assert_eq!(windows, full[..windows.len()], "cut at {cut}");
            assert!(sealed_len(&windows) <= cut);
            if cut < first_window_end {
                assert!(windows.is_empty(), "cut at {cut}");
            } else {
                assert_eq!(windows.len(), 1, "cut at {cut}");
                assert_eq!(sealed_len(&windows), first_window_end);
            }
        }
    }

    #[test]
    fn corruption_at_every_byte_never_loses_a_committed_record() {
        let buf = sample_log();
        let intact = replay(&buf);
        assert_eq!(intact.len(), 2);
        for byte in 0..buf.len() {
            let mut bad = buf.clone();
            bad[byte] ^= 0x40;
            // Every surviving window must equal an untouched prefix —
            // corruption may only shorten history, never alter it.
            // (A flip in a later record must not disturb earlier ones.)
            for (i, w) in replay(&bad).iter().enumerate() {
                assert_eq!(w, &intact[i], "flip at {byte}");
            }
        }
    }

    #[test]
    fn uncommitted_window_records_are_dropped() {
        let mut buf = sample_log();
        let committed = buf.len();
        // A third window that never commits.
        encode_record(
            &WalRecord::PageImage {
                page: pid(9),
                bytes: &[5; 10],
            },
            &mut buf,
        );
        encode_record(&WalRecord::Free { page: pid(0) }, &mut buf);
        let windows = replay(&buf);
        assert_eq!(windows.len(), 2, "unsealed window must not apply");
        assert_eq!(sealed_len(&windows), committed);
    }

    #[test]
    fn empty_and_garbage_logs_replay_to_nothing() {
        assert!(replay(&[]).is_empty());
        assert!(replay(&[0xFF; 64]).is_empty());
    }

    fn splices(list: &[(u32, u32, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(offset, remove, insert) in list {
            put_splice(&mut out, offset, remove, insert);
        }
        out
    }

    #[test]
    fn splices_replace_insert_remove_and_append() {
        let base = b"0123456789";
        let apply = |list: &[(u32, u32, &[u8])]| apply_splices(base, &splices(list));
        assert_eq!(apply(&[]).unwrap(), base, "no splice: the page as it was");
        assert_eq!(apply(&[(2, 3, b"ab")]).unwrap(), b"01ab56789");
        assert_eq!(apply(&[(0, 0, b"x")]).unwrap(), b"x0123456789");
        assert_eq!(apply(&[(10, 0, b"yz")]).unwrap(), b"0123456789yz");
        assert_eq!(apply(&[(4, 6, b"")]).unwrap(), b"0123");
        // Several: offsets are into the base, not the partial result,
        // and a splice may start exactly where its predecessor ended.
        assert_eq!(
            apply(&[(0, 1, b"AAA"), (1, 0, b"-"), (8, 2, b"")]).unwrap(),
            b"AAA-1234567"
        );
        assert_eq!(apply(&[(0, 10, b"")]).unwrap(), b"");
    }

    #[test]
    fn splices_that_do_not_fit_the_base_are_rejected() {
        let base = b"0123456789";
        let apply = |list: &[(u32, u32, &[u8])]| apply_splices(base, &splices(list));
        // Past the end of the base: by offset, by length, by overflow.
        assert_eq!(apply(&[(11, 0, b"x")]), None);
        assert_eq!(apply(&[(8, 3, b"")]), None);
        assert_eq!(apply(&[(u32::MAX, u32::MAX, b"")]), None);
        // Out of order, and overlapping its predecessor.
        assert_eq!(apply(&[(5, 1, b"x"), (2, 1, b"y")]), None);
        assert_eq!(apply(&[(2, 4, b"x"), (5, 1, b"y")]), None);
        // Truncated anywhere inside a splice, and an insert whose
        // length prefix promises more than the record holds.
        let whole = splices(&[(2, 3, b"abcd")]);
        for cut in 1..whole.len() {
            assert_eq!(apply_splices(base, &whole[..cut]), None, "cut at {cut}");
        }
        let mut lying = splices(&[(2, 3, b"abcd")]);
        lying[8] = 200;
        assert_eq!(apply_splices(base, &lying), None);
        // A base shorter than the delta was written against.
        assert_eq!(apply_splices(b"01", &whole), None);
    }
}
