//! The WAL frame codec: the one definition of the record framing shared by
//! the journal files, boot replay, the scrubber, `mube fsck` salvage, and
//! the replication stream.
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! payload = [lsn: u64 LE] [tag: u8] [body]
//! ```
//!
//! `crc` is IEEE CRC-32 over the payload, and `len` lies in
//! `9..=`[`MAX_RECORD_BYTES`]. [`parse_frame`] is the only decoder. It stops
//! for one of four reasons ([`FrameStop`]). A file scan ([`scan`]) treats
//! every stop as the end of the clean prefix; a stream reader treats the
//! two torn stops as "need more bytes" and the other two as corruption.

use std::fmt;

/// Records larger than this are treated as corruption (a torn length
/// prefix would otherwise ask for gigabytes), and the encoder refuses to
/// write them.
pub const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// `[len][crc]` header bytes before the payload.
pub(crate) const HEADER_BYTES: usize = 8;

/// `[lsn][tag]` bytes at the start of every payload.
const PREFIX_BYTES: usize = 9;

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `data` (the classic zlib/`cksum -o 3` polynomial).
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// One intact frame, borrowed from the buffer it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawFrame<'a> {
    /// Log sequence number (leader's last LSN for heartbeats, 0 for resets).
    pub lsn: u64,
    /// Record tag: 0 snapshot header, 1–5 events, 250 heartbeat, 251 reset.
    pub tag: u8,
    /// The body after the `[lsn][tag]` prefix.
    pub body: &'a [u8],
    /// The whole frame, `[len][crc]` header included, as it was read.
    pub bytes: &'a [u8],
}

/// Why [`parse_frame`] could not return a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameStop {
    /// Fewer than 8 header bytes.
    TornHeader,
    /// A length prefix outside `9..=MAX_RECORD_BYTES`.
    BadLength(u32),
    /// The header promises more payload bytes than are present.
    TornBody,
    /// The payload does not match its checksum.
    CrcMismatch,
}

impl FrameStop {
    /// Whether more bytes could complete the frame (a stream waits for
    /// them; a file ends in a torn write).
    pub fn is_torn(self) -> bool {
        matches!(self, FrameStop::TornHeader | FrameStop::TornBody)
    }
}

impl fmt::Display for FrameStop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameStop::TornHeader => f.write_str("torn frame header"),
            FrameStop::BadLength(len) => write!(f, "implausible record length {len}"),
            FrameStop::TornBody => f.write_str("torn record body"),
            FrameStop::CrcMismatch => f.write_str("CRC mismatch"),
        }
    }
}

/// Whether a record body of `body_len` bytes fits in one frame.
pub fn body_fits(body_len: usize) -> bool {
    body_len <= MAX_RECORD_BYTES as usize - PREFIX_BYTES
}

/// Encodes one frame. Refuses (`InvalidInput`) a payload over
/// [`MAX_RECORD_BYTES`], which every decoder would reject as corruption.
pub fn encode_frame(lsn: u64, tag: u8, body: &[u8]) -> std::io::Result<Vec<u8>> {
    if !body_fits(body.len()) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "record body of {} bytes exceeds the {MAX_RECORD_BYTES}-byte frame bound",
                body.len()
            ),
        ));
    }
    let len = (PREFIX_BYTES + body.len()) as u32;
    let mut frame = Vec::with_capacity(HEADER_BYTES + len as usize);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&[0; 4]);
    frame.extend_from_slice(&lsn.to_le_bytes());
    frame.push(tag);
    frame.extend_from_slice(body);
    let crc = crc32(&frame[HEADER_BYTES..]);
    frame[4..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    Ok(frame)
}

/// Parses the frame at the start of `buf`: `Ok(None)` on an empty buffer,
/// otherwise the frame and the bytes it spans, or why there is none.
pub fn parse_frame(buf: &[u8]) -> Result<Option<(RawFrame<'_>, usize)>, FrameStop> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() < HEADER_BYTES {
        return Err(FrameStop::TornHeader);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if !(PREFIX_BYTES as u32..=MAX_RECORD_BYTES).contains(&len) {
        return Err(FrameStop::BadLength(len));
    }
    let end = HEADER_BYTES + len as usize;
    let payload = buf.get(HEADER_BYTES..end).ok_or(FrameStop::TornBody)?;
    if crc32(payload) != crc {
        return Err(FrameStop::CrcMismatch);
    }
    let frame = RawFrame {
        lsn: u64::from_le_bytes(payload[..8].try_into().expect("8 bytes")),
        tag: payload[8],
        body: &payload[PREFIX_BYTES..],
        bytes: &buf[..end],
    };
    Ok(Some((frame, end)))
}

/// A whole image scanned up to its first torn, corrupt, or undecodable
/// frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan<T> {
    /// The decoded records of the clean prefix, in file order.
    pub records: Vec<T>,
    /// Byte length of the clean prefix (the whole image when clean).
    pub good_len: u64,
    /// Why the scan stopped early, if it did.
    pub corruption: Option<String>,
}

/// Slice mode: parses `data` frame after frame, decodes each with
/// `decode`, and stops at the first [`FrameStop`] or decode error.
pub fn scan<'a, T>(
    data: &'a [u8],
    mut decode: impl FnMut(RawFrame<'a>) -> Result<T, String>,
) -> Scan<T> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let corruption = loop {
        match parse_frame(&data[pos..]) {
            Ok(None) => break None,
            Ok(Some((frame, len))) => match decode(frame) {
                Ok(record) => {
                    records.push(record);
                    pos += len;
                }
                Err(why) => break Some(why),
            },
            Err(stop) => break Some(stop.to_string()),
        }
    };
    Scan {
        records,
        good_len: pos as u64,
        corruption,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn frames_roundtrip_and_report_their_span() {
        let mut image = encode_frame(7, 2, b"xy").unwrap();
        image.extend_from_slice(&encode_frame(8, 251, &[]).unwrap());
        let (first, n) = parse_frame(&image).unwrap().unwrap();
        assert_eq!(
            (first.lsn, first.tag, first.body, n),
            (7, 2, &b"xy"[..], 19)
        );
        assert_eq!(first.bytes, &image[..n]);
        let (second, m) = parse_frame(&image[n..]).unwrap().unwrap();
        assert_eq!(
            (second.lsn, second.tag, second.body, m),
            (8, 251, &[][..], 17)
        );
        assert_eq!(parse_frame(&image[n + m..]), Ok(None));
    }

    #[test]
    fn every_stop_reason_is_typed_and_keeps_its_message() {
        let frame = encode_frame(1, 1, b"abc").unwrap();
        assert_eq!(parse_frame(&frame[..7]), Err(FrameStop::TornHeader));
        assert_eq!(
            parse_frame(&frame[..frame.len() - 1]),
            Err(FrameStop::TornBody)
        );
        let mut flipped = frame.clone();
        flipped[10] ^= 1;
        assert_eq!(parse_frame(&flipped), Err(FrameStop::CrcMismatch));
        let mut short = frame;
        short[..4].copy_from_slice(&8u32.to_le_bytes());
        assert_eq!(parse_frame(&short), Err(FrameStop::BadLength(8)));
        assert_eq!(
            FrameStop::BadLength(8).to_string(),
            "implausible record length 8"
        );
        assert_eq!(FrameStop::CrcMismatch.to_string(), "CRC mismatch");
        assert!(FrameStop::TornHeader.is_torn() && FrameStop::TornBody.is_torn());
        assert!(!FrameStop::CrcMismatch.is_torn() && !FrameStop::BadLength(0).is_torn());
    }

    #[test]
    fn encoder_refuses_what_the_decoder_would_reject() {
        let body = vec![0u8; MAX_RECORD_BYTES as usize - PREFIX_BYTES + 1];
        let err = encode_frame(1, 1, &body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let fits = encode_frame(1, 1, &body[1..]).unwrap();
        assert_eq!(parse_frame(&fits).unwrap().unwrap().1, fits.len());
    }

    #[test]
    fn scan_stops_at_the_first_bad_frame_or_decode_error() {
        let mut image = encode_frame(1, 1, b"a").unwrap();
        let good = image.len() as u64;
        image.extend_from_slice(&encode_frame(2, 9, b"b").unwrap());
        let whole = scan(&image, |f| Ok(f.lsn));
        assert_eq!((whole.records, whole.corruption), (vec![1, 2], None));
        let picky = scan(&image, |f| match f.tag {
            1 => Ok(f.lsn),
            t => Err(format!("unknown record tag {t}")),
        });
        assert_eq!(picky.records, vec![1]);
        assert_eq!(picky.good_len, good);
        assert_eq!(picky.corruption.as_deref(), Some("unknown record tag 9"));
        let torn = scan(&image[..image.len() - 1], |f| Ok(f.lsn));
        assert_eq!(torn.good_len, good);
        assert_eq!(torn.corruption.as_deref(), Some("torn record body"));
    }
}
