//! Property fuzzing of the wire decoders in `mube-serve`: the HTTP/1.1
//! request parser, the JSON body reader, and the replication frame reader.
//! All sit on untrusted network input, so the contracts are strict — never
//! panic, never accept corrupt input, and for the frame reader: decode the
//! good prefix of a torn or corrupted stream, then stop cleanly — exactly
//! where the file scanner over the same bytes stops. The JSON reader must
//! also read back whatever the writer emits, in time linear in the body.

use std::io::Cursor;
use std::time::{Duration, Instant};

use mube_core::jsonw::{self, JsonBuf};
use mube_serve::frame::{parse_frame, scan};
use mube_serve::persist::encode_event_frame;
use mube_serve::repl::{encode_heartbeat, encode_reset, FrameReader, TAG_HEARTBEAT, TAG_RESET};
use mube_serve::{http, Event, Json};
use proptest::prelude::*;

const MAX_BODY: usize = 1 << 20;

fn config() -> ProptestConfig {
    ProptestConfig {
        cases: 192,
        ..ProptestConfig::default()
    }
}

/// Renders one replication frame from a `(selector, lsn, digest, text)`
/// tuple: event, heartbeat, or reset.
fn render_frame(selector: u8, lsn: u64, digest: u64, text: &str) -> Vec<u8> {
    match selector % 3 {
        0 => {
            let id = lsn % 1000 + 1;
            encode_event_frame(
                id,
                &Event::CatalogCreate {
                    id,
                    text: text.to_string(),
                },
            )
            .unwrap()
        }
        1 => encode_heartbeat(lsn, digest),
        _ => encode_reset(),
    }
}

/// A stream of well-formed replication frames (events + control frames).
fn frame_stream() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u8..3, 1u64..1000, any::<u64>(), "[ -~]{0,40}"), 1..8).prop_map(
        |specs| {
            specs
                .iter()
                .flat_map(|(sel, lsn, digest, text)| render_frame(*sel, *lsn, *digest, text))
                .collect()
        },
    )
}

/// One character from a class the JSON string reader must get right:
/// controls, the escaped specials, ASCII, the BMP on either side of the
/// surrogate block, and astral-plane characters.
fn json_char(class: u8, raw: u32) -> char {
    let code = match class % 6 {
        0 => raw % 0x20,
        1 => [u32::from(b'"'), u32::from(b'\\'), u32::from(b'/')][raw as usize % 3],
        2 => 0x20 + raw % 0x5f,
        3 => 0xa0 + raw % 0xd700,
        4 => 0xe000 + raw % 0x2000,
        _ => 0x1_0000 + raw % 0x10_0000,
    };
    char::from_u32(code).expect("every class avoids the surrogate block")
}

fn json_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u8..6, any::<u32>()), 0..64)
        .prop_map(|cs| cs.into_iter().map(|(c, raw)| json_char(c, raw)).collect())
}

/// Fragments of JSON syntax, valid and not, for token soup.
const JSON_TOKENS: [&str; 24] = [
    "{", "}", "[", "]", "\"", "\\", ":", ",", "1e", "-", "0", ".", "true", "nul", "\\u", "d83d",
    "\\ude00", " ", "é", "😀", "\u{1}", "\"k\":", "9e999", "\n",
];

/// Decodes everything the reader can produce; panics bubble up to proptest.
fn drain(reader: &mut FrameReader) -> (usize, bool) {
    let mut decoded = 0;
    loop {
        match reader.next_frame() {
            Ok(Some(_)) => decoded += 1,
            Ok(None) => return (decoded, false),
            Err(_) => return (decoded, true),
        }
    }
}

proptest! {
    #![proptest_config(config())]

    /// The HTTP parser never panics on arbitrary bytes: every input is
    /// either a parsed request or a typed `HttpError` that maps to a 4xx.
    #[test]
    fn http_parser_never_panics(input in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = http::read_request(&mut Cursor::new(input), MAX_BODY);
    }

    /// Hostile-but-structured request heads also never panic, and header
    /// floods are rejected rather than accepted.
    #[test]
    fn http_parser_survives_request_soup(
        method in "[A-Z]{0,10}",
        path in "[ -~]{0,40}",
        headers in proptest::collection::vec(("[a-zA-Z-]{1,20}", "[ -~]{0,40}"), 0..80),
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // The parser stores up to 64 headers and rejects the 65th.
        let flood = headers.len() > 64;
        let mut raw = format!("{method} {path} HTTP/1.1\r\n");
        for (name, value) in &headers {
            raw.push_str(&format!("{name}: {value}\r\n"));
        }
        raw.push_str("\r\n");
        let mut bytes = raw.into_bytes();
        bytes.extend_from_slice(&body);
        let parsed = http::read_request(&mut Cursor::new(bytes), MAX_BODY);
        if flood {
            prop_assert!(parsed.is_err(), "header floods must be rejected");
        }
    }

    /// A mutated byte inside a valid request never causes a panic.
    #[test]
    fn http_parser_survives_single_byte_mutations(
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let mut raw = b"POST /sessions HTTP/1.1\r\nhost: a\r\ncontent-length: 2\r\n\r\n{}".to_vec();
        let at = (at as usize) % raw.len();
        raw[at] = byte;
        let _ = http::read_request(&mut Cursor::new(raw), MAX_BODY);
    }

    /// A torn stream (cut at any offset) decodes exactly the frames whose
    /// bytes fully arrived, then reports "need more" — never an error,
    /// never a partial frame.
    #[test]
    fn frame_reader_decodes_the_good_prefix_of_a_torn_stream(
        stream in frame_stream(),
        cut in any::<u64>(),
    ) {
        let cut = (cut as usize) % (stream.len() + 1);
        let mut whole = FrameReader::new();
        whole.feed(&stream);
        let (total, err) = drain(&mut whole);
        prop_assert!(!err, "well-formed stream must decode cleanly");

        let mut torn = FrameReader::new();
        torn.feed(&stream[..cut]);
        let (decoded, err) = drain(&mut torn);
        prop_assert!(!err, "a torn tail is incomplete, not corrupt");
        prop_assert!(decoded <= total);
        if cut == stream.len() {
            prop_assert_eq!(decoded, total);
        }
    }

    /// A flipped byte is either detected (CRC/length error) or lands in a
    /// frame after the good prefix — the reader never panics and never
    /// yields more frames than the stream held.
    #[test]
    fn frame_reader_rejects_or_bounds_corruption(
        stream in frame_stream(),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut corrupt = stream.clone();
        let at = (at as usize) % corrupt.len();
        corrupt[at] ^= flip;

        let mut whole = FrameReader::new();
        whole.feed(&stream);
        let (total, _) = drain(&mut whole);

        let mut reader = FrameReader::new();
        reader.feed(&corrupt);
        let (decoded, _) = drain(&mut reader);
        prop_assert!(decoded <= total, "corruption must never invent frames");
    }

    /// Frames delivered one byte at a time decode identically to frames
    /// delivered in one burst.
    #[test]
    fn frame_reader_is_chunking_invariant(stream in frame_stream()) {
        let mut whole = FrameReader::new();
        whole.feed(&stream);
        let (total, err) = drain(&mut whole);
        prop_assert!(!err);

        let mut dribble = FrameReader::new();
        let mut decoded = 0;
        for byte in &stream {
            dribble.feed(std::slice::from_ref(byte));
            while let Ok(Some(_)) = dribble.next_frame() {
                decoded += 1;
            }
        }
        prop_assert_eq!(decoded, total);
    }

    /// The stream reader (fed in arbitrary chunks) and the slice scanner
    /// (over the whole image) agree on a stream cut at any point, with at
    /// most one flipped bit: the same frames, and an error exactly where
    /// the scan stops on a bad length or CRC, never on a torn end.
    #[test]
    fn stream_reader_agrees_with_the_slice_scanner(
        stream in frame_stream(),
        splits in proptest::collection::vec(any::<u64>(), 0..6),
        flip_at in any::<u64>(),
        flip_bit in 0u8..10,
        cut in any::<u64>(),
        whole in 0u8..2,
    ) {
        let mut image = stream;
        if flip_bit < 8 {
            let at = (flip_at as usize) % image.len();
            image[at] ^= 1 << flip_bit;
        }
        if whole == 0 {
            image.truncate((cut as usize) % (image.len() + 1));
        }
        let sliced = scan(&image, |f| Ok((f.lsn, f.tag, f.body.to_vec())));
        let stop = parse_frame(&image[sliced.good_len as usize..]).err();
        let corrupt = stop.is_some_and(|s| !s.is_torn());

        let mut points: Vec<usize> = splits
            .iter()
            .map(|&p| (p as usize) % (image.len() + 1))
            .chain([0, image.len()])
            .collect();
        points.sort_unstable();
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        let mut errored = false;
        'feed: for w in points.windows(2) {
            reader.feed(&image[w[0]..w[1]]);
            loop {
                match reader.next_frame() {
                    Ok(Some(f)) => frames.push((f.lsn, f.tag, f.body.to_vec())),
                    Ok(None) => break,
                    Err(_) => {
                        errored = true;
                        break 'feed;
                    }
                }
            }
        }
        prop_assert_eq!(frames, sliced.records);
        prop_assert_eq!(errored, corrupt);
    }
}

proptest! {
    #![proptest_config(config())]

    /// Every string the writer emits — as a value or as a key — reads back
    /// equal: controls, quotes, backslashes, astral characters.
    #[test]
    fn json_reader_reads_back_every_written_string(text in json_text()) {
        prop_assert_eq!(Json::parse(&jsonw::string(&text)), Ok(Json::Str(text.clone())));
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key(&text).str_value(&text);
        j.end_obj();
        let parsed = Json::parse(&j.finish()).expect("writer output parses");
        prop_assert_eq!(parsed.get(&text).and_then(Json::as_str), Some(text.as_str()));
    }

    /// Arbitrary bytes (decoded lossily, as the server does) never panic
    /// the reader.
    #[test]
    fn json_reader_never_panics_on_byte_soup(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// Soups of JSON fragments and multi-byte characters never panic the
    /// reader, and an error offset always lies inside the input.
    #[test]
    fn json_reader_never_panics_on_token_soup(picks in proptest::collection::vec(0usize..24, 0..64)) {
        let text: String = picks.iter().map(|&i| JSON_TOKENS[i]).collect();
        if let Err(e) = Json::parse(&text) {
            prop_assert!(e.offset <= text.len(), "offset {} past {}", e.offset, text.len());
        }
    }
}

/// The depth cap admits 64 nested levels below the root and no more.
#[test]
fn json_depth_bomb_is_refused_at_the_cap() {
    let ok = "[".repeat(65) + &"]".repeat(65);
    assert!(Json::parse(&ok).is_ok());
    let bomb = "[".repeat(66) + &"]".repeat(66);
    assert_eq!(Json::parse(&bomb).unwrap_err().message, "nesting too deep");
    let deep = "[".repeat(100_000);
    assert!(Json::parse(&deep).is_err());
}

/// Duplicate keys are all kept in order; lookups see the last one.
#[test]
fn json_duplicate_keys_last_wins() {
    let v = Json::parse(r#"{"a":1,"a":"two"}"#).unwrap();
    assert_eq!(v.as_object().unwrap().len(), 2);
    assert_eq!(v.get("a").and_then(Json::as_str), Some("two"));
}

/// Huge exponents: finite results parse (underflow to zero included),
/// overflow to infinity is refused; `NaN` is not JSON, `-0` keeps its sign.
#[test]
fn json_numbers_at_the_edges() {
    assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
    assert_eq!(Json::parse("1e-400").unwrap().as_f64(), Some(0.0));
    for bad in ["1e309", "-1e99999", "1e99999999999999999999"] {
        assert!(
            Json::parse(bad)
                .unwrap_err()
                .message
                .starts_with("invalid number"),
            "{bad}"
        );
    }
    assert_eq!(Json::parse("NaN").unwrap_err().message, "unexpected `N`");
    let neg_zero = Json::parse("-0").unwrap().as_f64().unwrap();
    assert!(neg_zero == 0.0 && neg_zero.is_sign_negative());
}

/// String errors keep their messages and byte offsets.
#[test]
fn json_string_errors_keep_their_offsets() {
    for (text, offset, message) in [
        ("\"ab\u{1}c\"", 3, "unescaped control character"),
        ("\"é\u{1f}\"", 3, "unescaped control character"),
        ("\"abc", 4, "unterminated string"),
        ("\"é😀", 7, "unterminated string"),
        ("\"a\\q\"", 4, "unknown escape `\\q`"),
        ("\"a\\", 3, "bad escape"),
        ("\"\\ud83d\"", 7, "lone surrogate"),
        ("\"\\ud83d\\u0041\"", 13, "invalid low surrogate"),
        ("\"\\ud83dx\"", 7, "lone surrogate"),
        ("\"\\udc00\"", 7, "invalid \\u escape"),
        ("\"\\u12G4\"", 5, "bad hex digit"),
        ("\"\\u12", 5, "short \\u escape"),
    ] {
        let e = Json::parse(text).unwrap_err();
        assert_eq!(
            (e.offset, e.message.as_str()),
            (offset, message),
            "{text:?}"
        );
    }
}

/// A 1 MiB string body parses in time linear in its length: a reader that
/// re-validates the rest of the input per character takes tens of seconds.
#[test]
fn json_one_mib_string_body_parses_promptly() {
    let text: String = "plain ascii, é and 😀 \\\" ".repeat(40_000);
    let body = format!("{{\"catalog\": {}}}", jsonw::string(&text));
    assert!(body.len() >= 1 << 20);
    let start = Instant::now();
    let v = Json::parse(&body).unwrap();
    let took = start.elapsed();
    assert_eq!(v.get("catalog").and_then(Json::as_str), Some(text.as_str()));
    assert!(took < Duration::from_secs(2), "1 MiB body took {took:?}");
}

/// Control frames round-trip through the reader with their tags intact.
#[test]
fn control_frames_round_trip() {
    let mut reader = FrameReader::new();
    reader.feed(&encode_heartbeat(42, 0xdead_beef));
    reader.feed(&encode_reset());
    let hb = reader.next_frame().unwrap().expect("heartbeat");
    assert_eq!((hb.lsn, hb.tag), (42, TAG_HEARTBEAT));
    let reset = reader.next_frame().unwrap().expect("reset");
    assert_eq!((reset.lsn, reset.tag), (0, TAG_RESET));
    assert!(reader.next_frame().unwrap().is_none());
}
