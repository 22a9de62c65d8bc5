//! Equivalence of the byte-level text decoder with the general parser.
//!
//! `decode_text_line` recognises the one shape tracers write and leaves
//! every other line to `parse_text_line`. What a reader built on the pair
//! returns — the entries, or the error's index, field and reason — must
//! be what the general parser alone returns. The oracle is `read_text` as
//! it was before the decoder: `BufRead::lines` into `parse_text_line`.

use gmap_trace::io::{decode_text_line, parse_text_line, read_text, ParseTraceError, TraceEntry};
use proptest::prelude::*;
use std::io::BufRead;

/// `read_text` before the byte decoder.
fn reference_read_text<R: BufRead>(r: R) -> Result<Vec<TraceEntry>, ParseTraceError> {
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        if let Some(entry) = parse_text_line(&line, i + 1)? {
            out.push(entry);
        }
    }
    Ok(out)
}

/// Errors compare by what a caller can see of them.
fn visible(r: Result<Vec<TraceEntry>, ParseTraceError>) -> Result<Vec<TraceEntry>, String> {
    r.map_err(|e| match e {
        ParseTraceError::Malformed {
            index,
            field,
            reason,
        } => format!("malformed|{index}|{field}|{reason}"),
        ParseTraceError::Io(e) => format!("io|{:?}|{e}", e.kind()),
        ParseTraceError::BadMagic => "bad magic".to_string(),
    })
}

/// The two readers on `line` as the second line of a trace and as an
/// unterminated last line.
fn assert_readers_agree(line: &[u8]) {
    let mut file = b"1 0x10 R 0x80\n".to_vec();
    file.extend_from_slice(line);
    for terminator in [&b"\n"[..], b"\r\n", b""] {
        let mut input = file.clone();
        input.extend_from_slice(terminator);
        assert_eq!(
            visible(read_text(&input[..])),
            visible(reference_read_text(&input[..])),
            "line {:?} terminated by {:?}",
            String::from_utf8_lossy(line),
            String::from_utf8_lossy(terminator),
        );
    }
}

#[test]
fn table_of_line_shapes() {
    // (line, whether the byte decoder itself must recognise it)
    let table: &[(&[u8], bool)] = &[
        (b"0 0x10 R 0x80", true),
        (b"4294 0xdeadbeef W 0xffffffffffffffff", true),
        (b"7\t0x1c85\tW\t0xff00", true),
        (b"  \t 7 0x1c85 W 0xff00", true),
        (b"7 0x1c85 W 0xff00 \t ", true),
        (b"7   0x1c85  \t W    0xff00", true),
        (b"3 0X1C85 R 0XFF00", true),
        (b"3 1c85 W ff00", true),
        (b"3 0x1C85 W 0xAbCdEf", true),
        (b"999999999 0x0 R 0x0", true),
        (b"000000001 0x0000000000000001 R 0x1", true),
        // Values the general parser accepts but the decoder leaves to it.
        (b"+7 0x10 R 0x80", false),
        (b"4294967295 0x10 R 0x80", false),
        (b"0000000001 0x10 R 0x80", false),
        (b"7 0x00000000000000010 R 0x80", false),
        (b"7 +10 R 0x80", false),
        (b"7 0x10 R 0x80 fifth", false),
        (b"7 0x10 R 0x80\x0b", false),
        ("7\u{a0}0x10\u{2003}R 0x80".as_bytes(), false),
        (b"# gmap trace v1: tid pc kind addr", false),
        (b"   # indented comment", false),
        (b"", false),
        (b" \t ", false),
        // Errors: the general parser alone words them.
        (b"4294967296 0x10 R 0x80", false),
        (b"-1 0x10 R 0x80", false),
        (b"zebra 0x10 R 0x80", false),
        (b"7 0x10000000000000000 R 0x80", false),
        (b"7 0x R 0x80", false),
        (b"7 0x0x10 R 0x80", false),
        (b"7 0x1g R 0x80", false),
        (b"7 0x10 r 0x80", false),
        (b"7 0x10 RW 0x80", false),
        (b"7 0x10 Q 0x80", false),
        (b"7 0x10 R 0x80z", false),
        (b"7 0x10 R", false),
        (b"7 0x10", false),
        (b"7", false),
        (b"7 0x10R 0x80", false),
        (b"7 0x10 R0x80", false),
        // Not UTF-8: in a fifth field, where the general parser would
        // not look, and inside a field.
        (b"7 0x10 R 0x80 \xff\xfe", false),
        (b"7 0x1\xff R 0x80", false),
    ];
    for &(line, recognised) in table {
        assert_eq!(
            decode_text_line(line).is_some(),
            recognised,
            "decoder on {:?}",
            String::from_utf8_lossy(line)
        );
        if let (Some(entry), Ok(text)) = (decode_text_line(line), std::str::from_utf8(line)) {
            let general = parse_text_line(text, 1).expect("recognised lines parse");
            assert_eq!(Some(entry), general, "value of {text:?}");
        }
        assert_readers_agree(line);
    }
}

/// One token of a generated line: mostly well-formed, sometimes not.
fn arb_tid() -> impl Strategy<Value = String> {
    prop_oneof![
        16 => (0u64..1_000_000_000).prop_map(|v| v.to_string()),
        1 => (4_294_967_290u64..4_294_967_300).prop_map(|v| v.to_string()),
        1 => (0u64..100).prop_map(|v| format!("{v:010}")),
        1 => (0u64..100).prop_map(|v| format!("+{v}")),
        1 => Just("x1".to_string()),
        1 => Just(String::new()),
    ]
}

fn arb_hex() -> impl Strategy<Value = String> {
    let width = prop_oneof![16 => 1usize..=16, 1 => Just(0), 1 => Just(17), 1 => Just(18)];
    let digits = (any::<u64>(), width, any::<bool>()).prop_map(|(v, width, upper)| {
        let s = format!("{v:016x}");
        let s = match width {
            0 => String::new(),
            17 => format!("0{s}"),
            18 => format!("1{s}"),
            w => s[16 - w..].to_string(),
        };
        if upper {
            s.to_uppercase()
        } else {
            s
        }
    });
    (
        prop_oneof![6 => Just("0x"), 2 => Just("0X"), 2 => Just(""), 1 => Just("+")],
        digits,
    )
        .prop_map(|(prefix, digits)| format!("{prefix}{digits}"))
}

fn arb_line() -> impl Strategy<Value = String> {
    let blank = || {
        prop_oneof![
            12 => Just(" "),
            4 => Just("\t"),
            2 => Just("  \t"),
            1 => Just("\u{a0}"),
            1 => Just(""),
        ]
    };
    let kind = prop_oneof![
        10 => Just("R"), 10 => Just("W"), 1 => Just("r"), 1 => Just("RW"), 1 => Just("")
    ];
    let tail = prop_oneof![
        12 => Just(""), 4 => Just(" "), 2 => Just("\t \t"), 1 => Just(" extra"), 1 => Just("z")
    ];
    (
        prop_oneof![8 => Just(""), 2 => Just("  "), 2 => Just("\t"), 1 => Just("# ")],
        (arb_tid(), arb_hex(), kind, arb_hex()),
        (blank(), blank(), blank()),
        tail,
        0usize..16,
    )
        .prop_map(|(lead, (tid, pc, kind, addr), (b1, b2, b3), tail, keep)| {
            let line = format!("{lead}{tid}{b1}{pc}{b2}{kind}{b3}{addr}{tail}");
            // Now and then drop the end of the line: missing fields.
            match keep {
                0 => line.chars().take(line.chars().count() / 2).collect(),
                _ => line,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Lines drawn from the text grammar and its near misses: decoder
    /// plus fallback equals the general parser, on the value or on the
    /// error's index, field and reason.
    #[test]
    fn generated_lines(line in arb_line()) {
        if let Some(entry) = decode_text_line(line.as_bytes()) {
            let general = parse_text_line(&line, 1).expect("recognised lines parse");
            prop_assert_eq!(Some(entry), general, "value of {:?}", line);
        }
        assert_readers_agree(line.as_bytes());
    }
}

/// The generated grammar must reach both sides of the decoder, or the
/// property above proves nothing.
#[test]
fn grammar_reaches_both_paths() {
    let strategy = arb_line();
    let recognised = (0..2000)
        .filter(|&case| {
            let mut rng = proptest::TestRng::for_case("grammar_reaches_both_paths", case);
            decode_text_line(strategy.generate(&mut rng).as_bytes()).is_some()
        })
        .count();
    assert!(
        (200..=1800).contains(&recognised),
        "{recognised} of 2000 generated lines take the byte decoder"
    );
}
