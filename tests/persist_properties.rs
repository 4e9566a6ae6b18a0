//! Property tests for the durable store: journal-frame corruption
//! detection, whole-session document round-trips over generated
//! histories, the frame-body codec (raw payloads, bodies written
//! before them, and bodies that must not decode), and the JSON codec
//! every document goes through (string escapes, pinned printer output,
//! linear-time parsing, nesting limit).

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hercules::encaps::odyssey_registry;
use hercules::flow::FlowSpec;
use hercules::history::{Derivation, InstanceSpec, Metadata, Payload, Timestamp};
use hercules::store::{decode_op, encode_frame, encode_op, scan_frames, ExecSpec, JournalOp};
use hercules::{ExecEvent, ExecReportSpec, FlowOp, Session, SessionSpec, Workspace};
use proptest::prelude::*;
use serde::Value;

/// One piece of a generated string: a character the printer escapes,
/// a control character (U+0000–U+001F), a multi-byte UTF-8 character,
/// or a long run that needs no escape.
fn string_piece(kind: u8, n: u32) -> String {
    const ESCAPED: [char; 6] = ['"', '\\', '/', '\n', '\r', '\t'];
    const MULTI_BYTE: [char; 6] = ['é', '€', '中', '𝄞', '\u{7f}', '\u{2028}'];
    match kind {
        0 => ESCAPED[n as usize % ESCAPED.len()].to_string(),
        1 => char::from_u32(n % 0x20).expect("ASCII").to_string(),
        2 => MULTI_BYTE[n as usize % MULTI_BYTE.len()].to_string(),
        _ => "abcdefghijklmnopqrstuvwxyz 0123456789"
            .chars()
            .cycle()
            .take(n as usize % 600)
            .collect(),
    }
}

/// The printer's string output, written one character at a time: the
/// reference the run-copying printer must match byte for byte.
fn reference_json_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A session whose history records cells drawn from `pool` (so cells
/// share data), with an optional flow under construction, optionally
/// left with unexpand tombstones.
fn generated_session(
    pool: &[Vec<u8>],
    cells: &[(usize, u32)],
    build_flow: bool,
    unexpand: bool,
) -> Session {
    let mut session = Session::odyssey("prop");
    let schema = session.schema().clone();
    let editor = schema.require("CircuitEditor").expect("known");
    let edited = schema.require("EditedNetlist").expect("known");
    let tool = session.db().instances_of(editor)[0];
    for (pick, tag) in cells {
        session
            .db_mut()
            .record_derived(
                edited,
                Metadata::by("prop").named(&format!("cell-{tag}")),
                &pool[pick % pool.len()],
                Derivation::by_tool(tool, []),
            )
            .expect("records");
    }
    if build_flow {
        let layout = session.start_from_goal("Layout").expect("starts");
        let created = session.expand(layout).expect("expands");
        session
            .specialize(created[1], "EditedNetlist")
            .expect("specializes");
        session.expand(created[1]).expect("expands");
        if unexpand {
            session.unexpand(created[1]).expect("unexpands");
        } else {
            session.bind_latest().expect("binds");
        }
    }
    session
}

/// A generated inline payload: the concatenation of pieces that JSON
/// or the hex form treat specially — `"`, `\`, `{`, NUL — hex-looking
/// text, and arbitrary bytes. No pieces make an empty payload.
fn payload_bytes(pieces: &[(u8, u32)]) -> Vec<u8> {
    pieces
        .iter()
        .flat_map(|&(kind, n)| -> Vec<u8> {
            match kind % 6 {
                0 => b"\"".to_vec(),
                1 => b"\\".to_vec(),
                2 => b"{".to_vec(),
                3 => vec![0],
                4 => b"00ff6869deadbeef"
                    .iter()
                    .copied()
                    .cycle()
                    .take(n as usize % 40)
                    .collect(),
                _ => (0..n % 48)
                    .map(|i| (i.wrapping_mul(131) ^ n) as u8)
                    .collect(),
            }
        })
        .collect()
}

/// An `EditedNetlist` record derived by instance 0 from nothing.
fn record(data: Option<Payload>) -> InstanceSpec {
    InstanceSpec {
        entity: "EditedNetlist".into(),
        user: "prop".into(),
        created: Timestamp(0),
        name: String::new(),
        comment: String::new(),
        keywords: Vec::new(),
        data,
        tool: Some(0),
        inputs: Some(Vec::new()),
    }
}

/// Every byte count to cut `len` bytes at below `len`: all of them for
/// a short buffer, an even spread plus both ends for a long one.
fn cuts(len: usize) -> Vec<usize> {
    let step = (len / 192).max(1);
    let mut cuts: Vec<usize> = (0..len).step_by(step).collect();
    cuts.extend(len.saturating_sub(16)..len);
    cuts
}

/// The frame-body codec's contract for one operation: the encoded body
/// decodes to it, so does the JSON body written before raw payloads,
/// no strict prefix of the body decodes, and no truncation or
/// single-byte flip of the frame decodes to a different operation.
fn check_frame_codec(op: &JournalOp) -> Result<(), TestCaseError> {
    let frame = encode_op(op).expect("encodes");
    let scan = scan_frames(&frame);
    prop_assert_eq!((scan.payloads.len(), scan.trailing), (1, 0));
    let body = &scan.payloads[0];
    prop_assert_eq!(&decode_op(body).expect("decodes"), op);
    let json = serde_json::to_vec(op).expect("serializes");
    prop_assert_eq!(&decode_op(&json).expect("the JSON body decodes"), op);
    for cut in cuts(body.len()) {
        prop_assert!(
            decode_op(&body[..cut]).is_err(),
            "the body's first {cut} bytes decode"
        );
    }
    let decodes_to_op = |buf: &[u8]| {
        scan_frames(buf)
            .payloads
            .iter()
            .all(|body| decode_op(body).map_or(true, |back| back == *op))
    };
    for cut in cuts(frame.len()) {
        prop_assert!(decodes_to_op(&frame[..cut]), "cut at byte {cut}");
    }
    for pos in cuts(frame.len()) {
        for mask in [0x01, 0x80, 0xFF] {
            let mut dirty = frame.clone();
            dirty[pos] ^= mask;
            prop_assert!(decodes_to_op(&dirty), "byte {pos} flipped by {mask:#x}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flipping any single byte anywhere in a framed journal is
    /// detected: the scan never returns the original payload sequence.
    /// (CRC32 detects every burst of up to 32 bits, which covers a
    /// one-byte flip; a flip in a length field makes the frame torn or
    /// fail its checksum.)
    #[test]
    fn corrupting_any_single_byte_of_a_frame_is_detected(
        payload in prop::collection::vec(0u8..=255, 0..48),
        extra in prop::collection::vec(0u8..=255, 0..16),
        pos_seed in 0usize..100_000,
        mask in 1u8..=255,
    ) {
        let mut buf = encode_frame(&payload).expect("frames");
        buf.extend_from_slice(&encode_frame(&extra).expect("frames"));
        let clean = scan_frames(&buf);
        prop_assert_eq!(clean.payloads.len(), 2);
        prop_assert_eq!(clean.trailing, 0);

        let pos = pos_seed % buf.len();
        let mut dirty = buf.clone();
        dirty[pos] ^= mask;
        let scan = scan_frames(&dirty);
        prop_assert_ne!(scan.payloads, clean.payloads);
    }

    /// The frame checksum protects serialized session documents too:
    /// a one-byte flip in a framed `SessionSpec` never goes unnoticed
    /// (raw JSON could silently absorb a digit flip — the frame CRC is
    /// what rules that out in the journal).
    #[test]
    fn framed_session_documents_detect_single_byte_corruption(
        pos_seed in 0usize..100_000,
        mask in 1u8..=255,
    ) {
        let mut session = Session::odyssey("prop");
        session.start_from_goal("Layout").expect("starts");
        let json = SessionSpec::from_session(&session)
            .to_json()
            .expect("serializes");
        let buf = encode_frame(json.as_bytes()).expect("frames");
        let pos = pos_seed % buf.len();
        let mut dirty = buf.clone();
        dirty[pos] ^= mask;
        let scan = scan_frames(&dirty);
        prop_assert_ne!(scan.payloads, vec![json.into_bytes()]);
    }

    /// Serialize → parse → restore → re-capture is the identity on
    /// session documents, over generated histories (recorded data drawn
    /// from a small pool of arbitrary payloads, so cells share data;
    /// optional flow construction; optional unexpand tombstones).
    #[test]
    fn session_documents_round_trip_over_generated_histories(
        pool in prop::collection::vec(prop::collection::vec(0u8..=255, 0..32), 1..3),
        cells in prop::collection::vec((0usize..4, 0u32..1000), 0..6),
        build_flow in prop::bool::ANY,
        unexpand in prop::bool::ANY,
    ) {
        let session = generated_session(&pool, &cells, build_flow, unexpand);
        let spec = SessionSpec::from_session(&session);
        let json = spec.to_json().expect("serializes");
        let parsed = SessionSpec::from_json(&json).expect("parses");
        prop_assert_eq!(&parsed, &spec);

        let restored = parsed
            .restore(odyssey_registry(session.schema()))
            .expect("restores");
        prop_assert_eq!(SessionSpec::from_session(&restored), spec);
        prop_assert_eq!(restored.db().store(), session.db().store());
    }

    /// Journal operations survive encode → frame → scan → decode,
    /// including executions whose records name earlier instances for
    /// their payloads.
    #[test]
    fn journal_ops_round_trip_through_frames(
        seeds in prop::collection::vec((0usize..7, 0u64..50, 0usize..10), 1..12),
    ) {
        let ops: Vec<JournalOp> = seeds
            .iter()
            .map(|&(kind, a, b)| match kind {
                0 => JournalOp::Flow(FlowOp::Seed {
                    entity: format!("Entity{a}"),
                }),
                1 => JournalOp::Flow(FlowOp::Expand {
                    node: b,
                    optional: vec![format!("Opt{a}")],
                    reuse: vec![(format!("Reuse{a}"), b)],
                    reuse_existing: a % 2 == 0,
                }),
                2 => JournalOp::DataStart { instance: a },
                3 => JournalOp::Select {
                    node: b,
                    instances: vec![a, a + 1],
                },
                4 => JournalOp::BindLatest,
                5 => JournalOp::Exec(ExecSpec {
                    instances: vec![
                        record(Some(Payload::Inline(vec![b as u8; b]))),
                        record(Some(Payload::Shared(a))),
                        record(Some(Payload::Shared(a + b as u64))),
                    ],
                    report: None,
                    event: None,
                }),
                _ => JournalOp::StoreFlow {
                    name: format!("flow-{a}"),
                    description: format!("description {b}"),
                },
            })
            .collect();

        let mut buf = Vec::new();
        for op in &ops {
            buf.extend_from_slice(&encode_op(op).expect("frames"));
        }
        let scan = scan_frames(&buf);
        prop_assert_eq!(scan.trailing, 0);
        prop_assert_eq!(scan.payloads.len(), ops.len());
        let back: Vec<JournalOp> = scan
            .payloads
            .iter()
            .map(|p| decode_op(p).expect("decodes"))
            .collect();
        prop_assert_eq!(back, ops);
    }

    /// Every kind of journal operation satisfies the frame-body codec's
    /// contract ([`check_frame_codec`]); executions carry inline
    /// payloads that are empty or hold bytes JSON and hex treat
    /// specially, shared payloads, data-less records, a report and an
    /// event.
    #[test]
    fn every_journal_op_kind_survives_the_frame_codec(
        kind in 0usize..12,
        a in 0u64..50,
        b in 0usize..10,
        payloads in prop::collection::vec(
            prop::collection::vec((0u8..6, 0u32..200), 0..5),
            0..4,
        ),
    ) {
        let text = format!("\"quoted\" \\ {{braces}} \0 6869 #{a}");
        let op = match kind {
            0 => JournalOp::Flow(FlowOp::Seed { entity: text }),
            1 => JournalOp::Flow(FlowOp::Install {
                spec: layout_flow_spec(),
            }),
            2 => JournalOp::Flow(FlowOp::Expand {
                node: b,
                optional: vec![text.clone()],
                reuse: vec![(text, b)],
                reuse_existing: a % 2 == 0,
            }),
            3 => JournalOp::Flow(FlowOp::ExpandDown {
                node: b,
                consumer: text,
            }),
            4 => JournalOp::Flow(FlowOp::ExpandAll { node: b }),
            5 => JournalOp::Flow(FlowOp::Specialize {
                node: b,
                subtype: text,
            }),
            6 => JournalOp::Flow(FlowOp::Unexpand { node: b }),
            7 => JournalOp::DataStart { instance: a },
            8 => JournalOp::Select {
                node: b,
                instances: vec![a, a + 1],
            },
            9 => JournalOp::BindLatest,
            10 => JournalOp::StoreFlow {
                name: text.clone(),
                description: text,
            },
            _ if a % 7 == 0 => JournalOp::Clear,
            _ => {
                let mut instances: Vec<InstanceSpec> = payloads
                    .iter()
                    .map(|pieces| record(Some(Payload::Inline(payload_bytes(pieces)))))
                    .collect();
                instances.push(record(Some(Payload::Shared(a))));
                instances.push(record(None));
                let turn = b % instances.len();
                instances.rotate_left(turn);
                JournalOp::Exec(ExecSpec {
                    instances,
                    report: (a % 2 == 0).then(|| ExecReportSpec {
                        produced: vec![(b, vec![a, a + 1])],
                        tasks: Vec::new(),
                    }),
                    event: (a % 3 == 0).then(|| ExecEvent {
                        operation: "run".into(),
                        tasks: b,
                        runs: b,
                        cache_hits: 0,
                        failed: 0,
                        skipped: 0,
                        failures: vec![text],
                        error: None,
                        wall_unix_ms: a,
                        mono_ns: a,
                    }),
                })
            }
        };
        check_frame_codec(&op)?;
    }

    /// Generated strings print exactly as the one-character-at-a-time
    /// reference does and parse back to themselves.
    #[test]
    fn json_strings_print_like_the_reference_and_round_trip(
        pieces in prop::collection::vec((0u8..4, 0u32..10_000), 0..24),
    ) {
        let s: String = pieces.iter().map(|&(kind, n)| string_piece(kind, n)).collect();
        let text = serde_json::to_string(&s).expect("serializes");
        prop_assert_eq!(&text, &reference_json_string(&s));
        let back: String = serde_json::from_str(&text).expect("parses");
        prop_assert_eq!(back, s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshots of generated sessions satisfy the frame-body codec's
    /// contract: histories whose cells share data drawn from a pool of
    /// payloads that are empty or hold bytes JSON and hex treat
    /// specially, with or without a flow under construction.
    #[test]
    fn snapshots_of_generated_sessions_survive_the_frame_codec(
        pool in prop::collection::vec(
            prop::collection::vec((0u8..6, 0u32..200), 0..4),
            1..4,
        ),
        cells in prop::collection::vec((0usize..4, 0u32..1000), 0..6),
        build_flow in prop::bool::ANY,
        unexpand in prop::bool::ANY,
    ) {
        let pool: Vec<Vec<u8>> = pool.iter().map(|pieces| payload_bytes(pieces)).collect();
        let session = generated_session(&pool, &cells, build_flow, unexpand);
        let op = JournalOp::Snapshot(Box::new(SessionSpec::from_session(&session)));
        check_frame_codec(&op)?;
    }
}

/// The structure of a built Layout flow, for `FlowOp::Install`.
fn layout_flow_spec() -> FlowSpec {
    let mut session = Session::odyssey("prop");
    let layout = session.start_from_goal("Layout").expect("starts");
    session.expand(layout).expect("expands");
    FlowSpec::from_task_graph(session.flow().expect("flow"))
}

/// A frame body in the raw-payload layout, written out by hand:
/// `0xFF`, the JSON's length and bytes, the payload count, each payload
/// length, then `payloads`, whatever the lengths say.
fn handmade_body(json: &[u8], lengths: &[u32], payloads: &[u8]) -> Vec<u8> {
    let len = |n: usize| u32::try_from(n).expect("small").to_le_bytes();
    let mut body = vec![0xFF];
    body.extend(len(json.len()));
    body.extend(json);
    body.extend(len(lengths.len()));
    for n in lengths {
        body.extend(n.to_le_bytes());
    }
    body.extend(payloads);
    body
}

/// A primary `Netlist` record holding `data`, replayable into an
/// odyssey session.
fn netlist_exec(data: Payload) -> JournalOp {
    JournalOp::Exec(ExecSpec {
        instances: vec![InstanceSpec {
            entity: "Netlist".into(),
            user: "prop".into(),
            created: Timestamp(0),
            name: String::new(),
            comment: String::new(),
            keywords: Vec::new(),
            data: Some(data),
            tool: None,
            inputs: None,
        }],
        report: None,
        event: None,
    })
}

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hercules-codec-{tag}-{}", std::process::id()))
}

/// Handmade bodies that misstate a section fail to decode — a length
/// running past the body, bytes left after the last payload, a payload
/// count that differs from the placeholders, a placeholder holding
/// bytes — and `open` quarantines each such frame as it does any
/// CRC-valid frame that does not parse, keeping the frames before it.
#[test]
fn bodies_that_misstate_a_section_fail_to_decode_and_are_quarantined() {
    let placeholder = serde_json::to_vec(&netlist_exec(Payload::Inline(Vec::new()))).expect("json");
    let filled = serde_json::to_vec(&netlist_exec(Payload::Inline(b"hi".to_vec()))).expect("json");
    let good = handmade_body(&placeholder, &[3], b"abc");
    assert_eq!(
        decode_op(&good).expect("a well-formed body decodes"),
        netlist_exec(Payload::Inline(b"abc".to_vec()))
    );
    let mut long_json = good.clone();
    long_json[1] += 1;
    let bad = [
        (
            "a payload length overruns",
            handmade_body(&placeholder, &[4], b"abc"),
        ),
        ("the JSON length overruns", long_json),
        (
            "a byte is left over",
            handmade_body(&placeholder, &[3], b"abcd"),
        ),
        (
            "two payloads for one placeholder",
            handmade_body(&placeholder, &[1, 2], b"abc"),
        ),
        (
            "no payload for the placeholder",
            handmade_body(&placeholder, &[], b""),
        ),
        (
            "the placeholder holds bytes",
            handmade_body(&filled, &[2], b"hi"),
        ),
        (
            "the body ends inside the lengths",
            good[..good.len() - 5].to_vec(),
        ),
    ];
    for (case, body) in bad {
        assert!(decode_op(&body).is_err(), "{case}: decodes");

        let root = temp_root("misstated");
        let _ = fs::remove_dir_all(&root);
        let mut session = Session::odyssey("prop");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        let kept = netlist_exec(Payload::Inline(b"kept".to_vec()));
        ws.append(&kept).expect("appends");
        kept.replay(&mut session).expect("replays");
        drop(ws);
        let journal = root.join("journal-0.log");
        let mut bytes = fs::read(&journal).expect("journal");
        let frame = encode_frame(&body).expect("frames");
        bytes.extend(&frame);
        fs::write(&journal, &bytes).expect("appends the frame");

        let (ws, restored, report) =
            Workspace::open_session(&root, |s| odyssey_registry(s)).expect("recovers");
        assert_eq!(report.ops_replayed, 1, "{case}");
        assert_eq!(report.bytes_discarded, frame.len() as u64, "{case}");
        assert!(report.quarantined(), "{case}: {report}");
        let segment = &report.segments[0];
        assert_eq!(segment.frames_quarantined, 1, "{case}");
        let quarantined = fs::read(root.join(&segment.quarantined_as[0])).expect("quarantine");
        assert_eq!(quarantined, frame, "{case}: the frame is preserved");
        assert_eq!(
            SessionSpec::from_session(&restored),
            SessionSpec::from_session(&session),
            "{case}"
        );
        drop(ws);
        fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn printer_output_is_pinned() {
    let controls: String = (0u32..0x20)
        .map(|c| char::from_u32(c).expect("ASCII"))
        .collect();
    assert_eq!(
        serde_json::to_string(&controls).expect("serializes"),
        concat!(
            r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b"#,
            r#"\u000c\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017"#,
            r#"\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f""#,
        )
    );
    assert_eq!(
        serde_json::to_string(&"say \"a\\b\" / é € 𝄞 \u{7f}").expect("serializes"),
        "\"say \\\"a\\\\b\\\" / é € 𝄞 \u{7f}\""
    );
    assert_eq!(serde_json::to_string(&0i64).expect("serializes"), "0");
    assert_eq!(serde_json::to_string(&-1i64).expect("serializes"), "-1");
    assert_eq!(
        serde_json::to_string(&i64::MIN).expect("serializes"),
        "-9223372036854775808"
    );
    assert_eq!(
        serde_json::to_string(&u64::MAX).expect("serializes"),
        "18446744073709551615"
    );
}

/// The printer tests eight bytes per step, so an escape must be found
/// wherever it falls in or across those words: every escape-class byte
/// at every position of a 25-byte string, and multi-byte characters
/// straddling a word boundary next to an escape.
#[test]
fn escapes_print_like_the_reference_at_every_position() {
    let escape_class = ['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}'];
    let mut cases = Vec::new();
    for c in escape_class {
        for at in 0..=24 {
            let mut s: String = "abcdefghijklmnopqrstuvwx".into();
            s.insert(at, c);
            cases.push(s);
        }
    }
    for c in ['é', '€', '𝄞', '\u{2028}'] {
        for prefix in 0..=9 {
            for tail in ["\"", "\\z", "\u{1}", "no escape"] {
                cases.push(format!("{}{c}{tail}", "a".repeat(prefix)));
            }
        }
    }
    for s in cases {
        let text = serde_json::to_string(&s).expect("serializes");
        assert_eq!(text, reference_json_string(&s), "{s:?}");
        let back: String = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, s);
    }
}

#[test]
fn parser_accepts_every_escape() {
    let parsed: String =
        serde_json::from_str(r#""\"\\\/\b\f\n\r\t\u0000\u001f\u00e9\u20ac""#).expect("parses");
    assert_eq!(parsed, "\"\\/\u{8}\u{c}\n\r\t\u{0}\u{1f}é€");
    for bad in [r#""\x""#, r#""\u12""#, r#""\ud800""#, r#""open"#] {
        assert!(serde_json::from_str::<String>(bad).is_err(), "{bad} parsed");
    }
}

/// Parsing is linear in the string length: one 4 MiB string takes
/// well under a second even unoptimized (a scan that re-validates the
/// rest of the document per character would take hours).
#[test]
fn a_four_mib_string_parses_in_linear_time() {
    let chunk = r#"lorem ipsum dolor sit amet é € 𝄞 \" \\ \n "#;
    let decoded = "lorem ipsum dolor sit amet é € 𝄞 \" \\ \n ";
    let copies = (4 << 20) / chunk.len();
    let document = format!("\"{}\"", chunk.repeat(copies));
    let start = Instant::now();
    let parsed: String = serde_json::from_str(&document).expect("parses");
    let elapsed = start.elapsed();
    assert!(parsed == decoded.repeat(copies), "decoded wrongly");
    assert!(
        elapsed < Duration::from_secs(1),
        "a {} byte string took {elapsed:?} to parse",
        document.len()
    );
}

#[test]
fn nesting_past_the_depth_limit_is_an_error_not_a_stack_overflow() {
    let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(serde_json::from_str::<Value>(&"[".repeat(100_000)).is_err());
    assert!(serde_json::from_str::<Value>(&nested(100_000)).is_err());
    assert!(serde_json::from_str::<Value>(&"{\"k\":".repeat(100_000)).is_err());
    let hundred: Value = serde_json::from_str(&nested(100)).expect("100 levels parse");
    let mut depth = 0;
    let mut v = &hundred;
    while let Value::Seq(items) = v {
        depth += 1;
        match items.first() {
            Some(inner) => v = inner,
            None => break,
        }
    }
    assert_eq!(depth, 100);
}
