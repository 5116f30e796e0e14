//! Wire-codec fuzzing and TCP gateway fault injection.
//!
//! Part 1 — the `serve::proto` codec: encode→decode identity for arbitrary
//! frames under arbitrary byte-boundary splits, and typed (never
//! panicking) rejection of truncated, oversized and garbage inputs. The
//! property blocks below run 1100 generated cases in total.
//!
//! Part 2 — the loopback `TcpGateway`: streamed results bit-match the
//! offline path; a dropped socket mid-stream parks the session and frees
//! the slot; an idle-timeout eviction surfaces as a typed error frame and
//! the resumed connection continues the stream seamlessly; protocol
//! garbage kills one connection with an explicit error frame, not the
//! server.

use bioformers::serve::proto::{
    encode_frame, ErrorCode, Frame, FrameDecoder, ProtoError, MAX_FRAME,
};
use bioformers::serve::{
    AsyncEngineConfig, DecisionPolicy, Engine, GatewayClient, GatewayError, GestureClassifier,
    GestureEvent, ShardedEngine, StreamConfig, StreamServer, StreamServerConfig, StreamSession,
    StreamSummary, TcpGateway,
};
use bioformers::tensor::Tensor;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Part 1 — codec fuzzing
// ---------------------------------------------------------------------------

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A finite f32 derived from random bits (NaN would break `PartialEq`
/// round-trip comparison; the codec itself is bit-transparent).
fn rand_f32(state: &mut u64) -> f32 {
    ((xorshift(state) >> 40) as f32 / (1u64 << 24) as f32) * 2.0e6 - 1.0e6
}

fn rand_string(state: &mut u64, max_len: usize) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', '-', '_', ' ', 'é', '名', '🖐', '\n', '"', '\\',
    ];
    let len = (xorshift(state) as usize) % (max_len + 1);
    (0..len)
        .map(|_| ALPHABET[(xorshift(state) as usize) % ALPHABET.len()])
        .collect()
}

/// Draws one arbitrary well-formed frame.
fn rand_frame(state: &mut u64) -> Frame {
    match xorshift(state) % 9 {
        0 => Frame::Hello {
            tenant: rand_string(state, 24),
            resume: xorshift(state).is_multiple_of(2).then(|| xorshift(state)),
            model: xorshift(state)
                .is_multiple_of(2)
                .then(|| rand_string(state, 16)),
        },
        1 => {
            let n = (xorshift(state) as usize) % 300;
            Frame::Samples((0..n).map(|_| rand_f32(state)).collect())
        }
        2 => Frame::Finish,
        3 => Frame::Bye,
        4 => Frame::HelloAck {
            token: xorshift(state),
            channels: xorshift(state) as u16,
            window: xorshift(state) as u32,
            slide: xorshift(state) as u32,
        },
        5 => Frame::Event(GestureEvent::Started {
            class: (xorshift(state) as usize) % 1000,
            window: xorshift(state) as usize,
            confidence: rand_f32(state),
        }),
        6 => Frame::Event(GestureEvent::Ended {
            class: (xorshift(state) as usize) % 1000,
            window: xorshift(state) as usize,
            held: xorshift(state) as usize,
        }),
        7 => {
            let n = (xorshift(state) as usize) % 40;
            Frame::Summary {
                windows: xorshift(state),
                predictions: (0..n).map(|_| (xorshift(state), rand_f32(state))).collect(),
            }
        }
        _ => Frame::Error {
            code: ErrorCode::from_u8((xorshift(state) % 7 + 1) as u8).unwrap(),
            message: rand_string(state, 60),
        },
    }
}

/// Splits `wire` into pieces at arbitrary boundaries and feeds them one by
/// one, collecting every decoded frame.
fn decode_split(wire: &[u8], state: &mut u64) -> Result<Vec<Frame>, ProtoError> {
    let mut dec = FrameDecoder::new();
    let mut got = Vec::new();
    let mut at = 0usize;
    while at < wire.len() {
        let step = 1 + (xorshift(state) as usize) % 97;
        let end = (at + step).min(wire.len());
        dec.feed(&wire[at..end]);
        at = end;
        while let Some(frame) = dec.next_frame()? {
            got.push(frame);
        }
    }
    dec.check_eof()?;
    Ok(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Any sequence of arbitrary frames encodes and decodes to identity,
    /// no matter where the byte stream is split.
    #[test]
    fn codec_roundtrips_under_arbitrary_splits(seed in 1u64..u64::MAX) {
        let mut state = seed;
        let count = 1 + (xorshift(&mut state) as usize) % 8;
        let frames: Vec<Frame> = (0..count).map(|_| rand_frame(&mut state)).collect();
        let mut wire = Vec::new();
        for frame in &frames {
            encode_frame(frame, &mut wire).expect("arbitrary frames are encodable");
        }
        let decoded = decode_split(&wire, &mut state).expect("valid wire must decode");
        prop_assert_eq!(decoded, frames);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Truncating a valid stream at any byte yields the decodable prefix
    /// frames, then a typed `TruncatedStream` at EOF (or a clean EOF when
    /// the cut lands exactly on a frame boundary). Never a panic.
    #[test]
    fn truncated_streams_are_typed_errors(seed in 1u64..u64::MAX) {
        let mut state = seed;
        let count = 1 + (xorshift(&mut state) as usize) % 5;
        let mut wire = Vec::new();
        let mut boundaries = vec![0usize];
        for _ in 0..count {
            encode_frame(&rand_frame(&mut state), &mut wire).expect("encodable");
            boundaries.push(wire.len());
        }
        let cut = 1 + (xorshift(&mut state) as usize) % wire.len();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..cut]);
        let mut decoded = 0usize;
        while let Some(_frame) = dec.next_frame().expect("prefix of valid wire") {
            decoded += 1;
        }
        // Exactly the frames fully contained in the cut prefix decode.
        let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        prop_assert_eq!(decoded, whole);
        match dec.check_eof() {
            Ok(()) => prop_assert!(boundaries.contains(&cut), "clean EOF off a frame boundary"),
            Err(ProtoError::TruncatedStream { have }) => {
                prop_assert!(have > 0 && !boundaries.contains(&cut));
            }
            Err(other) => prop_assert!(false, "unexpected EOF error {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Hostile input never panics the decoder: pure garbage, bit-flipped
    /// valid streams, and length-field lies (oversized/undersized) all
    /// surface as `Ok(None)` (starved) or a typed error that stays sticky.
    #[test]
    fn garbage_never_panics_the_decoder(seed in 1u64..u64::MAX) {
        let mut state = seed;
        let wire: Vec<u8> = match xorshift(&mut state) % 3 {
            // Pure random bytes.
            0 => {
                let n = (xorshift(&mut state) as usize) % 600;
                (0..n).map(|_| xorshift(&mut state) as u8).collect()
            }
            // A valid stream with one corrupted byte.
            1 => {
                let mut wire = Vec::new();
                for _ in 0..1 + (xorshift(&mut state) as usize) % 4 {
                    encode_frame(&rand_frame(&mut state), &mut wire).expect("encodable");
                }
                let at = (xorshift(&mut state) as usize) % wire.len();
                wire[at] ^= (1 + xorshift(&mut state) % 255) as u8;
                wire
            }
            // Correct magic, hostile length field.
            _ => {
                let mut wire = vec![0xB1, 0x05];
                let len = match xorshift(&mut state) % 3 {
                    0 => xorshift(&mut state) as u32,           // arbitrary
                    1 => (MAX_FRAME as u32) + 1 + (xorshift(&mut state) as u32 % 1000),
                    _ => xorshift(&mut state) as u32 % 2,       // undersized
                };
                wire.extend_from_slice(&len.to_le_bytes());
                let tail = (xorshift(&mut state) as usize) % 64;
                wire.extend((0..tail).map(|_| xorshift(&mut state) as u8));
                wire
            }
        };
        let mut dec = FrameDecoder::new();
        let mut at = 0usize;
        let mut first_err: Option<ProtoError> = None;
        while at < wire.len() {
            let step = 1 + (xorshift(&mut state) as usize) % 33;
            let end = (at + step).min(wire.len());
            dec.feed(&wire[at..end]);
            at = end;
            loop {
                match dec.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        // Errors are sticky: the decoder repeats its verdict
                        // rather than resynchronizing on corrupt input.
                        match &first_err {
                            None => first_err = Some(e),
                            Some(prev) => prop_assert_eq!(prev, &e),
                        }
                        break;
                    }
                }
            }
        }
        // Reaching here without a panic IS the property; `first_err`, when
        // set, proved sticky above.
    }
}

/// Every `ErrorCode` round-trips through its wire byte.
#[test]
fn error_codes_roundtrip() {
    for code in [
        ErrorCode::BadRequest,
        ErrorCode::PoolFull,
        ErrorCode::UnknownToken,
        ErrorCode::Evicted,
        ErrorCode::Protocol,
        ErrorCode::Internal,
        ErrorCode::ShuttingDown,
    ] {
        assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
    }
    assert_eq!(ErrorCode::from_u8(0), None);
    assert_eq!(ErrorCode::from_u8(200), None);
}

// ---------------------------------------------------------------------------
// Part 2 — TCP loopback fault injection
// ---------------------------------------------------------------------------

const CHANNELS: usize = 2;
const WINDOW: usize = 8;
const CHUNK: usize = CHANNELS * WINDOW;

/// Same fast deterministic backend as `tests/serving_server.rs`.
struct MockBackend;

impl GestureClassifier for MockBackend {
    fn predict_batch(&self, windows: &Tensor) -> Tensor {
        let n = windows.dims()[0];
        let len = CHANNELS * WINDOW;
        Tensor::from_fn(&[n, 4], |i| {
            let (row, class) = (i / 4, i % 4);
            let x = &windows.data()[row * len..(row + 1) * len];
            let mut score = 0.0f32;
            for (j, &v) in x.iter().enumerate() {
                score += v * (((j * (class + 2)) % 11) as f32 / 11.0 - 0.5);
            }
            score
        })
    }

    fn num_classes(&self) -> usize {
        4
    }

    fn name(&self) -> &str {
        "mock"
    }

    fn input_shape(&self) -> Option<(usize, usize)> {
        Some((CHANNELS, WINDOW))
    }
}

fn signal(windows: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..windows * CHUNK).map(|_| rand_f32(&mut state)).collect()
}

fn stream_cfg() -> StreamConfig {
    StreamConfig::new(CHANNELS, WINDOW)
        .with_lookahead(0)
        .with_policy(DecisionPolicy {
            vote_depth: 3,
            min_hold: 1,
            confidence_floor: 0.0,
        })
}

/// An inline replica over the mock backend.
fn mock_engine() -> Arc<dyn Engine> {
    Arc::new(
        ShardedEngine::builder()
            .with_replica_config(AsyncEngineConfig::default().with_workers(0))
            .add_replica(Box::new(MockBackend))
            .build(),
    )
}

fn gateway(cfg: StreamServerConfig) -> (Arc<StreamServer>, TcpGateway) {
    let engine = mock_engine();
    let server = Arc::new(StreamServer::start(engine, cfg).expect("server"));
    let gw = TcpGateway::bind(Arc::clone(&server), "127.0.0.1:0").expect("bind loopback");
    (server, gw)
}

/// The uninterrupted in-process reference for `stream`.
fn reference(stream: &[f32]) -> StreamSummary {
    let mut session = StreamSession::new(mock_engine(), stream_cfg()).expect("reference session");
    let mut events = Vec::new();
    for chunk in stream.chunks(CHUNK) {
        events.extend(session.push_samples(chunk).expect("reference push"));
    }
    let mut summary = session.finish().expect("reference finish");
    events.extend(std::mem::take(&mut summary.events));
    summary.events = events;
    summary
}

fn assert_matches_reference(
    windows: u64,
    predictions: &[(u64, f32)],
    events: &[GestureEvent],
    expect: &StreamSummary,
) {
    assert_eq!(windows as usize, expect.windows);
    let classes: Vec<u64> = predictions.iter().map(|&(c, _)| c).collect();
    let confs: Vec<f32> = predictions.iter().map(|&(_, p)| p).collect();
    let expect_classes: Vec<u64> = expect.predictions.iter().map(|&c| c as u64).collect();
    assert_eq!(classes, expect_classes, "per-window predictions");
    assert_eq!(
        confs, expect.confidences,
        "per-window confidences bit-match"
    );
    assert_eq!(events, expect.events, "gesture event timeline");
}

/// Retries `f` until it succeeds or the deadline passes (the server parks
/// disconnected sessions asynchronously).
fn retry<T>(mut f: impl FnMut() -> Result<T, GatewayError>, what: &str) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match f() {
            Ok(v) => return v,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "timed out on {what}; last error: {e}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Streaming over TCP loopback produces bit-identical results to the
/// in-process offline path.
#[test]
fn tcp_roundtrip_bit_matches_offline() {
    let (_server, gw) = gateway(StreamServerConfig::new(stream_cfg()));
    let stream = signal(25, 77);
    let mut client = GatewayClient::connect(gw.local_addr(), "wearable-1").expect("connect");
    assert_eq!(client.channels(), CHANNELS);
    assert_eq!(client.window(), WINDOW);
    for chunk in stream.chunks(3 * CHUNK + 5) {
        client.send_samples(chunk).expect("send");
    }
    let summary = client.finish().expect("finish");
    assert_matches_reference(
        summary.windows,
        &summary.predictions,
        &summary.events,
        &reference(&stream),
    );
    assert_eq!(summary.stats.samples, stream.len() as u64);
}

/// Dropping the socket mid-stream parks the session server-side, frees
/// the only slot, and a resumed connection completes the stream with the
/// exact uninterrupted timeline.
#[test]
fn tcp_socket_drop_frees_slot_and_resume_completes_the_stream() {
    let (server, gw) = gateway(StreamServerConfig::new(stream_cfg()).with_max_sessions(1));
    let stream = signal(16, 555);
    let cut = 7 * CHUNK + 3;

    let mut client = GatewayClient::connect(gw.local_addr(), "patient").expect("connect");
    let token = client.token();
    let mut events: Vec<GestureEvent> = Vec::new();
    for chunk in stream[..cut].chunks(CHUNK) {
        events.extend(client.send_samples(chunk).expect("send"));
    }
    // Let the pump settle and drain stragglers, so no event is sitting in
    // the kernel socket buffer (where it would die with the connection —
    // events lost in flight to a crashed peer need an ack protocol, which
    // the wire format does not promise).
    std::thread::sleep(Duration::from_millis(200));
    events.extend(client.send_samples(&[]).expect("drain"));
    // Kill the connection without Bye/Finish — a crashed client.
    drop(client);

    // The slot frees once the gateway notices the EOF and parks the
    // session; until then the pool is full and resume is pending.
    let mut resumed = retry(
        || GatewayClient::resume(gw.local_addr(), "patient", token),
        "resume after socket drop",
    );
    assert_ne!(resumed.token(), token, "resume mints a fresh token");
    for chunk in stream[cut..].chunks(CHUNK) {
        resumed.send_samples(chunk).expect("resumed send");
    }
    let summary = resumed.finish().expect("resumed finish");
    // `events` holds what the dead connection delivered; the resumed
    // summary holds everything the second connection saw — any event
    // undelivered at the seam travels with the checkpoint and is
    // delivered exactly once.
    let mut all_events = events;
    all_events.extend(summary.events.clone());
    assert_matches_reference(
        summary.windows,
        &summary.predictions,
        &all_events,
        &reference(&stream),
    );
    assert_eq!(server.stats().totals.disconnects, 1);
    assert_eq!(server.stats().totals.reconnects, 1);
}

/// An idle connection is evicted by the server's timeout: the client gets
/// a typed `Evicted` error frame, and resuming with the token continues
/// the stream without losing or duplicating a single event.
#[test]
fn tcp_idle_eviction_surfaces_as_typed_error_and_resume_continues() {
    let (server, gw) = gateway(
        StreamServerConfig::new(stream_cfg()).with_idle_timeout(Some(Duration::from_millis(40))),
    );
    let stream = signal(18, 4242);
    let cut = 8 * CHUNK + 6;

    let mut client = GatewayClient::connect(gw.local_addr(), "idle-wearable").expect("connect");
    let token = client.token();
    for chunk in stream[..cut].chunks(CHUNK) {
        client.send_samples(chunk).expect("send");
    }

    // Go silent until the eviction fires and reaches us as an error frame.
    // Each probe sleeps past the idle timeout first (a probe itself counts
    // as activity), and drains whatever the server pushed — so straggler
    // events land in the client's log before the eviction error does.
    // The connection may already be torn down by the time we probe: the
    // I/O error surface proves the eviction just as well.
    let deadline = Instant::now() + Duration::from_secs(10);
    let events: Vec<GestureEvent> = loop {
        std::thread::sleep(Duration::from_millis(60));
        match client.send_samples(&[]) {
            Ok(_) => assert!(Instant::now() < deadline, "eviction never fired"),
            Err(GatewayError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::Evicted, "typed eviction error frame");
                break client.events().to_vec();
            }
            Err(GatewayError::Io(_)) => break client.events().to_vec(),
            Err(other) => panic!("unexpected error while idle: {other}"),
        }
    };
    assert!(server.stats().totals.evictions >= 1);

    let mut resumed = retry(
        || GatewayClient::resume(gw.local_addr(), "idle-wearable", token),
        "resume after eviction",
    );
    for chunk in stream[cut..].chunks(CHUNK) {
        resumed.send_samples(chunk).expect("resumed send");
    }
    let summary = resumed.finish().expect("resumed finish");
    let mut all_events = events;
    all_events.extend(summary.events.clone());
    assert_matches_reference(
        summary.windows,
        &summary.predictions,
        &all_events,
        &reference(&stream),
    );
}

/// Protocol garbage gets an explicit error frame and a closed connection —
/// and the server keeps serving everyone else.
#[test]
fn tcp_garbage_gets_error_frame_and_server_survives() {
    let (_server, gw) = gateway(StreamServerConfig::new(stream_cfg()));

    // A peer speaking HTTP at the gateway.
    let mut raw = std::net::TcpStream::connect(gw.local_addr()).expect("raw connect");
    raw.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write garbage");
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 1024];
    let frame = loop {
        match raw.read(&mut buf) {
            Ok(0) => panic!("connection closed without an error frame"),
            Ok(n) => {
                dec.feed(&buf[..n]);
                if let Some(frame) = dec.next_frame().expect("server speaks valid protocol") {
                    break frame;
                }
            }
            Err(e) => panic!("read failed before error frame: {e}"),
        }
    };
    match frame {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected a Protocol error frame, got {other:?}"),
    }
    // The server closed the connection after the error frame.
    let n = raw.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "connection stays closed after a protocol error");
    drop(raw);

    // A lying resume token gets its own typed rejection.
    let err = GatewayClient::resume(gw.local_addr(), "nobody", 0xDEAD_BEEF).unwrap_err();
    match err {
        GatewayError::Server { code, .. } => assert_eq!(code, ErrorCode::UnknownToken),
        other => panic!("expected UnknownToken, got {other}"),
    }

    // And an honest client is entirely unaffected.
    let stream = signal(6, 99);
    let mut client = GatewayClient::connect(gw.local_addr(), "honest").expect("connect");
    for chunk in stream.chunks(CHUNK) {
        client.send_samples(chunk).expect("send");
    }
    let summary = client.finish().expect("finish");
    assert_matches_reference(
        summary.windows,
        &summary.predictions,
        &summary.events,
        &reference(&stream),
    );
}

/// `Bye` detaches with state kept server-side: a second connection resumes
/// and the combined timeline equals the uninterrupted run.
#[test]
fn tcp_bye_then_resume_round_trips() {
    let (_server, gw) = gateway(StreamServerConfig::new(stream_cfg()));
    let stream = signal(14, 31337);
    let cut = 6 * CHUNK;

    let mut client = GatewayClient::connect(gw.local_addr(), "commuter").expect("connect");
    for chunk in stream[..cut].chunks(CHUNK) {
        client.send_samples(chunk).expect("send");
    }
    // Settle and drain before detaching, so nothing is in flight on the
    // socket when it closes.
    std::thread::sleep(Duration::from_millis(200));
    client.send_samples(&[]).expect("drain");
    // `bye` returns every event this connection delivered.
    let (token, events) = client.bye().expect("bye");

    let mut resumed = retry(
        || GatewayClient::resume(gw.local_addr(), "commuter", token),
        "resume after bye",
    );
    for chunk in stream[cut..].chunks(CHUNK) {
        resumed.send_samples(chunk).expect("resumed send");
    }
    let summary = resumed.finish().expect("finish");
    let mut all_events = events;
    all_events.extend(summary.events.clone());
    assert_matches_reference(
        summary.windows,
        &summary.predictions,
        &all_events,
        &reference(&stream),
    );
}
