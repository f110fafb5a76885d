//! Deterministic protocol-level chaos: a seeded fault injector for the
//! daemon's *wire* layer, mirroring the class × rate design of
//! `telemetry::faults` one level down the stack.
//!
//! `telemetry::faults` corrupts event *streams* before ingestion; this
//! module corrupts HTTP *exchanges* against a live daemon — partial
//! writes, mid-body disconnects, truncated and oversized frames,
//! garbage framing, stalled reads, malformed JSON. Same discipline:
//!
//! * every fault class has an independent rate in `[0, 1]`;
//! * every decision derives from (seed, request ordinal, class salt)
//!   via splitmix64, so a run is exactly replayable from its seed and
//!   two sweeps with the same plan fault the same requests the same
//!   way;
//! * every class maps to one *expected* server reaction ([`expected`]),
//!   so a harness can assert the daemon refuses each defect with its
//!   typed status instead of panicking, hanging, or misframing.
//!
//! The [`drive`] function is the socket driver: it opens a fresh
//! connection, perpetrates (at most) one fault chosen by the plan, and
//! reports what came back. [`crate::verify::sweep`], which the
//! `servecheck` binary and the resilience e2e tests run, is built on it.

use forest::parallel::{derive_seed, splitmix64};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One class of protocol fault the injector can perpetrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosClass {
    /// Drip the request out in small, slow chunks. A correct server
    /// tolerates this within its stall budget: expected answer 200.
    SlowLoris,
    /// Close the connection after writing half the body. The server
    /// sees a truncated frame and must not block or panic; the client
    /// never reads a response.
    ResetMidBody,
    /// Declare a full `Content-Length` but send only half the body,
    /// then half-close. Expected answer: 400 (truncated body).
    TruncatedFrame,
    /// Declare a `Content-Length` beyond the server's body limit.
    /// Expected answer: 413, refused before allocation.
    OversizedFrame,
    /// Send printable garbage instead of an HTTP request line.
    /// Expected answer: 400 (bad request line).
    GarbageFrame,
    /// Start the body, then stall silently past the server's
    /// read-stall budget. Expected answer: 408.
    StalledRead,
    /// Frame a valid HTTP request around a body that is not valid
    /// JSON. Expected answer: 400 from request parsing.
    MalformedJson,
}

impl ChaosClass {
    /// Every class, in decision-priority order: when several classes
    /// fire for one ordinal, the first in this list wins.
    pub const ALL: [ChaosClass; 7] = [
        ChaosClass::SlowLoris,
        ChaosClass::ResetMidBody,
        ChaosClass::TruncatedFrame,
        ChaosClass::OversizedFrame,
        ChaosClass::GarbageFrame,
        ChaosClass::StalledRead,
        ChaosClass::MalformedJson,
    ];

    /// Kebab-case name, stable across versions (artifact key).
    pub fn name(self) -> &'static str {
        match self {
            ChaosClass::SlowLoris => "slow-loris",
            ChaosClass::ResetMidBody => "reset-mid-body",
            ChaosClass::TruncatedFrame => "truncated-frame",
            ChaosClass::OversizedFrame => "oversized-frame",
            ChaosClass::GarbageFrame => "garbage-frame",
            ChaosClass::StalledRead => "stalled-read",
            ChaosClass::MalformedJson => "malformed-json",
        }
    }
}

impl std::fmt::Display for ChaosClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-class fault rates plus the seed all decisions derive from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Rate of [`ChaosClass::SlowLoris`].
    pub slow_loris: f64,
    /// Rate of [`ChaosClass::ResetMidBody`].
    pub reset_mid_body: f64,
    /// Rate of [`ChaosClass::TruncatedFrame`].
    pub truncated_frame: f64,
    /// Rate of [`ChaosClass::OversizedFrame`].
    pub oversized_frame: f64,
    /// Rate of [`ChaosClass::GarbageFrame`].
    pub garbage_frame: f64,
    /// Rate of [`ChaosClass::StalledRead`].
    pub stalled_read: f64,
    /// Rate of [`ChaosClass::MalformedJson`].
    pub malformed_json: f64,
}

impl ChaosPlan {
    /// The all-zero plan: no faults, every request sent cleanly.
    pub fn none(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            slow_loris: 0.0,
            reset_mid_body: 0.0,
            truncated_frame: 0.0,
            oversized_frame: 0.0,
            garbage_frame: 0.0,
            stalled_read: 0.0,
            malformed_json: 0.0,
        }
    }

    /// A plan injecting exactly one class at `rate`.
    pub fn single(class: ChaosClass, rate: f64, seed: u64) -> ChaosPlan {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of [0, 1]");
        let mut plan = ChaosPlan::none(seed);
        *plan.rate_mut(class) = rate;
        plan
    }

    fn rate_mut(&mut self, class: ChaosClass) -> &mut f64 {
        match class {
            ChaosClass::SlowLoris => &mut self.slow_loris,
            ChaosClass::ResetMidBody => &mut self.reset_mid_body,
            ChaosClass::TruncatedFrame => &mut self.truncated_frame,
            ChaosClass::OversizedFrame => &mut self.oversized_frame,
            ChaosClass::GarbageFrame => &mut self.garbage_frame,
            ChaosClass::StalledRead => &mut self.stalled_read,
            ChaosClass::MalformedJson => &mut self.malformed_json,
        }
    }

    /// The rate configured for `class`.
    pub fn rate(&self, class: ChaosClass) -> f64 {
        match class {
            ChaosClass::SlowLoris => self.slow_loris,
            ChaosClass::ResetMidBody => self.reset_mid_body,
            ChaosClass::TruncatedFrame => self.truncated_frame,
            ChaosClass::OversizedFrame => self.oversized_frame,
            ChaosClass::GarbageFrame => self.garbage_frame,
            ChaosClass::StalledRead => self.stalled_read,
            ChaosClass::MalformedJson => self.malformed_json,
        }
    }

    /// Panics if any rate is outside `[0, 1]`.
    pub fn validate(&self) {
        for class in ChaosClass::ALL {
            let rate = self.rate(class);
            assert!(
                (0.0..=1.0).contains(&rate),
                "{} rate {rate} out of [0, 1]",
                class.name()
            );
        }
    }

    /// The fault (if any) this plan injects into request `ordinal`.
    /// Independent per-class draws; the first firing class in
    /// [`ChaosClass::ALL`] order wins, so a multi-class plan stays
    /// deterministic.
    pub fn action(&self, ordinal: u64) -> Option<ChaosClass> {
        ChaosClass::ALL
            .into_iter()
            .find(|&class| unit(self.seed, ordinal, salt(class)) < self.rate(class))
    }
}

// Per-class decision salts: distinct streams per class so rates stay
// independent (same convention as `telemetry::faults`).
const SALT_SLOW_LORIS: u64 = 0x510F;
const SALT_RESET: u64 = 0x4357;
const SALT_TRUNCATE: u64 = 0x7406;
const SALT_OVERSIZE: u64 = 0x0516;
const SALT_GARBAGE: u64 = 0x6AB1;
const SALT_STALL: u64 = 0x57A1;
const SALT_JSON: u64 = 0x50DA;
// Mechanics salts (split points, chunk counts, garbage bytes).
const SALT_SPLIT: u64 = 0x5217;
const SALT_CHUNKS: u64 = 0xC409;
const SALT_BYTES: u64 = 0x6B17;

fn salt(class: ChaosClass) -> u64 {
    match class {
        ChaosClass::SlowLoris => SALT_SLOW_LORIS,
        ChaosClass::ResetMidBody => SALT_RESET,
        ChaosClass::TruncatedFrame => SALT_TRUNCATE,
        ChaosClass::OversizedFrame => SALT_OVERSIZE,
        ChaosClass::GarbageFrame => SALT_GARBAGE,
        ChaosClass::StalledRead => SALT_STALL,
        ChaosClass::MalformedJson => SALT_JSON,
    }
}

/// A uniform draw in `[0, 1)` keyed by (seed, ordinal, salt).
fn unit(seed: u64, ordinal: u64, salt: u64) -> f64 {
    (derive_seed(seed ^ salt, ordinal) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A uniform pick in `[0, n)` keyed the same way.
fn pick(seed: u64, ordinal: u64, salt: u64, n: u64) -> u64 {
    derive_seed(seed ^ salt, ordinal) % n.max(1)
}

/// Deterministic printable garbage: bytes in `!..=~` excluding space,
/// so the stream parses as a one-token request line (a typed 400),
/// never as whitespace-split valid framing.
pub fn garbage_bytes(seed: u64, ordinal: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let h = splitmix64(splitmix64(seed ^ SALT_BYTES).wrapping_add(ordinal) ^ (i as u64));
            b'!' + (h % 94) as u8 // 0x21..=0x7E
        })
        .collect()
}

/// What came back from one (possibly faulted) exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A complete HTTP response.
    Response {
        /// Status code.
        status: u16,
        /// Response body (UTF-8).
        body: String,
    },
    /// The fault made a response impossible by design (the client
    /// closed first); not an error.
    NoResponse,
    /// The transport failed where a response was expected — a harness
    /// failure, never part of the contract.
    Transport(String),
}

/// The server reaction each class contracts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A complete response with exactly this status.
    Status(u16),
    /// No response readable by design.
    NoResponse,
}

/// The expected outcome of a clean exchange or each fault class.
/// `None` (a clean request) expects 200 — or 429/503 under load, which
/// the driver does not inject and accounting handles separately.
pub fn expected(class: Option<ChaosClass>) -> Expect {
    match class {
        None | Some(ChaosClass::SlowLoris) => Expect::Status(200),
        Some(ChaosClass::ResetMidBody) => Expect::NoResponse,
        Some(ChaosClass::TruncatedFrame) => Expect::Status(400),
        Some(ChaosClass::OversizedFrame) => Expect::Status(413),
        Some(ChaosClass::GarbageFrame) => Expect::Status(400),
        Some(ChaosClass::StalledRead) => Expect::Status(408),
        Some(ChaosClass::MalformedJson) => Expect::Status(400),
    }
}

/// Drives one exchange against `addr`: picks the plan's fault for
/// `ordinal` (if any), perpetrates it on a fresh connection, and
/// returns the outcome. `body` is the clean request body a non-faulted
/// exchange would POST to `/score`; `oversize_len` is the
/// `Content-Length` an [`ChaosClass::OversizedFrame`] declares (set it
/// above the server's body limit). `read_timeout_ms` bounds how long
/// the driver waits for each read — generous enough to cover the
/// server's stall budget when stalled reads are in the plan.
pub fn drive(
    addr: SocketAddr,
    plan: &ChaosPlan,
    ordinal: u64,
    body: &str,
    oversize_len: usize,
    read_timeout_ms: u64,
) -> Outcome {
    match try_drive(addr, plan, ordinal, body, oversize_len, read_timeout_ms) {
        Ok(outcome) => outcome,
        Err(e) => Outcome::Transport(e.to_string()),
    }
}

fn head_for(body_len: usize) -> String {
    format!(
        "POST /score HTTP/1.1\r\nhost: chaos\r\ncontent-length: {body_len}\r\nconnection: close\r\n\r\n"
    )
}

fn try_drive(
    addr: SocketAddr,
    plan: &ChaosPlan,
    ordinal: u64,
    body: &str,
    oversize_len: usize,
    read_timeout_ms: u64,
) -> io::Result<Outcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(read_timeout_ms.max(1))))?;
    let seed = plan.seed;
    match plan.action(ordinal) {
        None => {
            stream.write_all(head_for(body.len()).as_bytes())?;
            stream.write_all(body.as_bytes())?;
            stream.flush()?;
            read_response(&mut stream, read_timeout_ms)
        }
        Some(ChaosClass::SlowLoris) => {
            // Drip the whole exchange out in 2..=8 chunks with short
            // pauses; a correct server waits (within its stall budget)
            // and answers normally.
            let wire = format!("{}{}", head_for(body.len()), body).into_bytes();
            let chunks = 2 + pick(seed, ordinal, SALT_CHUNKS, 7) as usize;
            let step = wire.len().div_ceil(chunks);
            for chunk in wire.chunks(step.max(1)) {
                stream.write_all(chunk)?;
                stream.flush()?;
                std::thread::sleep(Duration::from_millis(1));
            }
            read_response(&mut stream, read_timeout_ms)
        }
        Some(ChaosClass::ResetMidBody) => {
            // Half the body, then a unilateral close. The server must
            // unwind with a typed refusal on its side; the client
            // reads nothing by design.
            let keep = split_point(seed, ordinal, body.len());
            stream.write_all(head_for(body.len()).as_bytes())?;
            stream.write_all(&body.as_bytes()[..keep])?;
            stream.flush()?;
            drop(stream);
            Ok(Outcome::NoResponse)
        }
        Some(ChaosClass::TruncatedFrame) => {
            // Declare everything, deliver half, half-close so the
            // server sees EOF mid-body — then read its 400.
            let keep = split_point(seed, ordinal, body.len());
            stream.write_all(head_for(body.len()).as_bytes())?;
            stream.write_all(&body.as_bytes()[..keep])?;
            stream.flush()?;
            stream.shutdown(Shutdown::Write)?;
            read_response(&mut stream, read_timeout_ms)
        }
        Some(ChaosClass::OversizedFrame) => {
            // A frame the server must refuse before allocating.
            stream.write_all(head_for(oversize_len).as_bytes())?;
            stream.flush()?;
            read_response(&mut stream, read_timeout_ms)
        }
        Some(ChaosClass::GarbageFrame) => {
            let garbage = garbage_bytes(seed, ordinal, 64);
            stream.write_all(&garbage)?;
            stream.write_all(b"\r\n\r\n")?;
            stream.flush()?;
            read_response(&mut stream, read_timeout_ms)
        }
        Some(ChaosClass::StalledRead) => {
            // Start the body, then go silent. The server's stall
            // budget fires a 408; the driver just waits for it.
            let keep = split_point(seed, ordinal, body.len());
            stream.write_all(head_for(body.len()).as_bytes())?;
            stream.write_all(&body.as_bytes()[..keep])?;
            stream.flush()?;
            read_response(&mut stream, read_timeout_ms)
        }
        Some(ChaosClass::MalformedJson) => {
            let bad = "{\"rows\": nonsense}";
            stream.write_all(head_for(bad.len()).as_bytes())?;
            stream.write_all(bad.as_bytes())?;
            stream.flush()?;
            read_response(&mut stream, read_timeout_ms)
        }
    }
}

/// A deterministic cut strictly inside `len` (at least 1 byte kept,
/// at least 1 byte withheld). Bodies of < 2 bytes cut at 1.
fn split_point(seed: u64, ordinal: u64, len: usize) -> usize {
    if len < 2 {
        return len.min(1);
    }
    1 + pick(seed, ordinal, SALT_SPLIT, (len - 1) as u64) as usize
}

/// Reads one `Content-Length`-framed HTTP response, retrying through
/// socket read timeouts until `deadline_ms` has elapsed in total.
fn read_response(stream: &mut TcpStream, deadline_ms: u64) -> io::Result<Outcome> {
    let started = Instant::now();
    let deadline = Duration::from_millis(deadline_ms.max(1));
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    // Accumulate until the header terminator, then until the body is
    // complete. Peer close before a full status line is a transport
    // error (the contract promises a readable response here).
    loop {
        let head_end = find_head_end(&raw);
        if let Some(end) = head_end {
            let (status, content_length) = parse_head(&raw[..end])?;
            let body_start = end + 4;
            if raw.len() >= body_start + content_length {
                let body = String::from_utf8_lossy(&raw[body_start..body_start + content_length])
                    .into_owned();
                return Ok(Outcome::Response { status, body });
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed before a complete response",
                ))
            }
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if started.elapsed() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no complete response within the read deadline",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn find_head_end(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let text = std::str::from_utf8(head)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad response content-length")
                })?;
            }
        }
    }
    Ok((status, content_length))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_never_faults() {
        let plan = ChaosPlan::none(7);
        plan.validate();
        assert!((0..2000).all(|i| plan.action(i).is_none()));
    }

    #[test]
    fn full_rate_single_class_always_fires() {
        for class in ChaosClass::ALL {
            let plan = ChaosPlan::single(class, 1.0, 11);
            assert!((0..200).all(|i| plan.action(i) == Some(class)), "{class}");
        }
    }

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let plan = ChaosPlan {
            slow_loris: 0.2,
            truncated_frame: 0.2,
            malformed_json: 0.2,
            ..ChaosPlan::none(42)
        };
        let a: Vec<_> = (0..500).map(|i| plan.action(i)).collect();
        let b: Vec<_> = (0..500).map(|i| plan.action(i)).collect();
        assert_eq!(a, b);
        // A different seed decides differently somewhere.
        let other = ChaosPlan { seed: 43, ..plan };
        let c: Vec<_> = (0..500).map(|i| other.action(i)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn rates_approximate_frequencies() {
        let plan = ChaosPlan::single(ChaosClass::GarbageFrame, 0.3, 5);
        let hits = (0..10_000).filter(|&i| plan.action(i).is_some()).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "observed {rate}");
    }

    #[test]
    fn class_priority_follows_all_order() {
        // Both classes at rate 1.0: the earlier one in ALL wins.
        let mut plan = ChaosPlan::none(1);
        plan.slow_loris = 1.0;
        plan.malformed_json = 1.0;
        assert_eq!(plan.action(0), Some(ChaosClass::SlowLoris));
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn validate_rejects_bad_rate() {
        let mut plan = ChaosPlan::none(1);
        plan.garbage_frame = 1.5;
        plan.validate();
    }

    #[test]
    fn garbage_is_printable_and_deterministic() {
        let a = garbage_bytes(9, 3, 64);
        let b = garbage_bytes(9, 3, 64);
        assert_eq!(a, b);
        assert!(a.iter().all(|&b| (0x21..=0x7E).contains(&b)));
        assert_ne!(a, garbage_bytes(9, 4, 64));
    }

    #[test]
    fn split_points_stay_strictly_inside() {
        for len in 2..64 {
            for ordinal in 0..32 {
                let cut = split_point(77, ordinal, len);
                assert!(cut >= 1 && cut < len, "len {len} cut {cut}");
            }
        }
    }

    #[test]
    fn names_are_kebab_case_and_unique() {
        let names: Vec<_> = ChaosClass::ALL.iter().map(|c| c.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        for name in names {
            assert!(name.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }

    #[test]
    fn expectations_cover_every_class() {
        assert_eq!(expected(None), Expect::Status(200));
        for class in ChaosClass::ALL {
            // Every class has a contracted reaction; none panic.
            let _ = expected(Some(class));
        }
        assert_eq!(expected(Some(ChaosClass::ResetMidBody)), Expect::NoResponse);
        assert_eq!(
            expected(Some(ChaosClass::OversizedFrame)),
            Expect::Status(413)
        );
    }
}
