//! Drives the shipped `boomerang-sim` binary the way a user does: `run` on
//! a spec file, and `serve --listen` fed through its spool with two
//! `worker --connect` processes reaching the broker through the frame tap.

use crate::proc::{Proc, SIGTERM};
use crate::tap::{FrameEvent, Tap};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a single campaign may take before it counts as failed.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(60);

fn log_file(path: &Path) -> io::Result<Stdio> {
    Ok(Stdio::from(File::create(path)?))
}

/// Writes `text` to `path` through a temporary sibling and a rename, so a
/// spool scan never sees a half-written submission.
fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let tmp = path.with_file_name(format!(".{name}.tmp"));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// One `boomerang-sim run` campaign.
pub struct RunCampaign {
    pub wall_s: f64,
    pub max_rss_kb: u64,
    /// Milliseconds from spawning `run` to each row's line landing in the
    /// checkpoint journal (polled every 2 ms).
    pub row_ms: Vec<f64>,
    /// The JSON report, if the run succeeded.
    pub report: Option<Vec<u8>>,
    pub error: Option<String>,
}

/// Counts row lines appended to a journal (its first line is the header),
/// stamping each with the time it was first seen.
struct JournalTail {
    path: PathBuf,
    offset: u64,
    lines: u64,
    stamps: Vec<Instant>,
}

impl JournalTail {
    fn poll(&mut self) {
        let Ok(mut file) = File::open(&self.path) else {
            return;
        };
        let mut buf = Vec::new();
        if file.seek(SeekFrom::Start(self.offset)).is_err() || file.read_to_end(&mut buf).is_err() {
            return;
        }
        let now = Instant::now();
        // Only whole lines count; a partial tail is re-read next poll.
        let Some(last) = buf.iter().rposition(|&b| b == b'\n') else {
            return;
        };
        for _ in buf[..=last].iter().filter(|&&b| b == b'\n') {
            self.lines += 1;
            if self.lines > 1 {
                self.stamps.push(now);
            }
        }
        self.offset += last as u64 + 1;
    }
}

/// Runs `boomerang-sim run <spec> --jobs <jobs> --out <out> --quiet`, with
/// `--smoke` when asked, timing it from spawn to exit.
pub fn run_campaign(
    bin: &Path,
    spec: &Path,
    name: &str,
    out: &Path,
    jobs: usize,
    smoke: bool,
) -> io::Result<RunCampaign> {
    let mut cmd = Command::new(bin);
    cmd.arg("run")
        .arg(spec)
        .arg("--jobs")
        .arg(jobs.to_string())
        .arg("--out")
        .arg(out)
        .arg("--quiet")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log_file(&out.with_extension("log"))?);
    if smoke {
        cmd.arg("--smoke");
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut tail = JournalTail {
        path: out.join(format!("{name}.journal.jsonl")),
        offset: 0,
        lines: 0,
        stamps: Vec::new(),
    };
    let mut proc = Proc::spawn(&mut cmd)?;
    let started = proc.started;
    let tailer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                tail.poll();
                std::thread::sleep(Duration::from_millis(2));
            }
            tail.poll();
            tail
        })
    };
    let exit = proc.wait_timeout(CAMPAIGN_TIMEOUT);
    let ended = Instant::now();
    stop.store(true, Ordering::SeqCst);
    let tail = tailer.join().expect("journal tail thread panicked");
    let Some(exit) = exit? else {
        proc.stop(SIGTERM, Duration::from_secs(2))?;
        return Ok(RunCampaign {
            wall_s: ended.duration_since(started).as_secs_f64(),
            max_rss_kb: 0,
            row_ms: Vec::new(),
            report: None,
            error: Some(format!("`run` timed out after {CAMPAIGN_TIMEOUT:?}")),
        });
    };
    let row_ms = tail
        .stamps
        .iter()
        .map(|t| t.min(&ended).duration_since(started).as_secs_f64() * 1e3)
        .collect();
    let (report, error) = if exit.success() {
        match std::fs::read(out.join(format!("{name}.json"))) {
            Ok(bytes) => (Some(bytes), None),
            Err(e) => (None, Some(format!("reading the report: {e}"))),
        }
    } else {
        (None, Some(format!("`run` exited with {:?}", exit.code)))
    };
    Ok(RunCampaign {
        wall_s: ended.duration_since(started).as_secs_f64(),
        max_rss_kb: exit.max_rss_kb,
        row_ms,
        report,
        error,
    })
}

/// One served campaign.
pub struct ServedCampaign {
    pub dropped: Instant,
    pub finished: Instant,
    /// The JSON report, if the submission ended `.done`.
    pub report: Option<Vec<u8>>,
    pub error: Option<String>,
}

/// One `serve` process lifetime with its two workers.
pub struct Session {
    pub spawned: Instant,
    /// Campaigns in submission order; the first was in the spool before
    /// `serve` started.
    pub campaigns: Vec<ServedCampaign>,
    /// Peak RSS in KB of the broker and each worker.
    pub max_rss_kb: Vec<u64>,
    pub frames: Vec<FrameEvent>,
    pub problems: Vec<String>,
}

impl Session {
    /// Spawn-to-first-`Lease` time in seconds.
    pub fn setup_s(&self) -> Option<f64> {
        self.frames
            .iter()
            .filter(|e| matches!(e.frame, crate::tap::Frame::Lease { .. }))
            .map(|e| e.at)
            .min()
            .map(|at| at.duration_since(self.spawned).as_secs_f64())
    }
}

fn wait_for_marker(submission: &Path) -> Result<Instant, String> {
    let deadline = Instant::now() + CAMPAIGN_TIMEOUT;
    let marker = |suffix: &str| {
        let mut p = submission.as_os_str().to_owned();
        p.push(format!(".{suffix}"));
        PathBuf::from(p)
    };
    let (done, partial, failed) = (marker("done"), marker("partial"), marker("failed"));
    loop {
        if done.exists() {
            return Ok(Instant::now());
        }
        if partial.exists() || failed.exists() {
            let reason = std::fs::read_to_string(marker("error")).unwrap_or_default();
            return Err(format!(
                "{} was not completed: {}",
                submission.display(),
                reason.trim()
            ));
        }
        if Instant::now() >= deadline {
            return Err(format!("{} timed out", submission.display()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn wait_for_addr(path: &Path, serve: &mut Proc) -> io::Result<SocketAddr> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse() {
                return Ok(addr);
            }
        }
        if serve.try_reap()?.is_some() {
            return Err(io::Error::other("serve exited before listening"));
        }
        if Instant::now() >= deadline {
            return Err(io::Error::other("serve did not publish its address"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Think time before each submission after the first: uniform in
/// 0-100 ms. Workers that get `NoWork` sleep a fixed 100 ms, so a client
/// that resubmits the instant a campaign ends phase-locks to their sleep
/// and its campaign times jump between two modes with the host's speed; a
/// random think time spreads the phase evenly.
const MAX_THINK_MS: u64 = 100;

/// SplitMix64: think times derived from the benchmark's seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs one serve session in `dir`: the first submission is spooled before
/// `serve` starts, then one user submits campaigns in a closed loop, each
/// a think time after the previous one's `.done`, until `budget` has
/// passed and at least `min_campaigns` have run. `name` is the spec's
/// campaign name; `seed` drives the think times.
pub fn serve_session(
    bin: &Path,
    dir: &Path,
    spec_toml: &str,
    name: &str,
    seed: u64,
    budget: Duration,
    min_campaigns: usize,
) -> io::Result<Session> {
    let mut think = seed;
    let spool = dir.join("spool");
    let out = dir.join("out");
    std::fs::create_dir_all(&spool)?;
    let submission = |i: usize| spool.join(format!("c{i:04}.toml"));
    write_atomic(&submission(0), spec_toml)?;
    let addr_file = dir.join("broker.addr");
    let mut serve = Proc::spawn(
        Command::new(bin)
            .arg("serve")
            .arg("--spool")
            .arg(&spool)
            .arg("--out")
            .arg(&out)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--listen-addr-file")
            .arg(&addr_file)
            .arg("--workers")
            .arg("0")
            .arg("--smoke")
            // Spool scan interval: the default 500 ms sleep would dominate
            // a smoke campaign's time.
            .arg("--poll-ms")
            .arg("10")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file(&dir.join("serve.log"))?),
    )?;
    let spawned = serve.started;
    let broker = wait_for_addr(&addr_file, &mut serve)?;
    let tap = Tap::start(broker)?;
    let mut workers = Vec::new();
    for index in 0..2 {
        workers.push(Proc::spawn(
            Command::new(bin)
                .arg("worker")
                .arg("--connect")
                .arg(tap.addr().to_string())
                .arg("--worker-index")
                .arg(index.to_string())
                .arg("--quiet")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log_file(&dir.join(format!("worker-{index}.log")))?),
        )?);
    }
    let mut campaigns = Vec::new();
    let mut dropped = spawned;
    for i in 0.. {
        if i > 0 {
            if campaigns.len() >= min_campaigns && spawned.elapsed() >= budget {
                break;
            }
            let think_ms = splitmix64(&mut think) % MAX_THINK_MS;
            std::thread::sleep(Duration::from_millis(think_ms));
            dropped = Instant::now();
            write_atomic(&submission(i), spec_toml)?;
        }
        let (finished, report, error) = match wait_for_marker(&submission(i)) {
            Ok(at) => {
                match std::fs::read(out.join(format!("c{i:04}")).join(format!("{name}.json"))) {
                    Ok(bytes) => (at, Some(bytes), None),
                    Err(e) => (at, None, Some(format!("reading report {i}: {e}"))),
                }
            }
            Err(e) => (Instant::now(), None, Some(e)),
        };
        let failed = error.is_some();
        campaigns.push(ServedCampaign {
            dropped,
            finished,
            report,
            error,
        });
        if failed {
            break;
        }
    }
    // Teardown, outside every campaign's time: SIGTERM makes serve shut its
    // broker down; the workers are then stopped rather than left to their
    // reconnect backoff.
    let mut max_rss_kb = vec![serve.stop(SIGTERM, Duration::from_secs(10))?.max_rss_kb];
    for w in &mut workers {
        max_rss_kb.push(w.stop(SIGTERM, Duration::from_secs(2))?.max_rss_kb);
    }
    let (frames, problems) = tap.finish();
    Ok(Session {
        spawned,
        campaigns,
        max_rss_kb,
        frames,
        problems,
    })
}

/// Per-row timings paired from the tap's frames, per connection: a worker
/// holds one lease at a time, so each `Lease` pairs with the next
/// `RowDone` and `RowAck` of the same job on its connection.
#[derive(Default)]
pub struct FrameStats {
    /// `Lease` → `RowAck`.
    pub row_ms: Vec<f64>,
    /// `Lease` → `RowDone`.
    pub worker_ms: Vec<f64>,
    /// `RowDone` → `RowAck`.
    pub ack_ms: Vec<f64>,
    /// `LeaseRequest` → `Lease`.
    pub lease_wait_ms: Vec<f64>,
    /// (lease, done, ack) instants of every acked row.
    pub rows: Vec<(Instant, Instant, Instant)>,
    pub lease_requests: u64,
    pub no_work: u64,
    pub rejects: u64,
    pub acks: u64,
    pub bytes: u64,
}

pub fn frame_stats(frames: &[FrameEvent]) -> FrameStats {
    use crate::tap::Frame;
    let mut by_conn: Vec<FrameEvent> = frames.to_vec();
    by_conn.sort_by_key(|e| (e.conn, e.at));
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    let mut s = FrameStats::default();
    let mut conn = usize::MAX;
    let (mut request, mut lease, mut done): (
        Option<Instant>,
        Option<(u64, Instant)>,
        Option<Instant>,
    ) = (None, None, None);
    for e in &by_conn {
        if e.conn != conn {
            conn = e.conn;
            (request, lease, done) = (None, None, None);
        }
        s.bytes += e.bytes as u64;
        match e.frame {
            Frame::LeaseRequest => {
                s.lease_requests += 1;
                request = Some(e.at);
            }
            Frame::Lease { job } => {
                if let Some(r) = request.take() {
                    s.lease_wait_ms.push(ms(r, e.at));
                }
                lease = Some((job, e.at));
            }
            Frame::NoWork => s.no_work += 1,
            Frame::RowDone { job } => {
                if lease.is_some_and(|(j, _)| j == job) {
                    done = Some(e.at);
                }
            }
            Frame::RowAck { job } => {
                s.acks += 1;
                if let (Some((j, leased)), Some(d)) = (lease, done) {
                    if j == job {
                        s.row_ms.push(ms(leased, e.at));
                        s.worker_ms.push(ms(leased, d));
                        s.ack_ms.push(ms(d, e.at));
                        s.rows.push((leased, d, e.at));
                    }
                }
                (lease, done) = (None, None);
            }
            Frame::Reject => {
                s.rejects += 1;
                (lease, done) = (None, None);
            }
            Frame::Other => {}
        }
    }
    s
}
