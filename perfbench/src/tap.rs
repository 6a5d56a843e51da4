//! The frame tap: a TCP relay between `boomerang-sim worker` processes and
//! the `serve --listen` broker that timestamps every frame it forwards.
//!
//! Each frame is read whole (header, payload, trailer), its header checked
//! with `campaign::proto::parse_header` and its payload decoded with
//! `campaign::proto::decode`, then forwarded unchanged. The program itself
//! is not modified: the workers simply connect to the tap's address.

use campaign::proto::{self, Message, HEADER_LEN, TRAILER_LEN};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The frames the benchmark pairs up; everything else is `Other`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frame {
    LeaseRequest,
    Lease { job: u64 },
    NoWork,
    RowDone { job: u64 },
    RowAck { job: u64 },
    Reject,
    Other,
}

/// One forwarded frame.
#[derive(Clone, Copy, Debug)]
pub struct FrameEvent {
    /// Tap connection index (one per worker connection).
    pub conn: usize,
    /// When the whole frame had arrived at the tap.
    pub at: Instant,
    /// Frame bytes: header, payload and trailer.
    pub bytes: usize,
    pub frame: Frame,
}

type Shared<T> = Arc<Mutex<T>>;

pub struct Tap {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    relays: Shared<Vec<JoinHandle<()>>>,
    events: Shared<Vec<FrameEvent>>,
    errors: Shared<Vec<String>>,
}

impl Tap {
    /// Listens on a loopback port and relays each accepted connection to
    /// `upstream`.
    pub fn start(upstream: SocketAddr) -> io::Result<Tap> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let relays: Shared<Vec<JoinHandle<()>>> = Arc::default();
        let events: Shared<Vec<FrameEvent>> = Arc::default();
        let errors: Shared<Vec<String>> = Arc::default();
        let accept = {
            let (stop, relays, events, errors) =
                (stop.clone(), relays.clone(), events.clone(), errors.clone());
            std::thread::spawn(move || {
                for (conn, downstream) in listener.incoming().enumerate() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let pair = downstream.and_then(|d| Ok((d, TcpStream::connect(upstream)?)));
                    let (worker, broker) = match pair {
                        Ok(pair) => pair,
                        Err(e) => {
                            lock(&errors).push(format!("tap connection {conn}: {e}"));
                            continue;
                        }
                    };
                    let mut handles = lock(&relays);
                    for (from, to) in [(&worker, &broker), (&broker, &worker)] {
                        let streams = from.try_clone().and_then(|f| Ok((f, to.try_clone()?)));
                        match streams {
                            Ok((from, to)) => {
                                let (events, errors) = (events.clone(), errors.clone());
                                handles.push(std::thread::spawn(move || {
                                    relay(conn, from, to, &events, &errors)
                                }));
                            }
                            Err(e) => lock(&errors).push(format!("tap connection {conn}: {e}")),
                        }
                    }
                }
            })
        };
        Ok(Tap {
            addr,
            stop,
            accept: Some(accept),
            relays,
            events,
            errors,
        })
    }

    /// The address workers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins every relay. Call after the workers and
    /// the broker have exited, so every relayed socket is already closed.
    pub fn finish(mut self) -> (Vec<FrameEvent>, Vec<String>) {
        self.shutdown();
        let events = std::mem::take(&mut *lock(&self.events));
        let errors = std::mem::take(&mut *lock(&self.errors));
        (events, errors)
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            // Wake the blocking accept so it sees the stop flag.
            let _ = TcpStream::connect(self.addr);
            let _ = accept.join();
        }
        let handles = std::mem::take(&mut *lock(&self.relays));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Tap {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("a tap relay thread panicked")
}

/// Forwards frames from `from` to `to` until either side closes, then
/// closes both so the opposite relay ends too.
fn relay(
    conn: usize,
    mut from: TcpStream,
    mut to: TcpStream,
    events: &Mutex<Vec<FrameEvent>>,
    errors: &Mutex<Vec<String>>,
) {
    let _ = from.set_nodelay(true);
    let _ = to.set_nodelay(true);
    let mut frame = Vec::new();
    loop {
        match read_frame(&mut from, &mut frame) {
            Ok(Some(kind)) => {
                let event = FrameEvent {
                    conn,
                    at: Instant::now(),
                    bytes: frame.len(),
                    frame: kind,
                };
                lock(events).push(event);
                if to.write_all(&frame).is_err() {
                    break;
                }
            }
            Ok(None) => break,
            Err(e) => {
                lock(errors).push(format!("tap connection {conn}: {e}"));
                break;
            }
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Reads one whole frame into `buf`; `Ok(None)` on a clean or reset close
/// between frames.
fn read_frame(from: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<Option<Frame>> {
    let mut header = [0u8; HEADER_LEN];
    if let Err(e) = from.read_exact(&mut header) {
        return match e.kind() {
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected => Ok(None),
            _ => Err(e),
        };
    }
    let parsed = proto::parse_header(&header)?;
    let payload_len = parsed.payload_len as usize;
    buf.clear();
    buf.extend_from_slice(&header);
    buf.resize(HEADER_LEN + payload_len + TRAILER_LEN, 0);
    from.read_exact(&mut buf[HEADER_LEN..])?;
    let payload = &buf[HEADER_LEN..HEADER_LEN + payload_len];
    let frame = match proto::decode(parsed.kind, payload)? {
        Message::LeaseRequest => Frame::LeaseRequest,
        Message::Lease { job, .. } => Frame::Lease { job },
        Message::NoWork { .. } => Frame::NoWork,
        Message::RowDone { job, .. } => Frame::RowDone { job },
        Message::RowAck { job } => Frame::RowAck { job },
        Message::Reject { .. } => Frame::Reject,
        _ => Frame::Other,
    };
    Ok(Some(frame))
}
