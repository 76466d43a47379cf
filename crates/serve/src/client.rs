//! Blocking client for the `CSRV` protocol.
//!
//! One [`Client`] wraps one TCP connection; the protocol is strictly
//! request/response, so a call writes one frame and reads one frame.
//! Admission control is surfaced rather than hidden: `analyze` returns
//! the raw [`Response`] (which may be `RetryAfter`), and
//! [`Client::analyze_with_retry`] layers the obvious sleep-and-retry
//! loop on top for callers that just want a verdict.

use crate::protocol::{Request, Response};
use clean_trace::{EngineKind, TraceDigest};
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected `clean-serve` client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

fn unexpected_eof() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "server closed the connection mid-request",
    )
}

impl Client {
    /// Connects to a `clean-serve` daemon.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// One request/response round trip.
    ///
    /// # Errors
    ///
    /// I/O failures, malformed response frames, or the server closing
    /// the connection before replying.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        request.write(&mut self.writer)?;
        Response::read(&mut self.reader)?.ok_or_else(unexpected_eof)
    }

    /// Submits raw `CLTR` trace bytes into the store.
    ///
    /// # Errors
    ///
    /// Transport failures (server-side rejections come back as
    /// [`Response::Error`]).
    pub fn submit(&mut self, trace: Vec<u8>) -> io::Result<Response> {
        self.call(&Request::Submit { trace })
    }

    /// Requests analysis of a stored trace.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn analyze(
        &mut self,
        digest: TraceDigest,
        engine: EngineKind,
        wait: bool,
    ) -> io::Result<Response> {
        self.call(&Request::Analyze {
            digest,
            engine,
            wait,
        })
    }

    /// Like [`Client::analyze`] with `wait = true`, but obeys
    /// `RetryAfter` responses by sleeping and retrying, up to
    /// `max_retries` times.
    ///
    /// # Errors
    ///
    /// Transport failures, or `TimedOut` once the retry budget is spent.
    pub fn analyze_with_retry(
        &mut self,
        digest: TraceDigest,
        engine: EngineKind,
        max_retries: usize,
    ) -> io::Result<Response> {
        let mut attempts = 0;
        loop {
            match self.analyze(digest, engine, true)? {
                Response::RetryAfter { millis } if attempts < max_retries => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(millis.min(1_000)));
                }
                other => return Ok(other),
            }
        }
    }

    /// Fetches the raw bytes of a stored trace — the peer-replication
    /// primitive. The caller should re-digest the returned bytes before
    /// trusting them (the server-side store does this automatically via
    /// `insert_stream` with an expected digest).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn fetch(&mut self, digest: TraceDigest) -> io::Result<Response> {
        self.call(&Request::Fetch { digest })
    }

    /// Polls a job handle.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn status(&mut self, job: u64) -> io::Result<Response> {
        self.call(&Request::Status { job })
    }

    /// Reads the server's active `CSUP` suppression policy.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn policy(&mut self) -> io::Result<Response> {
        self.call(&Request::Policy { set: None })
    }

    /// Replaces the server's suppression policy with `text` (full `CSUP
    /// v1` rules text). The server persists the new rules before
    /// answering, so a success reply survives restarts.
    ///
    /// # Errors
    ///
    /// Transport failures (a rejected policy comes back as
    /// [`Response::Error`] with `BAD_POLICY`).
    pub fn set_policy(&mut self, text: impl Into<String>) -> io::Result<Response> {
        self.call(&Request::Policy {
            set: Some(text.into()),
        })
    }

    /// Fetches the `CMET v1` metrics exposition. Against a router this
    /// is the fleet-wide merge with `node` labels.
    ///
    /// # Errors
    ///
    /// Transport failures, or a non-METRICS reply.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected METRICS reply, got {other:?}"),
            )),
        }
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.call(&Request::Shutdown)
    }
}
